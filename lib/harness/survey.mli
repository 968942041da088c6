(** The survey grid and the one checkpointed sweep over it (DESIGN.md
    §13–§14): the (program x obfuscation config) cells the paper
    experiments walk, the cell bodies the `survey` CLI and the sweep
    suites run, and the checkpointed bracket around a sweep. *)

(** {1 The grid} *)

(** The programs and obfuscation configs a run covers: every cell is
    one (entry, config) pair.  The paper experiments take their grid as
    an argument; nothing else selects it. *)
type grid = {
  entries : Gp_corpus.Programs.entry list;
  configs : (string * Gp_obf.Obf.config) list;
}

val smoke_grid : grid
(** fibonacci under llvm-obf ([bench --quick]). *)

val quick_grid : grid
(** The four quick programs under {!Workspace.obf_configs}. *)

val full_grid : grid
(** The whole corpus under {!Workspace.obf_configs}. *)

val survey_cells :
  grid -> (Gp_corpus.Programs.entry -> string -> Gp_obf.Obf.config -> 'a) ->
  'a list
(** [f] over every cell of the grid, entry-major.  The one walker over a
    grid. *)

(** {1 Process state} *)

val reset_world : unit -> unit
(** Reset the state the pipeline keeps between runs — the gadget id
    counter, interned terms, the solver memo, the in-memory image memo —
    so the next run starts as a fresh process would.  All of it is
    process-wide, so this reaches every domain, the daemon's
    {!Sched.Service} workers included. *)

val rm_rf : string -> unit
(** Remove a file or directory tree; absent paths are fine. *)

(** {1 Sweep cells} *)

(** One survey cell's result, reduced to exactly the data that must be
    invariant across job counts, cache temperature, and
    interrupt/resume.  This is what the checkpoint manifest records, so
    "resume ≡ uninterrupted" is checked byte for byte on the encoded
    form. *)
type resume_payload = {
  rp_program : string;
  rp_config : string;
  rp_pool : int;
  rp_chains : string list;            (** [Payload.chain_set_key] per chain *)
  rp_rungs : string list;             (** degradation rungs attempted *)
  rp_counters : (string * int) list;  (** [Api.invariant_counters] *)
}

val resume_payload_encode : resume_payload -> string
val resume_payload_decode : string -> resume_payload

val sweep_cells :
  goal:Gp_core.Goal.t ->
  grid ->
  (string
  * (attempt:int -> Gp_core.Budget.t ->
     (resume_payload, Gp_core.Fail.t) result))
  list
(** The grid's cells, keyed ["program/config"], for {!Runner.run_corpus}
    and {!Sched.run_cells} alike: compile, then {!Gp_core.Api.run}
    under the attempt's watchdog budget, reduced to the cell's payload.
    Cells are single-threaded inside; the "mid-stage" crash point fires
    in [Api.run], between subsume and the first rung. *)

(** {1 The checkpointed sweep} *)

val sweep :
  dir:string -> resume:bool ->
  (manifest:Runner.Manifest.t -> resume:bool -> 'r) -> 'r
(** [sweep ~dir ~resume run]: open the cell manifest in [dir], [run]
    the cells against it (replaying completed cells when [resume]),
    then close the manifest.  If [run] raises — a [Faultsim.Crashed]
    included — the manifest is abandoned without flushing, exactly like
    a killed process, and the exception propagates.  The manifest is
    the only state a sweep keeps on disk. *)

(** {1 Daemon requests} *)

val serve_requests : grid -> (string * Serve.request) list
(** One daemon request per grid cell, keyed ["program/config"], with
    the sweep's planner limits. *)
