(** The survey grid and the one journaled sweep over it (DESIGN.md
    §13–§14): the (program x obfuscation config) cells the paper
    experiments walk, the staged cell bodies the `survey` CLI and the
    sweep suites run, and the checkpointed bracket around a sweep. *)

(** {1 The grid} *)

val set_smoke : bool -> unit
(** Smoke mode ([bench --quick]): the grid collapses to one program
    under one obfuscation config. *)

val benchmark_entries : quick:bool -> Gp_corpus.Programs.entry list
(** The smoke program, the quick set, or the whole corpus. *)

val survey_configs : unit -> (string * Gp_obf.Obf.config) list
(** [Workspace.obf_configs], or the single smoke config. *)

val survey_entries :
  ?entries:Gp_corpus.Programs.entry list -> quick:bool -> unit ->
  Gp_corpus.Programs.entry list
(** [entries] when given, else {!benchmark_entries}. *)

val survey_cells :
  ?config_major:bool ->
  ?configs:(string * Gp_obf.Obf.config) list ->
  ?entries:Gp_corpus.Programs.entry list ->
  ?quick:bool ->
  (Gp_corpus.Programs.entry -> string -> Gp_obf.Obf.config -> 'a) ->
  'a list
(** [f] over every (entry, config) cell: entry-major, or config-major
    (originals first) with [config_major].  [configs] and [entries]
    override the grid's axes. *)

(** {1 Process state} *)

val reset_world : unit -> unit
(** Empty every process-global cache the pipeline keeps — gadget ids,
    interned terms, the solver memo and screens, the in-memory image
    memo — so the next run starts as a fresh process would.  The
    per-domain ([Domain.DLS]) abstract-value memo is cleared on the
    calling domain only; that is enough, because
    [Par.run] and {!Sched.run_cells} spawn fresh domains, whose tables
    start empty.  The only long-lived worker tables are those of the
    daemon's {!Sched.Service} workers, which this never targets. *)

val rm_rf : string -> unit
(** Remove a file or directory tree; absent paths are fine. *)

(** {1 Staged survey cells} *)

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

val sweep_cell_steps :
  ?entries:Gp_corpus.Programs.entry list ->
  ?configs:(string * Gp_obf.Obf.config) list ->
  ?quick:bool ->
  goal:Gp_core.Goal.t ->
  unit ->
  (string * (attempt:int -> Gp_core.Budget.t -> resume_payload Sched.step))
  list
(** The grid's cells, keyed ["program/config"], for {!Sched.run_cells}:
    a compile step, then {!Gp_core.Api.steps}' chain (extract, subsume,
    one degradation-ladder rung per step) under the attempt's watchdog
    budget, mapped to the cell's payload.  Cells are single-threaded
    inside; the "mid-stage" crash point fires in [Api.steps], between
    subsume and the first rung. *)

val sweep_cells_sequential :
  (string * (attempt:int -> Gp_core.Budget.t -> 'a Sched.step)) list ->
  (string * (attempt:int -> Gp_core.Budget.t -> ('a, Gp_core.Fail.t) result))
  list
(** Each staged cell driven to completion inline ({!Gp_core.Api.finish}):
    the {!Runner.run_corpus}-shaped sequential reference the sweep suite
    compares the scheduler against. *)

(** {1 The journaled sweep} *)

val sweep :
  dir:string -> resume:bool ->
  (manifest:Runner.Manifest.t -> resume:bool -> 'r) ->
  'r * Gp_core.Incr.report
(** [sweep ~dir ~resume run]: inside a store session on [dir]
    ({!Gp_core.Incr.with_store}), open the cell manifest there too,
    [run] the cells against it (replaying completed cells when
    [resume]), then close the manifest and compact the store; the
    session's report comes back with [run]'s result.  If [run] raises —
    a [Faultsim.Crashed] included — store journal and manifest are both
    abandoned without flushing, exactly like a killed process, and the
    exception propagates. *)

(** {1 Daemon requests} *)

val serve_requests :
  ?configs:(string * Gp_obf.Obf.config) list ->
  ?entries:Gp_corpus.Programs.entry list ->
  quick:bool ->
  unit ->
  (string * Serve.request) list
(** One daemon request per grid cell, keyed ["program/config"], with
    the sweep's planner limits. *)
