(** Corpus-level pipelined scheduler (DESIGN.md §14).

    Runs a survey sweep on the pool: one shared domain pool with
    per-worker deques and work stealing, each (cell x stage) unit its
    own task, so stage 3 of cell A overlaps stage 1 of cell B instead
    of fencing at each stage boundary.  The analysis daemon runs its
    requests on the same pool through the same chain driver
    ({!drive}).  Results are bit-identical to the sequential reference
    loop {!Runner.run_corpus} at any job count; the determinism
    argument (per-cell id sources, pure compiles, first-write-wins
    shared tables) is DESIGN.md §14. *)

open Gp_core

(** Work-stealing deque: the owner pushes and pops at the bottom
    (newest first), thieves take from the top (oldest first).  Exposed
    for the property-test tier. *)
module Deque : sig
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> 'a -> unit

  val pop : 'a t -> 'a option
  (** Owner end: most recently pushed (LIFO). *)

  val steal : 'a t -> 'a option
  (** Thief end: least recently pushed (FIFO). *)

  val length : 'a t -> int
end

(** Persistent work-stealing pool: the analysis daemon's resident pool
    (DESIGN.md §15), and the pool {!run_cells} starts and stops around
    one sweep.  Workers park
    until {!Service.stop}; the caller is not a worker (the daemon's
    main domain stays in its accept loop).

    Failure discipline: tasks own their errors, so any exception
    reaching a worker is fatal to the process ([Faultsim.Crashed],
    handler bugs).  The first is kept, the pool stops claiming work,
    and {!Service.check}/{!Service.stop} re-raise it on the caller's
    domain — where teardown (the daemon's socket, the sweep's
    manifest) lives. *)
module Service : sig
  type t

  val start : jobs:int -> t
  (** Spawn [jobs] (at least 1) worker domains; the count is
      deliberately not clamped to the core count — oversubscribed
      workers are timesliced and must produce identical results.  If
      some spawns fail the pool runs with fewer workers; if none
      succeeds the spawn failure is raised. *)

  val submit : t -> (unit -> unit) -> unit
  (** Queue a task.  From a worker domain it lands on that worker's own
      deque (owner-LIFO pipelines a chain's stages, thieves take other
      chains' opening stages); from other domains tasks spread
      round-robin. *)

  val pending : t -> int
  (** Tasks submitted but not yet finished. *)

  val check : t -> unit
  (** Re-raise the pool's fatal exception, if one happened. *)

  val stop : t -> unit
  (** Let the workers exit once idle: queued work still drains
      (in-flight analyses are not dropped) unless a fatal exception
      already stopped the pool, every domain is joined, then any fatal
      exception is re-raised. *)
end

(** A cell's (or a daemon request's) work as a chain of resumable
    steps ({!Api.step}, re-exported). *)
type 'a step = 'a Api.step = Finished of 'a | Next of (unit -> 'a step)

val drive : Service.t -> 'a step -> finish:(('a, Fail.t) result -> unit) -> unit
(** Run a chain on the pool: each [Next] continuation is its own task,
    submitted from the worker that produced its input (owner-LIFO keeps
    the chain on that worker unless stolen), and [finish] is called
    exactly once — on the caller if the chain is already [Finished],
    else on a worker — with [Ok] of the chain's value, or with
    [Error (Fail.of_budget _)] if a [Budget.Exhausted] escapes a step. *)

val run_cells :
  ?policy:Runner.retry_policy ->
  ?manifest:Runner.Manifest.t ->
  ?resume:bool ->
  encode:('a -> string) ->
  decode:(string -> 'a) ->
  jobs:int ->
  (string * (attempt:int -> Budget.t -> 'a step)) list ->
  'a Runner.cell_outcome list * Runner.report
(** {!Runner.run_corpus} semantics on the pool: completed cells replay
    from the manifest before anything is scheduled; each computed
    cell's step chain runs under a fresh per-attempt watchdog budget
    (created when the attempt starts executing, not when it was
    scheduled); [Budget.Exhausted] anywhere in the chain is transient;
    transient failures retry from the cell's FIRST stage with the same
    deterministic backoff schedule; a finished cell is recorded in the
    manifest ([Runner.Manifest.record] is atomic across domains).  [jobs] sizes the pool; it is stopped (every
    domain joined) before this returns, and a fatal task exception —
    [Faultsim.Crashed] included — re-raises after the join.  The
    outcome list is in input cell order, and payloads are
    bit-identical to [run_corpus] at any [jobs]. *)
