(** The domain pool that runs survey cells and daemon requests
    (DESIGN.md §14).

    One task per cell (or per daemon request): a task runs its whole
    pipeline, stage 1 to the end of the degradation ladder, on one
    worker.  Results are bit-identical to the sequential loop
    {!Runner.run_corpus} at any job count; the determinism argument
    (per-cell id sources, pure compiles, first-write-wins shared
    tables) is DESIGN.md §14. *)

open Gp_core

(** A fixed set of worker domains taking tasks from one FIFO queue: the
    analysis daemon's resident pool (DESIGN.md §15), and the pool
    {!run_cells} starts and stops around one sweep.  Idle workers block
    on a condition variable until work or {!Service.stop} arrives; the
    caller is not a worker (the daemon's main domain stays in its
    accept loop).

    Failure discipline: tasks own their errors, so any exception
    reaching a worker is fatal to the process ([Faultsim.Crashed],
    handler bugs).  The first is kept, the pool stops claiming work,
    and {!Service.check}/{!Service.stop} re-raise it on the caller's
    domain — where teardown (the daemon's socket, the sweep's
    manifest) lives. *)
module Service : sig
  type t

  val worker_minor_heap_words : int
  (** The minor heap of every worker domain, in words (1M words, 8 MB
      on 64-bit); the caller's domain keeps its own. *)

  val start : jobs:int -> t
  (** Spawn [jobs] (at least 1) worker domains, each of which first
      sets its own minor heap to {!worker_minor_heap_words}; the count is
      deliberately not clamped to the core count — oversubscribed
      workers are timesliced and must produce identical results.  If
      some spawns fail the pool runs with fewer workers; if none
      succeeds the spawn failure is raised. *)

  val submit : t -> (unit -> unit) -> unit
  (** Queue a task at the back of the queue.  Any domain may submit,
      a worker included. *)

  val pending : t -> int
  (** Tasks submitted but not yet finished. *)

  val check : t -> unit
  (** Re-raise the pool's fatal exception, if one happened. *)

  val stop : t -> unit
  (** Let the workers exit once the queue is empty: queued work still
      drains (in-flight analyses are not dropped) unless a fatal
      exception already stopped the pool, every domain is joined, then
      any fatal exception is re-raised. *)
end

val run_cells :
  ?policy:Runner.retry_policy ->
  ?manifest:Runner.Manifest.t ->
  ?resume:bool ->
  encode:('a -> string) ->
  decode:(string -> 'a) ->
  jobs:int ->
  (string * (attempt:int -> Budget.t -> ('a, Fail.t) result)) list ->
  'a Runner.cell_outcome list * Runner.report
(** {!Runner.run_corpus} on the pool: every cell is one task that runs
    {!Runner.corpus_cell} — replay from the manifest, or the cell under
    {!Runner.run_cell} (fresh watchdog per attempt, [Budget.Exhausted]
    transient, the same backoff schedule) and a manifest record on
    success ([Runner.Manifest.record] is atomic across domains).
    [jobs] sizes the pool; it is stopped (every domain joined) before
    this returns, and a fatal task exception — [Faultsim.Crashed]
    included — re-raises after the join.  The outcome list is in input
    cell order, and payloads are bit-identical to [run_corpus] at any
    [jobs]. *)
