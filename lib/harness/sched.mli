(** Corpus-level pipelined scheduler (DESIGN.md §14).

    Schedules a survey sweep as a task DAG — nodes are (cell x stage)
    units, edges the stage order within a cell — on one shared domain
    pool with per-worker deques and work stealing, so stage 3 of cell A
    overlaps stage 1 of cell B instead of fencing at each stage
    boundary.  Results are bit-identical to the sequential reference
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

(** Dependency-counted task graph executed by a shared worker pool. *)
module Dag : sig
  type t

  val create : unit -> t

  val node : t -> ?after:int list -> ?label:string -> (unit -> unit) -> int
  (** Add a node depending on the (existing — the graph is acyclic by
      construction) nodes in [after]; returns its id.  May be called
      from inside a running node to grow the graph dynamically: a node
      created ready during a run lands on the creating worker's own
      deque, where LIFO order runs it next unless stolen. *)

  val node_count : t -> int
  val label : t -> int -> string

  val run : ?jobs:int -> t -> unit
  (** Execute until every node is done.  [jobs] workers (the calling
      domain is one; the count is deliberately not clamped to the core
      count — oversubscribed workers are timesliced and must produce
      identical results).  A node never runs before all its
      predecessors completed.  If a node raises, the pool stops
      claiming work, every domain is joined, and the exception of the
      lowest-numbered failed node is re-raised — [Faultsim.Crashed]
      escapes here just as it does from a sequential sweep. *)
end

(** Persistent work-stealing pool for the analysis daemon (DESIGN.md
    §15): the [Dag] deque/steal/backoff machinery without the batch
    exit — workers park until {!Service.stop}.  The caller is not a
    worker (the daemon's main domain stays in its accept loop).

    Failure discipline: request handlers own their errors, so any
    exception reaching a worker is fatal to the process
    ([Faultsim.Crashed], handler bugs).  The first is kept, the pool
    stops claiming work, and {!Service.check}/{!Service.stop} re-raise
    it on the main loop — where journal teardown lives. *)
module Service : sig
  type t

  val start : jobs:int -> t

  val submit : t -> (unit -> unit) -> unit
  (** Queue a task.  From a worker domain it lands on that worker's own
      deque (owner-LIFO pipelines a request's stages, thieves take
      other requests' opening stages); from other domains tasks spread
      round-robin. *)

  val pending : t -> int
  (** Tasks submitted but not yet finished. *)

  val jobs : t -> int

  val check : t -> unit
  (** Re-raise the pool's fatal exception, if one happened. *)

  val stop : t -> unit
  (** Stop accepting park-forever semantics: queued work still drains
      (in-flight analyses are not dropped), every domain is joined,
      then any fatal exception is re-raised. *)
end

(** A cell's work as a chain of resumable steps.  Each [Next (stage,
    k)] becomes its own DAG node labeled with [stage]. *)
type 'a step =
  | Finished of ('a, Fail.t) result
  | Next of string * (unit -> 'a step)

val run_cells :
  ?policy:Runner.retry_policy ->
  ?manifest:Runner.Manifest.t ->
  ?resume:bool ->
  encode:('a -> string) ->
  decode:(string -> 'a) ->
  jobs:int ->
  (string * (attempt:int -> Budget.t -> 'a step)) list ->
  'a Runner.cell_outcome list * Runner.report
(** {!Runner.run_corpus} semantics on the DAG: completed cells replay
    from the manifest before anything is scheduled; each computed
    cell's step chain runs under a fresh per-attempt watchdog budget
    (created when the attempt starts executing, not when it was
    scheduled); [Budget.Exhausted] anywhere in the chain is transient;
    transient failures retry from the cell's FIRST stage with the same
    deterministic backoff schedule; a finished cell is recorded in the
    manifest and followed by an [Incr] journal checkpoint, serialized
    under one commit lock.  The outcome list is in input cell order,
    and payloads are bit-identical to [run_corpus] at any [jobs]. *)
