(** Supervised corpus runner (DESIGN.md §13).

    Per-cell watchdog budgets, transient/permanent failure
    classification through the {!Gp_core.Fail} taxonomy, deterministic
    retry with exponential backoff + jitter, and a WAL-backed
    checkpoint manifest so an interrupted sweep resumes bit-identical
    to an uninterrupted one.  [Faultsim.Crashed] is never caught here:
    simulated process death unwinds the whole sweep. *)

open Gp_core

type retry_policy = {
  max_attempts : int;   (** total attempts per cell, >= 1 *)
  base_delay_s : float; (** backoff after the first failed attempt *)
  max_delay_s : float;  (** backoff cap *)
  jitter : float;       (** +/- fraction of the delay, in [0, 1) *)
  seed : int;           (** keys the deterministic jitter stream *)
  attempt_seconds : float option; (** watchdog deadline per attempt *)
}

val default_policy : retry_policy

val sleep_hook : (float -> unit) ref
(** Backoff sleeps go through this (default [Unix.sleepf]); tests
    install a recorder instead of sleeping. *)

val backoff_delay : retry_policy -> key:string -> attempt:int -> float
(** Pure function of (policy, cell key, 1-based attempt): the same
    failure sleeps the same schedule in every run. *)

val watchdog : retry_policy -> key:string -> Budget.t
(** A fresh per-attempt watchdog budget labelled ["cell:" ^ key]:
    [attempt_seconds] from now, or unlimited. *)

val run_cell :
  ?policy:retry_policy -> key:string ->
  (attempt:int -> Budget.t -> ('a, Fail.t) result) ->
  ('a, Fail.t) result * int
(** Run one cell under the policy: fresh watchdog budget per attempt,
    transient failures retried with backoff, permanent ones returned
    as-is.  An uncaught [Budget.Exhausted] counts as transient.
    Returns the outcome and the retries consumed. *)

(** Checkpoint journal of completed cells: one fsync'd WAL record per
    cell (key, payload digest, payload).  Torn tails are truncated on
    open; records failing their digest are dropped (recomputed).  A
    second writer demotes to read-only. *)
module Manifest : sig
  type entry = { e_digest : int64; e_payload : string }
  type t

  val wal_path : dir:string -> string
  val open_ : dir:string -> t
  val read_only : t -> string option
  val replayed : t -> int
  val torn_bytes : t -> int
  val find : t -> string -> entry option
  val completed : t -> int
  val record : t -> key:string -> payload:string -> unit
  val close : t -> unit

  val abandon : t -> unit
  (** Drop fds without flushing (simulated crash; test harness only). *)
end

type 'a cell_outcome = {
  c_key : string;
  c_result : ('a, Fail.t) result;
  c_retries : int;
  c_resumed : bool;
}

type report = {
  r_total : int;
  r_computed : int;
  r_resumed : int;
  r_retries : int;
  r_failed : (string * Fail.t) list;
}

val corpus_cell :
  ?policy:retry_policy -> ?manifest:Manifest.t -> resume:bool ->
  encode:('a -> string) -> decode:(string -> 'a) ->
  string * (attempt:int -> Budget.t -> ('a, Fail.t) result) ->
  'a cell_outcome
(** One cell of a sweep, shared by {!run_corpus} and
    {!Sched.run_cells}.  With [resume] and a manifest holding a record
    for the key whose body decodes, the cell replays that payload
    ([decode] raises [Gp_util.Store.Bin.Truncated] on a body it cannot
    read, and such a record is recomputed).  Otherwise it runs under
    {!run_cell}, and a success is recorded through [encode]. *)

val report_of : 'a cell_outcome list -> report
(** The sweep's tallies; [r_failed] in outcome order. *)

val run_corpus :
  ?policy:retry_policy -> ?manifest:Manifest.t -> ?resume:bool ->
  encode:('a -> string) -> decode:(string -> 'a) ->
  (string * (attempt:int -> Budget.t -> ('a, Fail.t) result)) list ->
  'a cell_outcome list * report
(** {!corpus_cell} over the cells, in order, on the calling domain
    (a cell is itself sequential: concurrency lives across cells, on
    {!Sched.run_cells}).  The shipped
    sweep runs the same cells on {!Sched.run_cells}; this loop is the
    sequential reference the sweep suite's byte differential compares
    it against, and what the runner suite's supervision tests drive. *)
