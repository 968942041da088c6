(** Analysis-as-a-service: resident daemon + client (DESIGN.md §15).

    One process keeps the sharded summary table and solver memos
    memory-hot across requests: a Unix-domain socket accepts framed
    ([Gp_util.Frame]) analysis requests and dispatches each as a chain
    of stage tasks on a persistent {!Sched.Service} pool, so concurrent
    requests pipeline across stages.  Durability is the WAL with
    periodic batched checkpoints; a daemon-served report is
    bit-identical to the cold CLI run of the same request. *)

open Gp_core

(** {1 Requests and reports} *)

type request = {
  rq_image : Gp_util.Image.t;  (** the binary under analysis *)
  rq_goal : string;            (** "execve" | "mprotect" | "mmap" *)
  rq_budget_s : float;         (** root budget seconds; 0. = unlimited *)
  rq_max_plans : int;          (** planner knobs, as the CLI's [plan] *)
  rq_node_budget : int;
  rq_time_budget : float;
  rq_branch_cap : int;
  rq_goal_cap : int;
  rq_max_steps : int;
  rq_jobs : int;               (** within-stage domains (default 1) *)
}

val default_request : Gp_util.Image.t -> request
(** Goal "execve", unlimited budget, [Planner.default_config] knobs,
    one within-stage domain. *)

(** The jobs- and temperature-invariant projection of an {!Api.outcome}:
    everything the CLI report prints, minus cache/summary/store
    counters (temperature) and store quarantine labels (resident vs
    cold runs legitimately differ there).  [report_encode] of this is
    the differential unit — daemon vs CLI comparisons are on the
    encoded bytes. *)
type report = {
  sr_pool : int;
  sr_chains : (string * string) list;
      (** per validated chain: (gadget-set key, printable description) *)
  sr_rungs : string list;
  sr_budget_hits : string list;
  sr_quarantined : (string * int) list;
  sr_counters : (string * int) list;
}

val report_of_outcome : Api.outcome -> report
val goal_of_name : string -> Goal.t
(** Same mapping as the CLI. @raise Invalid_argument on unknown names. *)

val planner_config_of : request -> Planner.config

(** {1 Codecs}

    Frame-payload bodies, [Gp_util.Store.Bin] discipline.  Decoders
    raise {!Gp_util.Frame.Truncated} on short or malformed input. *)

val request_encode : request -> string
val request_decode : string -> int ref -> request
val report_encode : report -> string
val report_decode : string -> int ref -> report

(** {1 Reference execution}

    The two must stay bit-identical; the serve suite diffs their
    encoded reports at service jobs 1 and 4. *)

val handle : ?cache_dir:string -> request -> report
(** Inline CLI-path execution: exactly what [gadget_planner plan] runs
    ({!Api.run} with a request-local gadget id source).  [cache_dir]
    is the CLI's --cache-dir — store loaded before, saved after — for
    modeling the durable process-per-request deployment. *)

val request_steps : request -> report Sched.step
(** The same computation cut along the {!Api} stage seams — extract,
    subsume, then one {!Api.run_rung} per step, climbing with
    {!Api.next_rung} like {!Api.run} — which is how the daemon runs it
    on the service pool. *)

(** {1 Daemon} *)

type config = {
  d_socket : string;           (** Unix-domain socket path *)
  d_cache_dir : string option; (** incremental store (journal mode) *)
  d_jobs : int;                (** service pool workers *)
  d_checkpoint_every : int;    (** checkpoint after this many analyses *)
  d_checkpoint_s : float;      (** ... or this many seconds dirty *)
}

val default_config : socket:string -> config
(** No cache dir, 4 workers, checkpoint every 8 analyses / 5 s. *)

type summary = {
  sm_served : int;                 (** analyses completed *)
  sm_faults : (string * int) list; (** frame-fault quarantine ledger *)
  sm_checkpoints : int;
  sm_mode : string;                (** "journaling" | "read-only: _" | "memory" *)
}

val serve : config -> summary
(** Run the daemon until a [Shutdown] request: load the store once
    (journal mode — the dir's advisory lock is held for the daemon's
    life, so concurrent CLI writers demote to read-only), accept
    framed requests, checkpoint on the dirty-count/timer policy, and
    on shutdown drain in-flight analyses and compact the journal.

    Wire damage is quarantined per the {!Fail.Frame_fault} labels and
    the offending connection dropped; resident caches never see a
    request that did not parse.  [Faultsim.Crashed] (or any handler
    bug) is NOT caught: the journal is abandoned — on-disk state frozen
    as at the crash — and the exception re-raised. *)

(** {1 Client} *)

type daemon_stats = {
  ds_served : int;
  ds_faults : (string * int) list;
  ds_checkpoints : int;
  ds_incr_size : int;     (** resident summary entries *)
  ds_memo_entries : int;  (** resident solver-memo entries *)
  ds_mode : string;
}

module Client : sig
  type t

  val connect : string -> (t, string) result
  (** While any connection is open (or any daemon runs) in the process,
      SIGPIPE is ignored: a write to a daemon that has gone away is an
      [Error], never the death of the calling process. *)

  val close : t -> unit

  val submit : t -> request -> (report, Fail.t) result
  (** One analysis round-trip.  The send path applies any installed
      [Frame.chaos_wire] schedule; injected faults surface as
      [Fail.Frame_fault] here and in the daemon's ledger.  Multiple
      requests per connection are fine. *)

  val stats : t -> (daemon_stats, Fail.t) result
  val shutdown : t -> (unit, Fail.t) result
end
