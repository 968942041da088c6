(** Analysis-as-a-service: resident daemon + client (DESIGN.md §15).

    One process keeps the image memo and solver memos memory-hot
    across requests: a Unix-domain socket accepts framed
    ([Gp_util.Frame]) analysis requests and runs each as one {!handle}
    task on a persistent {!Sched.Service} pool, so concurrent requests
    run on different workers.  Nothing is persisted: the memos
    live as long as the process.  A daemon-served report is
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
}

val default_request : Gp_util.Image.t -> request
(** Goal "execve", unlimited budget, [Planner.default_config] knobs. *)

(** The temperature-invariant projection of an {!Api.outcome}:
    everything the CLI report prints, minus the cache and summary
    counters (temperature).  [report_encode] of this is
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

type daemon_stats = {
  ds_served : int;
  ds_faults : (string * int) list;
  ds_incr_size : int;     (** images in the resident memo *)
  ds_memo_entries : int;  (** resident solver-memo entries *)
}

(** One frame payload: a tag byte, then the body. *)
type msg = Analyze of request | Stats | Shutdown

type reply =
  | Report of report
  | Stats_reply of daemon_stats
  | Shutdown_ack
  | Err_reply of string * string  (** Fail label, detail *)

val msg_encode : msg -> string
val msg_decode : string -> msg
val reply_encode : reply -> string
val reply_decode : string -> reply
(** The body must fill the payload exactly: a payload with bytes left
    over raises {!Gp_util.Frame.Truncated}, as a short one does. *)

(** {1 Execution} *)

val handle : request -> report
(** Exactly what [gadget_planner plan] runs ({!Api.run} with a
    request-local gadget id source), and the one task the daemon runs
    per request; the serve suite diffs daemon replies against it at
    service jobs 1 and 4. *)

(** {1 Daemon} *)

type config = {
  d_socket : string;           (** Unix-domain socket path *)
  d_jobs : int;                (** service pool workers *)
}

val default_config : socket:string -> config
(** 4 workers. *)

type summary = {
  sm_served : int;                 (** analyses completed *)
  sm_faults : (string * int) list; (** frame-fault quarantine ledger *)
}

val serve : config -> summary
(** Run the daemon until a [Shutdown] request: accept framed requests,
    and on shutdown drain in-flight analyses.

    Wire damage is quarantined per the {!Fail.Frame_fault} labels and
    the offending connection dropped; resident caches never see a
    request that did not parse.  [Faultsim.Crashed] (or any handler
    bug) is NOT caught: the pool's workers are joined, the socket is
    closed and unlinked, and the exception is re-raised. *)

(** {1 Client} *)

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
