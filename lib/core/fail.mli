(** Structured failure taxonomy (DESIGN.md "Failure model & budgets").

    The survey in the paper runs hundreds of (program x obfuscation x
    goal) pipeline executions; a single undecodable byte window or
    refused symbolic run must be quarantined and counted, never
    allowed to abort the whole sweep.  Stage boundaries in {!Api} are
    typed over this taxonomy and quarantine ledgers built from it land
    in {!Api.stage_stats}. *)

type t =
  | Decode_fault of int64 * string
      (** undecodable byte window at this address *)
  | Symx_unsupported of int64 * string
      (** the symbolic executor refused a run starting here *)
  | Emu_fault of string
      (** concrete execution crashed (unmapped access, bad fetch, ...) *)
  | Budget_exhausted of string * [ `Time | `Fuel ]
      (** the named budget ran dry *)
  | Frame_fault of [ `Torn | `Checksum | `Disconnect ] * string
      (** a daemon wire frame was unusable (torn stream, checksum or
          format mismatch, client hangup mid-response); the request is
          quarantined, the connection dropped, resident caches
          untouched *)

val label : t -> string
(** Short bucket name ("decode", "symx", "budget", ...); used as
    the tally key. *)

val to_string : t -> string

val of_budget : string -> Budget.reason -> t
(** [Budget_exhausted] for the named budget: [Deadline] is [`Time],
    [Fuel] is [`Fuel]. *)

(** {1 Supervision}

    The runner's retry ladder and process exit codes are both derived
    from the taxonomy, so every supervisor — in-process or outside —
    classifies failures the same way. *)

val retryable : t -> bool
(** [true] for transient failures (exhausted budgets) worth
    retrying with backoff; [false] for permanent properties of the
    input. *)

val exit_code : t -> int
(** Distinct process exit codes per failure class: 75 transient
    timeout, 70 hard analysis fault, 76 wire protocol fault. *)

val exit_code_of_label : string -> int
(** Same mapping keyed by {!label} bucket (for quarantine ledgers). *)

val json_record : label:string -> detail:string -> string
(** One-line JSON failure record ({["{\"class\": ..., \"detail\": ...,
    \"exit_code\": ...}"]}) for [--json-errors] stderr streams. *)

(** {1 Tallies}

    A fault ledger mapping {!label} buckets to counts.  Stages carry one
    and bump it for each quarantined item; {!Api} snapshots ledgers into
    stats records as sorted association lists. *)

type tally

val tally_create : unit -> tally
val tally_add : tally -> t -> unit
val tally_count : tally -> string -> int
val tally_total : tally -> int

val tally_list : tally -> (string * int) list
(** Sorted [(label, count)] snapshot. *)

