(* Structured failure taxonomy for the pipeline (DESIGN.md "Failure
   model & budgets").

   Obfuscated binaries are exactly where analysis tooling hits
   pathological cases: undecodable byte windows, symbolic executor
   refusals, divergent solver queries, emulator faults.  A survey over
   hundreds of (program x obfuscation x goal) runs must treat these as
   DATA — quarantined and counted — never as process-killing exceptions.
   Every stage boundary in [Api] is typed over this module, and the
   per-stage fault ledgers end up in [Api.stage_stats]. *)

type t =
  | Decode_fault of int64 * string
      (* undecodable byte window at this address *)
  | Symx_unsupported of int64 * string
      (* the symbolic executor refused a run starting here *)
  | Solver_unknown of string
      (* an SMT query came back Unknown where a verdict was needed *)
  | Solver_timeout of string
      (* an SMT query exceeded its trial budget *)
  | Emu_fault of string
      (* concrete execution crashed (unmapped access, bad fetch, ...) *)
  | Budget_exhausted of string * [ `Time | `Fuel ]
      (* the named budget ran dry *)
  | Frame_fault of [ `Torn | `Checksum | `Disconnect ] * string
      (* a daemon wire frame was unusable: connection closed mid-frame,
         payload checksum/format mismatch, or the client vanished while
         the response was being written.  The request is quarantined and
         the connection dropped; resident caches are untouched *)

(* Short bucket name, used as the tally key so stats stay readable. *)
let label = function
  | Decode_fault _ -> "decode"
  | Symx_unsupported _ -> "symx"
  | Solver_unknown _ -> "solver-unknown"
  | Solver_timeout _ -> "solver-timeout"
  | Emu_fault _ -> "emu"
  | Budget_exhausted _ -> "budget"
  | Frame_fault (`Torn, _) -> "frame-torn"
  | Frame_fault (`Checksum, _) -> "frame-checksum"
  | Frame_fault (`Disconnect, _) -> "frame-disconnect"

let to_string = function
  | Decode_fault (addr, d) -> Printf.sprintf "decode fault at 0x%Lx: %s" addr d
  | Symx_unsupported (addr, d) ->
    Printf.sprintf "symbolic execution unsupported at 0x%Lx: %s" addr d
  | Solver_unknown d -> "solver unknown: " ^ d
  | Solver_timeout d -> "solver timeout: " ^ d
  | Emu_fault d -> "emulator fault: " ^ d
  | Budget_exhausted (l, `Time) -> Printf.sprintf "budget %s: deadline exhausted" l
  | Budget_exhausted (l, `Fuel) -> Printf.sprintf "budget %s: fuel exhausted" l
  | Frame_fault (`Torn, d) -> "torn wire frame: " ^ d
  | Frame_fault (`Checksum, d) -> "wire frame checksum: " ^ d
  | Frame_fault (`Disconnect, d) -> "client disconnected: " ^ d

(* The one mapping from a dry [Budget] to the taxonomy: stage guards,
   the supervised runner and the step driver all go through it. *)
let of_budget label = function
  | Budget.Deadline -> Budget_exhausted (label, `Time)
  | Budget.Fuel -> Budget_exhausted (label, `Fuel)

(* ----- supervision ----- *)

(* Transient failures are worth retrying under the runner's backoff
   ladder: a timeout says "starved", not "impossible", and a larger or
   luckier attempt may land.  Everything else is a property of the
   input (undecodable bytes, refused run, damaged frame) and retrying
   just burns budget. *)
let retryable = function
  | Solver_timeout _ | Budget_exhausted _ -> true
  | Decode_fault _ | Symx_unsupported _ | Solver_unknown _ | Emu_fault _
  | Frame_fault _ -> false

(* Process exit codes, BSD-sysexits-adjacent so supervisors can
   classify without parsing prose: 75 (tempfail) = transient timeout,
   70 (software) = hard analysis fault, 76 (protocol) = daemon
   wire-frame fault.  Cmdliner owns usage
   errors (124). *)
let exit_timeout = 75
let exit_fault = 70
let exit_proto = 76

let exit_code f =
  match f with
  | Solver_timeout _ | Budget_exhausted _ -> exit_timeout
  | Decode_fault _ | Symx_unsupported _ | Solver_unknown _ | Emu_fault _ ->
    exit_fault
  | Frame_fault _ -> exit_proto

(* Same classification keyed by ledger label, for call sites that only
   kept the tally bucket (quarantine ledgers in stage stats). *)
let exit_code_of_label = function
  | "solver-timeout" | "budget" -> exit_timeout
  | "frame-torn" | "frame-checksum" | "frame-disconnect" -> exit_proto
  | _ -> exit_fault

(* One-line JSON failure record for [--json-errors] (stderr, one per
   line).  OCaml's %S escaping is JSON-compatible for the ASCII
   diagnostics this module produces. *)
let json_record ~label ~detail =
  Printf.sprintf "{\"class\": %S, \"detail\": %S, \"exit_code\": %d}" label
    detail
    (exit_code_of_label label)

let to_json f = json_record ~label:(label f) ~detail:(to_string f)

(* ----- tallies ----- *)

(* A fault ledger: label -> count.  Stages carry one and quarantined
   items bump it; the pipeline merges ledgers into stage stats. *)
type tally = (string, int) Hashtbl.t

let tally_create () : tally = Hashtbl.create 8

let tally_add (t : tally) (f : t) =
  let k = label f in
  Hashtbl.replace t k (1 + (match Hashtbl.find_opt t k with Some n -> n | None -> 0))

let tally_count (t : tally) key =
  match Hashtbl.find_opt t key with Some n -> n | None -> 0

let tally_total (t : tally) = Hashtbl.fold (fun _ n acc -> acc + n) t 0

let tally_list (t : tally) =
  List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) t [])

(* Merge association-list ledgers (as stored in stats records). *)
let merge_counts (a : (string * int) list) (b : (string * int) list) =
  let t : tally = Hashtbl.create 8 in
  List.iter
    (fun (k, n) ->
      Hashtbl.replace t k (n + (match Hashtbl.find_opt t k with Some m -> m | None -> 0)))
    (a @ b);
  tally_list t
