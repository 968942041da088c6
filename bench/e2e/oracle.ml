(* Correctness oracle.

   Every item's result is reduced to a projection — the part that must
   not depend on timing, cache temperature or concurrency — and digested.
   The run then checks, per item:
   - the digest against the pinned digest of the default seed
     (pins.txt, written by `main.exe --pin`);
   - the digest against earlier items with the same key in this run;
   - for plans, that the result is non-empty and hit no budget, and that
     every chain, replayed here in the emulator, ends in the goal attack
     as this module spells it out (not through Goal.satisfied). *)

let pinned_seed = 1
let pins_file = "bench/e2e/pins.txt"

(* ----- projections ----- *)

let pairs l =
  String.concat "," (List.map (fun (k, n) -> Printf.sprintf "%s:%d" k n) l)

let scan_projection (a : Gp_core.Api.analysis) =
  Printf.sprintf "pool=%d|raw=%d|q=%s|budget=%s" (Gp_core.Pool.size a.pool)
    a.raw_extracted (pairs a.quarantined)
    (String.concat "," a.analysis_budget_hits)

(* Plans are projected from the daemon's reply type, so a daemon reply
   and an in-process outcome compare as equals.  [sr_counters] is left
   out: see the counter_drift note in README.md. *)
let report_projection (r : Gp_harness.Serve.report) =
  Printf.sprintf "pool=%d|chains=%s|rungs=%s|budget=%s|q=%s" r.sr_pool
    (String.concat ";" (List.map fst r.sr_chains))
    (String.concat "," r.sr_rungs)
    (String.concat "," r.sr_budget_hits)
    (pairs r.sr_quarantined)

let digest s = Digest.to_hex (Digest.string s)

(* ----- emulator replay ----- *)

let fuel = 1_000_000

let goal_reached goal (o : Gp_emu.Machine.outcome) =
  match (goal, o) with
  | "execve", Attacked (Execve { path; argv; envp }) ->
    path = "/bin/sh" && argv = 0L && envp = 0L
  | "mprotect", Attacked (Mprotect { addr; len; prot }) ->
    addr = Gp_emu.Machine.stack_base && len = 0x1000L && prot = 7L
  | "mmap", Attacked (Mmap { addr; len; prot }) ->
    addr = 0L && len = 0x1000L && prot = 7L
  | _ -> false

(* The stack smash: payload word 0 on the return-address cell, rsp just
   past it, rip at the first gadget, registers zeroed. *)
let replay image goal (c : Gp_core.Payload.chain) =
  let m = Gp_emu.Machine.create image in
  let base = Gp_core.Layout.payload_base () in
  match
    Array.iteri
      (fun k w ->
        Gp_emu.Memory.write64 m.mem (Int64.add base (Int64.of_int (8 * k))) w)
      c.c_payload;
    m.rip <- c.c_payload.(0);
    Gp_emu.Machine.set_rsp m (Int64.add base 8L);
    Gp_emu.Machine.run ~fuel m
  with
  | o -> goal_reached goal o
  | exception Gp_emu.Memory.Fault _ -> false

(* ----- the per-run checker ----- *)

type t = {
  workload : string;
  pins : (string, string) Hashtbl.t option;
  seen : (string, string) Hashtbl.t;
  mutable digests : (string * string) list;  (* newest first *)
  mutable failed : int;
  mutable reasons : string list;             (* first few, newest first *)
  mutable replays : int;
  mutable replay_s : float;
}

let load_pins () =
  let t = Hashtbl.create 1024 in
  let ic = open_in pins_file in
  (try
     while true do
       match String.split_on_char ' ' (String.trim (input_line ic)) with
       | [ w; k; d ] -> Hashtbl.replace t (w ^ " " ^ k) d
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  t

let create ~workload ~seed ~use_pins =
  { workload;
    pins = (if use_pins && seed = pinned_seed then Some (load_pins ()) else None);
    seen = Hashtbl.create 512;
    digests = [];
    failed = 0;
    reasons = [];
    replays = 0;
    replay_s = 0. }

(* serve-2c answers the plan-cold mix, so its replies are pinned by the
   plan-cold digests. *)
let pin_namespace = function "serve-2c" -> "plan-cold" | w -> w

(* Record one item's projection digest plus the problems the workload
   found itself. *)
let record t ~key ~projection problems =
  let d = digest projection in
  let problems =
    (match Hashtbl.find_opt t.seen key with
    | Some d' when d' <> d -> [ "differs from an earlier reply" ]
    | _ -> [])
    @ (match t.pins with
      | Some p -> (
        match Hashtbl.find_opt p (pin_namespace t.workload ^ " " ^ key) with
        | Some d' when d' <> d -> [ "pinned digest mismatch" ]
        | _ -> [])
      | None -> [])
    @ problems
  in
  if not (Hashtbl.mem t.seen key) then Hashtbl.add t.seen key d;
  t.digests <- (key, d) :: t.digests;
  if problems <> [] then begin
    t.failed <- t.failed + 1;
    if List.length t.reasons < 8 then
      t.reasons <- (key ^ ": " ^ String.concat ", " problems) :: t.reasons
  end

(* Problems of one planning outcome, replaying every chain. *)
let plan_problems t image goal (o : Gp_core.Api.outcome) =
  let t0 = Unix.gettimeofday () in
  let bad = List.filter (fun c -> not (replay image goal c)) o.chains in
  t.replays <- t.replays + List.length o.chains;
  t.replay_s <- t.replay_s +. (Unix.gettimeofday () -. t0);
  (if o.chains = [] then [ "no chains" ] else [])
  @ (if o.stats.budget_hits <> [] then [ "budget hit" ] else [])
  @
  if bad <> [] then [ Printf.sprintf "%d chain(s) fail replay" (List.length bad) ]
  else []

(* One in-process planning outcome: replay its chains, then record it. *)
let record_plan t ~key image goal o =
  record t ~key
    ~projection:(report_projection (Gp_harness.Serve.report_of_outcome o))
    (plan_problems t image goal o)

let report_problems (r : Gp_harness.Serve.report) =
  (if r.sr_chains = [] then [ "no chains" ] else [])
  @ if r.sr_budget_hits <> [] then [ "budget hit" ] else []

let scan_problems (a : Gp_core.Api.analysis) =
  (if Gp_core.Pool.size a.pool = 0 then [ "empty pool" ] else [])
  @ if a.analysis_budget_hits <> [] then [ "budget hit" ] else []
