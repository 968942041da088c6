(* Determinism tests for concurrent requests (DESIGN.md "Concurrency
   & determinism").  A request is a sequential computation; several
   requests run at once on a [Sched.Service] pool, sharing the
   process-global tables (interned terms, the solver memo, the image
   memo, the trial table).  Three angles:

   - differential: the full pipeline run as concurrent requests on JOBS
     domains is bit-identical to the same requests run one after
     another across the survey programs and obfuscation configs — pool,
     plan counts, validated-chain sets, quarantine ledgers, budget
     accounting;
   - fault injection under concurrency: keyed chaos schedules hit the
     same items whatever runs beside them, so no quarantined fault is
     dropped or double-counted;
   - properties of the solver's canonical form: canonicalization is
     idempotent and order-insensitive, and so are verdicts.

   JOBS (default 4) sizes the pool, so `make check-par` sweeps it
   without editing code. *)

open Gp_x86

let jobs_under_test = Gen.jobs_under_test

(* ----- differential: concurrent requests = sequential requests ----- *)

(* Seven survey programs x three obfuscation configs = 21 cells, a
   spread of pool sizes from a few dozen gadgets to a few hundred. *)
let diff_programs =
  [ "fibonacci"; "gcd_lcm"; "bubble_sort"; "string_reverse";
    "crc_check"; "bitcount"; "prime_sieve" ]

let planner_config =
  { Gp_core.Planner.max_plans = 4; node_budget = 1200; time_budget = 10.;
    branch_cap = 10; goal_cap = 6; max_steps = 14 }

(* Everything in the outcome that must not depend on what runs beside
   the request.  Cache hit/miss counters are deliberately absent: hit
   rate is a property of cache temperature, not of verdicts; so is
   [solver_unknowns], a delta of a process-wide counter that concurrent
   requests bump together. *)
type fingerprint = {
  f_extracted : int;
  f_deduped : int;
  f_capped : int;
  f_pool_size : int;
  f_plans_found : int;
  f_chains : string list;            (* sorted chain keys *)
  f_quarantined : (string * int) list;
  f_budget_hits : string list;
  f_rungs : string list;
}

let fingerprint (o : Gp_core.Api.outcome) =
  let s = o.Gp_core.Api.stats in
  { f_extracted = s.Gp_core.Api.extracted;
    f_deduped = s.Gp_core.Api.deduped;
    f_capped = s.Gp_core.Api.subsume_capped;
    f_pool_size = s.Gp_core.Api.pool_size;
    f_plans_found = s.Gp_core.Api.plans_found;
    f_chains =
      List.sort compare
        (List.map Gp_core.Payload.chain_key o.Gp_core.Api.chains);
    f_quarantined = s.Gp_core.Api.quarantined;
    f_budget_hits = s.Gp_core.Api.budget_hits;
    f_rungs = List.map Gp_core.Api.rung_name o.Gp_core.Api.rungs }

let run_once image =
  fingerprint
    (Gp_core.Api.run ~planner_config ~ids:(Gp_core.Gadget.local_ids ()) image
       (Gp_core.Goal.Execve "/bin/sh"))

let compile pname cfg =
  Gp_codegen.Pipeline.compile ~transform:(Gp_obf.Obf.transform cfg)
    (Gp_corpus.Programs.find pname).Gp_corpus.Programs.source

(* JOBS copies of [f] run as concurrent requests: every copy must equal
   [want]. *)
let check_concurrent what want f =
  List.iteri
    (fun i got ->
      Alcotest.(check bool) (Printf.sprintf "%s, copy %d" what i) true (got = want))
    (Gen.copies f)

let test_differential () =
  let cells =
    List.concat_map
      (fun pname ->
        List.map
          (fun (cname, cfg) -> (pname ^ "/" ^ cname, compile pname cfg))
          Gp_harness.Workspace.obf_configs)
      diff_programs
  in
  let seq = List.map (fun (_, image) -> run_once image) cells in
  let par =
    Gen.concurrently ~jobs:jobs_under_test
      (List.map (fun (_, image) () -> run_once image) cells)
  in
  List.iter2
    (fun ((cell, _), s) p ->
      Alcotest.(check bool) (cell ^ " identical") true (s = p))
    (List.combine cells seq) par

(* Concurrent requests must also carry the same ids in the same order,
   not merely the same addresses — planner determinism rests on it.
   The sequential reference draws from the reset global sequence. *)
let test_pool_ids_identical () =
  let image = compile "fibonacci" Gp_obf.Obf.ollvm in
  let ids (a : Gp_core.Api.analysis) =
    List.map
      (fun (g : Gp_core.Gadget.t) -> (g.Gp_core.Gadget.id, g.Gp_core.Gadget.addr))
      a.Gp_core.Api.gadgets
  in
  Gp_core.Gadget.reset_ids ();
  let seq = ids (Gp_core.Api.analyze image) in
  check_concurrent "ids" seq (fun () ->
      ids (Gp_core.Api.analyze ~ids:(Gp_core.Gadget.local_ids ()) image))

(* The stage-2 bucket cap is the only thing dropping deduped gadgets:
   its tally must be live on a cell that hits it, account exactly for
   the gap between the deduped count and the pool in the run's stats,
   and, like the pool it shapes, be the same in concurrent requests. *)
let test_bucket_cap_tallied () =
  let image = compile "bubble_sort" Gp_obf.Obf.ollvm in
  let tiny = { planner_config with Gp_core.Planner.node_budget = 20 } in
  let snapshot () =
    let a = Gp_core.Api.analyze ~ids:(Gp_core.Gadget.local_ids ()) image in
    let st =
      (Gp_core.Api.run_with_analysis ~planner_config:tiny a
         (Gp_core.Goal.Execve "/bin/sh"))
        .Gp_core.Api.stats
    in
    Alcotest.(check int) "deduped - capped = pool" st.Gp_core.Api.pool_size
      (st.Gp_core.Api.deduped - st.Gp_core.Api.subsume_capped);
    ( a.Gp_core.Api.subsume_capped,
      List.map (fun (g : Gp_core.Gadget.t) -> g.Gp_core.Gadget.id)
        a.Gp_core.Api.gadgets )
  in
  let seq = snapshot () in
  Alcotest.(check bool) "cap hit" true (fst seq > 0);
  check_concurrent "capped and pool" seq snapshot

(* ----- fault injection under concurrency ----- *)

(* A 10% uniform fault sweep: the keyed schedules must hit exactly the
   same starts whether a harvest runs alone or beside others, so the
   quarantine ledger and the surviving pool are invariant — nothing
   dropped, nothing counted twice. *)
let test_faults_invariant_under_jobs () =
  let image = compile "fibonacci" Gp_obf.Obf.tigress in
  let cfg = Gp_harness.Faultsim.uniform ~seed:11 0.1 in
  Gp_harness.Faultsim.with_faults cfg (fun () ->
      let sweep () =
        let gs, st =
          Gp_core.Extract.harvest_r ~ids:(Gp_core.Gadget.local_ids ()) image
        in
        ( List.map (fun (g : Gp_core.Gadget.t) -> g.Gp_core.Gadget.addr) gs,
          st.Gp_core.Extract.h_quarantined )
      in
      let seq = sweep () in
      check_concurrent "pool and tally" seq sweep;
      (* the sweep must actually be injecting: at 10% over thousands of
         start offsets, zero decode quarantines means a dead hook *)
      match List.assoc_opt "decode" (snd seq) with
      | Some n when n > 0 -> ()
      | _ -> Alcotest.fail "no decode faults quarantined at 10%")

(* ----- solver canonical-form properties ----- *)

(* Every path solves the canonical conjunction, so permutations of a
   query get the same verdict (and model). *)
let prop_cache_order_insensitive fs =
  Gp_smt.Solver.check fs = Gp_smt.Solver.check (List.rev fs)

let prop_canon_idempotent fs =
  let c = Gp_smt.Cache.canon fs in
  Gp_smt.Cache.canon c = c

let prop_canon_permutation_stable fs =
  Gp_smt.Cache.canon fs = Gp_smt.Cache.canon (List.rev fs)

(* ----- decode round-trips at unaligned offsets ----- *)

(* An encoded instruction embedded at a random unaligned offset inside
   byte soup decodes back to itself with the same length — position
   independence of the decoder, which unaligned harvest relies on. *)
let prop_roundtrip_unaligned (junk, insn) =
  match Encode.insn insn with
  | exception Encode.Unencodable _ -> true  (* generator may exceed imm32 *)
  | enc ->
    let prefix = Bytes.of_string junk in
    let buf = Bytes.cat prefix enc in
    let pos = Bytes.length prefix in
    (match Decode.decode buf pos with
     | Some (insn', len) -> insn' = insn && len = Bytes.length enc
     | None -> false)

(* Decoding random bytes at every offset never raises and never reads
   past the end of the buffer. *)
let prop_decode_total_at_offsets s =
  let bytes = Bytes.of_string s in
  let n = Bytes.length bytes in
  let ok = ref true in
  for pos = 0 to n - 1 do
    match Decode.decode bytes pos with
    | Some (_, len) -> if len <= 0 || pos + len > n then ok := false
    | None -> ()
  done;
  !ok

let suite =
  [ Alcotest.test_case "differential jobs=N vs jobs=1" `Slow test_differential;
    Alcotest.test_case "pool ids identical" `Quick test_pool_ids_identical;
    Alcotest.test_case "subsumption bucket cap tallied" `Quick
      test_bucket_cap_tallied;
    Alcotest.test_case "faults invariant under jobs" `Quick
      test_faults_invariant_under_jobs;
    Gen.qtest "verdict order-insensitive" ~count:100 Gen.formulas
      prop_cache_order_insensitive;
    Gen.qtest "canon idempotent" ~count:300 Gen.formulas prop_canon_idempotent;
    Gen.qtest "canon permutation-stable" ~count:300 Gen.formulas
      prop_canon_permutation_stable;
    Gen.qtest "roundtrip at unaligned offsets" ~count:500
      QCheck2.Gen.(pair (string_size (int_range 0 15)) Gen.insn)
      prop_roundtrip_unaligned;
    Gen.qtest "decode total at every offset" ~count:200
      QCheck2.Gen.(string_size (int_range 1 48))
      prop_decode_total_at_offsets ]
