(* Parallel-execution determinism tests (DESIGN.md "Parallel execution
   & determinism").  Three angles:

   - differential: the full pipeline at [jobs > 1] is bit-identical to
     the sequential run across the survey programs and obfuscation
     configs — pool, plan counts, validated-chain sets, quarantine
     ledgers, budget accounting;
   - fault injection under parallelism: keyed chaos schedules hit the
     same items whatever the domain count, so no quarantined fault is
     dropped or double-counted when the harvest fans out;
   - properties of the solver's canonical form: canonicalization is
     idempotent and order-insensitive, and so are verdicts.

   The differential suite honors a JOBS environment variable (default
   4) so `make check-par` can sweep job counts without editing code. *)

open Gp_x86

let jobs_under_test =
  match Sys.getenv_opt "JOBS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

(* ----- differential: Api.run ~jobs:N ≡ ~jobs:1 ----- *)

(* Seven survey programs x three obfuscation configs = 21 cells, a
   spread of pool sizes from a few dozen gadgets to a few hundred. *)
let diff_programs =
  [ "fibonacci"; "gcd_lcm"; "bubble_sort"; "string_reverse";
    "crc_check"; "bitcount"; "prime_sieve" ]

let planner_config =
  { Gp_core.Planner.max_plans = 4; node_budget = 1200; time_budget = 10.;
    branch_cap = 10; goal_cap = 6; max_steps = 14 }

(* Everything in the outcome that must not depend on the job count.
   Cache hit/miss counters are deliberately absent: hit rate is a
   property of cache temperature, not of verdicts. *)
type fingerprint = {
  f_extracted : int;
  f_deduped : int;
  f_capped : int;
  f_pool_size : int;
  f_plans_found : int;
  f_chains : string list;            (* sorted chain keys *)
  f_quarantined : (string * int) list;
  f_unknowns : int;
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
    f_unknowns = s.Gp_core.Api.solver_unknowns;
    f_budget_hits = s.Gp_core.Api.budget_hits;
    f_rungs = List.map Gp_core.Api.rung_name o.Gp_core.Api.rungs }

let run_once ~jobs image =
  Gp_core.Gadget.reset_ids ();
  Gp_core.Api.run ~planner_config ~jobs image (Gp_core.Goal.Execve "/bin/sh")

let test_differential () =
  List.iter
    (fun pname ->
      let entry = Gp_corpus.Programs.find pname in
      List.iter
        (fun (cname, cfg) ->
          let image =
            Gp_codegen.Pipeline.compile
              ~transform:(Gp_obf.Obf.transform cfg)
              entry.Gp_corpus.Programs.source
          in
          let seq = fingerprint (run_once ~jobs:1 image) in
          let par = fingerprint (run_once ~jobs:jobs_under_test image) in
          let cell = Printf.sprintf "%s/%s" pname cname in
          Alcotest.(check bool)
            (cell ^ " identical") true (seq = par))
        Gp_harness.Workspace.obf_configs)
    diff_programs

(* The parallel pool must also carry the same ids in the same order,
   not merely the same addresses — planner determinism rests on it. *)
let test_pool_ids_identical () =
  let image =
    Gp_codegen.Pipeline.compile
      ~transform:(Gp_obf.Obf.transform Gp_obf.Obf.ollvm)
      (Gp_corpus.Programs.find "fibonacci").Gp_corpus.Programs.source
  in
  let snapshot jobs =
    Gp_core.Gadget.reset_ids ();
    let a = Gp_core.Api.analyze ~jobs image in
    List.map
      (fun (g : Gp_core.Gadget.t) -> (g.Gp_core.Gadget.id, g.Gp_core.Gadget.addr))
      a.Gp_core.Api.gadgets
  in
  let seq = snapshot 1 in
  Alcotest.(check bool) "jobs=2 ids" true (snapshot 2 = seq);
  Alcotest.(check bool) "jobs=4 ids" true (snapshot 4 = seq)

(* The stage-2 bucket cap is the only thing dropping deduped gadgets:
   its tally must be live on a cell that hits it, account exactly for
   the gap between the deduped count and the pool in the run's stats,
   and, like the pool it shapes, be the same at every job count. *)
let test_bucket_cap_tallied () =
  let image =
    Gp_codegen.Pipeline.compile
      ~transform:(Gp_obf.Obf.transform Gp_obf.Obf.ollvm)
      (Gp_corpus.Programs.find "bubble_sort").Gp_corpus.Programs.source
  in
  let tiny = { planner_config with Gp_core.Planner.node_budget = 20 } in
  let snapshot jobs =
    Gp_core.Gadget.reset_ids ();
    let a = Gp_core.Api.analyze ~jobs image in
    let st =
      (Gp_core.Api.run_with_analysis ~planner_config:tiny ~validate:false
         ~jobs a (Gp_core.Goal.Execve "/bin/sh"))
        .Gp_core.Api.stats
    in
    Alcotest.(check int)
      (Printf.sprintf "jobs=%d deduped - capped = pool" jobs)
      st.Gp_core.Api.pool_size
      (st.Gp_core.Api.deduped - st.Gp_core.Api.subsume_capped);
    ( a.Gp_core.Api.subsume_capped,
      List.map (fun (g : Gp_core.Gadget.t) -> g.Gp_core.Gadget.id)
        a.Gp_core.Api.gadgets )
  in
  let capped1, pool1 = snapshot 1 in
  let capped4, pool4 = snapshot 4 in
  Alcotest.(check bool) "cap hit" true (capped1 > 0);
  Alcotest.(check int) "jobs=4 capped" capped1 capped4;
  Alcotest.(check (list int)) "jobs=4 pool" pool1 pool4

(* ----- fault injection under parallelism ----- *)

(* A 10% uniform fault sweep: the keyed schedules must hit exactly the
   same starts/queries at every job count, so the quarantine ledger and
   the surviving pool are invariant — nothing dropped, nothing counted
   twice when chunks fan out. *)
let test_faults_invariant_under_jobs () =
  let image =
    Gp_codegen.Pipeline.compile
      ~transform:(Gp_obf.Obf.transform Gp_obf.Obf.tigress)
      (Gp_corpus.Programs.find "fibonacci").Gp_corpus.Programs.source
  in
  let cfg = Gp_harness.Faultsim.uniform ~seed:11 0.1 in
  Gp_harness.Faultsim.with_faults cfg (fun () ->
      let sweep jobs =
        Gp_core.Gadget.reset_ids ();
        let gs, st = Gp_core.Extract.harvest_r ~jobs image in
        ( List.map (fun (g : Gp_core.Gadget.t) -> g.Gp_core.Gadget.addr) gs,
          st.Gp_core.Extract.h_quarantined )
      in
      let addrs1, tally1 = sweep 1 in
      let addrs2, tally2 = sweep 2 in
      let addrs4, tally4 = sweep 4 in
      Alcotest.(check (list (pair string int))) "tally jobs=2" tally1 tally2;
      Alcotest.(check (list (pair string int))) "tally jobs=4" tally1 tally4;
      Alcotest.(check bool) "pool jobs=2" true (addrs1 = addrs2);
      Alcotest.(check bool) "pool jobs=4" true (addrs1 = addrs4);
      (* the sweep must actually be injecting: at 10% over thousands of
         start offsets, zero decode quarantines means a dead hook *)
      match List.assoc_opt "decode" tally1 with
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
