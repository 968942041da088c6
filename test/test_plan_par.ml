(* Stage 3–4 parallelism & hash-consing tests (DESIGN.md "Stage 3–4
   parallelism & hash-consing").  Three angles:

   - differential: the full pipeline — now including the goal-portfolio
     planner and in-worker validation — at [jobs > 1] is bit-identical
     to the sequential run across survey cells: chains, planner
     counters, validation tallies, rungs;
   - fault injection under parallel validation: the chain-keyed
     emulator fuse (plus the keyed decode/solver schedules) must hit
     the same items at jobs 1/2/4, so outcomes are invariant;
   - hash-consing properties: [Term.intern] gives physical equality
     exactly on structural equality, simplify is idempotent under
     interning, and the simplify/linearize memo is semantically
     transparent (memo-on ≡ memo-off), as is the pool-keyed solver
     memo.

   Honors the JOBS environment variable (default 4) so
   `make check-plan-par` can sweep job counts without editing code. *)

let jobs_under_test =
  match Sys.getenv_opt "JOBS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

(* ----- differential: full pipeline, planner counters included ----- *)

let diff_programs =
  [ "fibonacci"; "gcd_lcm"; "bubble_sort"; "crc_check"; "stack_machine" ]

let planner_config =
  { Gp_core.Planner.max_plans = 4; node_budget = 1200; time_budget = 10.;
    branch_cap = 10; goal_cap = 6; max_steps = 14 }

(* Everything in the outcome that must not depend on the job count —
   including the new stage 3-4 observability counters.  Cache hit/miss
   counters and wall-clock times are deliberately absent: they are
   properties of cache temperature and the host, not of verdicts. *)
type fingerprint = {
  f_extracted : int;
  f_deduped : int;
  f_pool_size : int;
  f_plans_found : int;
  f_chains : string list;            (* sorted chain keys *)
  f_chains_built : int;
  f_chains_validated : int;
  f_plan_expanded : int;
  f_plan_peak_queue : int;
  f_plan_inst_hits : int;
  f_plan_cand_hits : int;
  f_plan_discarded : int;
  f_vfaults : int;
  f_vtimeouts : int;
  f_quarantined : (string * int) list;
  f_unknowns : int;
  f_budget_hits : string list;
  f_rungs : string list;
}

let fingerprint (o : Gp_core.Api.outcome) =
  let s = o.Gp_core.Api.stats in
  { f_extracted = s.Gp_core.Api.extracted;
    f_deduped = s.Gp_core.Api.deduped;
    f_pool_size = s.Gp_core.Api.pool_size;
    f_plans_found = s.Gp_core.Api.plans_found;
    f_chains =
      List.sort compare
        (List.map Gp_core.Payload.chain_key o.Gp_core.Api.chains);
    f_chains_built = s.Gp_core.Api.chains_built;
    f_chains_validated = s.Gp_core.Api.chains_validated;
    f_plan_expanded = s.Gp_core.Api.plan_expanded;
    f_plan_peak_queue = s.Gp_core.Api.plan_peak_queue;
    f_plan_inst_hits = s.Gp_core.Api.plan_inst_hits;
    f_plan_cand_hits = s.Gp_core.Api.plan_cand_hits;
    f_plan_discarded = s.Gp_core.Api.plan_discarded;
    f_vfaults = s.Gp_core.Api.validate_faults;
    f_vtimeouts = s.Gp_core.Api.validate_timeouts;
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
          Alcotest.(check bool) (cell ^ " identical") true (seq = par))
        Gp_harness.Workspace.obf_configs)
    diff_programs

(* The portfolio must actually produce chains on an easy cell — a
   determinism test that compares two empty runs proves nothing. *)
let test_portfolio_finds_chains () =
  let image =
    Gp_codegen.Pipeline.compile
      ~transform:(Gp_obf.Obf.transform Gp_obf.Obf.ollvm)
      (Gp_corpus.Programs.find "fibonacci").Gp_corpus.Programs.source
  in
  let o = run_once ~jobs:jobs_under_test image in
  Alcotest.(check bool) "chains found" true (o.Gp_core.Api.chains <> []);
  Alcotest.(check bool)
    "quota respected" true
    (List.length o.Gp_core.Api.chains
     <= planner_config.Gp_core.Planner.max_plans);
  Alcotest.(check bool)
    "planner expanded nodes" true
    (o.Gp_core.Api.stats.Gp_core.Api.plan_expanded > 0);
  Alcotest.(check bool)
    "peak queue observed" true
    (o.Gp_core.Api.stats.Gp_core.Api.plan_peak_queue > 0)

(* ----- fault injection under parallel validation ----- *)

(* A 10% uniform sweep — decode, solver, AND the chain-keyed emulator
   fuse — at jobs 1/2/4: every schedule is keyed on the item, so the
   whole outcome (chains, tallies, rungs) is invariant. *)
let test_faults_invariant_under_jobs () =
  let image =
    Gp_codegen.Pipeline.compile
      ~transform:(Gp_obf.Obf.transform Gp_obf.Obf.tigress)
      (Gp_corpus.Programs.find "fibonacci").Gp_corpus.Programs.source
  in
  let cfg = Gp_harness.Faultsim.uniform ~seed:11 0.1 in
  Gp_harness.Faultsim.with_faults cfg (fun () ->
      let f1 = fingerprint (run_once ~jobs:1 image) in
      let f2 = fingerprint (run_once ~jobs:2 image) in
      let f4 = fingerprint (run_once ~jobs:4 image) in
      Alcotest.(check bool) "jobs=2 identical" true (f1 = f2);
      Alcotest.(check bool) "jobs=4 identical" true (f1 = f4);
      (* the sweep must actually be injecting *)
      match List.assoc_opt "decode" f1.f_quarantined with
      | Some n when n > 0 -> ()
      | _ -> Alcotest.fail "no decode faults quarantined at 10%")

(* The keyed fuse itself: for a fixed key the armed step count is a
   pure function of (seed, key) — repeated reads agree, and distinct
   keys produce an actual schedule (some fire, some don't) at 50%. *)
let test_keyed_fuse_pure () =
  let cfg = { (Gp_harness.Faultsim.uniform ~seed:7 0.5) with
              Gp_harness.Faultsim.decode_rate = 0.; solver_rate = 0. } in
  Gp_harness.Faultsim.with_faults cfg (fun () ->
      let reads k = List.init 3 (fun _ -> !Gp_emu.Machine.chaos_fuse_keyed k) in
      List.iter
        (fun k ->
          match reads k with
          | [ a; b; c ] ->
            Alcotest.(check bool) "stable per key" true (a = b && b = c)
          | _ -> assert false)
        [ 0; 1; 42; 1337; -5 ];
      let fired =
        List.filter (fun k -> !Gp_emu.Machine.chaos_fuse_keyed k <> None)
          (List.init 64 (fun i -> i))
      in
      Alcotest.(check bool) "some keys fire at 50%" true (fired <> []);
      Alcotest.(check bool) "some keys spared at 50%" true
        (List.length fired < 64))

(* ----- hash-consing properties ----- *)

(* Physical equality of interned terms is exactly structural equality. *)
let prop_intern_physeq (a, b) =
  Gp_smt.Term.intern a == Gp_smt.Term.intern b = (a = b)

(* Interning never changes the term's structure. *)
let prop_intern_identity t = Gp_smt.Term.intern t = t

(* Simplify is idempotent, and stays so through the interning table. *)
let prop_simplify_idempotent_interned t =
  let s = Gp_smt.Term.simplify t in
  Gp_smt.Term.simplify (Gp_smt.Term.intern s) = s
  && Gp_smt.Term.simplify s = s

(* The memo is semantically transparent: fresh (memo off), the miss
   that populates the table, and the hit that reads it back all agree,
   for simplify and linearize both. *)
let prop_term_memo_transparent t =
  Gp_smt.Term.reset_memo ();
  Gp_smt.Term.set_memo_enabled false;
  let s0 = Gp_smt.Term.simplify t in
  let l0 = Gp_smt.Term.linearize t in
  Gp_smt.Term.set_memo_enabled true;
  let s_miss = Gp_smt.Term.simplify t in
  let s_hit = Gp_smt.Term.simplify t in
  let l_miss = Gp_smt.Term.linearize t in
  let l_hit = Gp_smt.Term.linearize t in
  s0 = s_miss && s_miss = s_hit && l0 = l_miss && l_miss = l_hit

(* The pool-keyed solver memo answers exactly what an uncached solve
   against the same pool answers — miss and hit alike. *)
let prop_pool_key_verdict fs =
  Gp_smt.Cache.reset Gp_smt.Solver.pool_memo;
  let pool = Gp_core.Layout.pool ~salt:3 in
  let pk = Gp_core.Layout.pool_key ~salt:3 in
  let plain = Gp_smt.Solver.check ~pool fs in
  let miss = Gp_smt.Solver.check ~pool ~pool_key:pk fs in
  let hit = Gp_smt.Solver.check ~pool ~pool_key:pk fs in
  plain = miss && miss = hit

(* The counterexample QCheck once found (seed 553914340): two pointer
   atoms out of canonical order.  The unkeyed solve pinned them in the
   caller's order, the keyed memo in canonical order, so the two Sat
   models swapped the pool addresses. *)
let test_pool_key_verdict_pinned () =
  let v n = Gp_smt.Term.Var n in
  let fs = Gp_smt.Formula.[ Readable (v "v1"); Readable (v "v0") ] in
  Alcotest.(check bool) "plain = keyed miss = keyed hit" true
    (prop_pool_key_verdict fs);
  let pool = Gp_core.Layout.pool ~salt:3 in
  Alcotest.(check bool) "conjunct order does not matter" true
    (Gp_smt.Solver.check ~pool fs = Gp_smt.Solver.check ~pool (List.rev fs))

(* Distinct rotations get distinct keys (within one payload base), and
   equal salts mod the pin count collapse to one key — the key really
   is the pool's identity. *)
let test_pool_key_structure () =
  let npins = List.length (Gp_core.Layout.pin_candidates ()) in
  Alcotest.(check bool) "same rotation, same key" true
    (Gp_core.Layout.pool_key ~salt:1
     = Gp_core.Layout.pool_key ~salt:(1 + npins));
  Alcotest.(check bool) "different rotation, different key" true
    (Gp_core.Layout.pool_key ~salt:1 <> Gp_core.Layout.pool_key ~salt:2)

let suite =
  [ Alcotest.test_case "differential jobs=N vs jobs=1 (stages 3-4)" `Slow
      test_differential;
    Alcotest.test_case "portfolio finds chains" `Quick
      test_portfolio_finds_chains;
    Alcotest.test_case "faults invariant under jobs (keyed fuse)" `Slow
      test_faults_invariant_under_jobs;
    Alcotest.test_case "keyed fuse pure per key" `Quick test_keyed_fuse_pure;
    Alcotest.test_case "pool_key structure" `Quick test_pool_key_structure;
    Alcotest.test_case "pool-keyed verdict: pinned counterexample" `Quick
      test_pool_key_verdict_pinned;
    Gen.qtest "intern: physical eq iff structural eq" ~count:300
      QCheck2.Gen.(pair Gen.term Gen.term) prop_intern_physeq;
    Gen.qtest "intern preserves structure" ~count:300 Gen.term
      prop_intern_identity;
    Gen.qtest "simplify idempotent under interning" ~count:300 Gen.term
      prop_simplify_idempotent_interned;
    Gen.qtest "term memo transparent" ~count:200 Gen.term
      prop_term_memo_transparent;
    Gen.qtest "pool-keyed verdict stable" ~count:100 Gen.formulas
      prop_pool_key_verdict ]
