(* Cold-vs-warm and determinism tests for the solver screening
   front-end (DESIGN.md §12).  Four angles:

   - cold vs warm: each cell of the 21-cell survey (seven programs x
     three obfuscation configs) runs cold, after [Survey.reset_world],
     at jobs 1 and at jobs 4; once all 21 have run, each runs again at
     jobs 1 and 4 with every table warm (the solver memo [pool_memo],
     the abstract-value memo, interned terms, the image memo).
     Pools, plan counts, validated-chain sets, quarantine ledgers and
     budget accounting must be identical.  [solver_unknowns] and the
     cache counters are deliberately absent from the fingerprint: they
     are cache temperature.  The warm runs must actually hit the memo,
     and Tier A must decide something somewhere in the survey, or the
     test compares two identical paths.  With test_smt's
     [prop_absdom_formula_agrees] (Tier A displaces only Unknown) and
     test_plan_par's [prop_pool_key_verdict] (a memo hit answers what an
     uncached solve answers) and the memo's cross-domain tests there,
     this is the neutrality argument for both
     tiers;
   - counter determinism: [screen_decided] counts per query answered,
     BEFORE the memo lookup, so it must be invariant across job counts
     (the same discipline as [solver_unknowns]) — and the cache
     hit+miss SUM, one increment per memoizable query, must be
     invariant too even though the hit/miss split is temperature;
   - attribution: another request's stage 3 running between this
     request's stages 1 and 2 adds nothing to this request's solver
     counters;
   - fault injection: a 10% keyed chaos sweep over stages 1-2 stays
     deterministic across jobs 1/2/4. *)

(* The same 21-cell survey test_par sweeps. *)
let diff_programs =
  [ "fibonacci"; "gcd_lcm"; "bubble_sort"; "string_reverse";
    "crc_check"; "bitcount"; "prime_sieve" ]

(* Lighter than test_par's config: this suite runs each cell FOUR times
   (cold/warm x jobs 1/4). *)
let planner_config =
  { Gp_core.Planner.max_plans = 2; node_budget = 600; time_budget = 10.;
    branch_cap = 10; goal_cap = 6; max_steps = 14 }

(* Everything in the outcome that must not depend on cache temperature
   (or on the job count).  See the header for what is deliberately
   excluded. *)
type fingerprint = {
  f_extracted : int;
  f_deduped : int;
  f_pool_size : int;
  f_plans_found : int;
  f_chains : string list;            (* sorted chain keys *)
  f_quarantined : (string * int) list;
  f_budget_hits : string list;
  f_plan_counters : int * int * int * int * int;
  f_validate : int * int;
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
    f_quarantined = s.Gp_core.Api.quarantined;
    f_budget_hits = s.Gp_core.Api.budget_hits;
    f_plan_counters =
      ( s.Gp_core.Api.plan_expanded, s.Gp_core.Api.plan_peak_queue,
        s.Gp_core.Api.plan_inst_hits, s.Gp_core.Api.plan_cand_hits,
        s.Gp_core.Api.plan_discarded );
    f_validate = (s.Gp_core.Api.validate_faults, s.Gp_core.Api.validate_timeouts);
    f_rungs = List.map Gp_core.Api.rung_name o.Gp_core.Api.rungs }

let compile_cell cfg pname =
  Gp_codegen.Pipeline.compile
    ~transform:(Gp_obf.Obf.transform cfg)
    (Gp_corpus.Programs.find pname).Gp_corpus.Programs.source

let run_once ~jobs image =
  Gp_core.Gadget.reset_ids ();
  Gp_core.Api.run ~planner_config ~jobs image (Gp_core.Goal.Execve "/bin/sh")

let test_cold_vs_warm () =
  let cells =
    List.concat_map
      (fun pname ->
        List.map
          (fun (cname, cfg) -> (pname ^ "/" ^ cname, compile_cell cfg pname))
          Gp_harness.Workspace.obf_configs)
      diff_programs
  in
  let decided = ref 0 in
  let cold =
    List.map
      (fun (cell, image) ->
        let cold_run jobs =
          Gp_harness.Survey.reset_world ();
          let o = run_once ~jobs image in
          if jobs = 1 then
            decided := !decided + o.Gp_core.Api.stats.Gp_core.Api.screen_decided;
          fingerprint o
        in
        let c1 = cold_run 1 in
        let c4 = cold_run 4 in
        Alcotest.(check bool) (cell ^ " jobs invariant") true (c1 = c4);
        (c1, c4))
      cells
  in
  let hits = ref 0 in
  let warm_run jobs image =
    let o = run_once ~jobs image in
    hits := !hits + o.Gp_core.Api.stats.Gp_core.Api.cache_hits;
    fingerprint o
  in
  List.iter2
    (fun (cell, image) (c1, c4) ->
      Alcotest.(check bool) (cell ^ " jobs=1 warm = cold") true
        (warm_run 1 image = c1);
      Alcotest.(check bool) (cell ^ " jobs=4 warm = cold") true
        (warm_run 4 image = c4))
    cells cold;
  Alcotest.(check bool) "Tier A decides queries over the survey" true
    (!decided > 0);
  Alcotest.(check bool) "warm runs hit the solver memo" true (!hits > 0)

(* ----- counter determinism under Par ----- *)

let test_counters_deterministic () =
  let image = compile_cell Gp_obf.Obf.tigress "fibonacci" in
  let goal = Gp_core.Goal.Execve "/bin/sh" in
  let snapshot jobs =
    Gp_core.Gadget.reset_ids ();
    Gp_smt.Solver.reset_screen ();
    Gp_smt.Cache.reset Gp_smt.Solver.pool_memo;
    let o = Gp_core.Api.run ~planner_config ~jobs image goal in
    let st = o.Gp_core.Api.stats in
    ( st.Gp_core.Api.screen_decided,
      (* the SPLIT is temperature, the SUM is one bump per memoizable
         query answered — deterministic at any job count *)
      st.Gp_core.Api.cache_hits + st.Gp_core.Api.cache_misses,
      st.Gp_core.Api.solver_unknowns )
  in
  let s1 = snapshot 1 in
  Alcotest.(check bool) "jobs=2 counters" true (snapshot 2 = s1);
  Alcotest.(check bool) "jobs=4 counters" true (snapshot 4 = s1)

(* ----- attribution of stage counters ----- *)

(* Stages 1-2 make no solver query, so a request's solver counters are
   its stage-3 traffic alone — even when another request's stage 3
   runs between its stages 1 and 2, as the daemon's pool and the
   corpus scheduler allow. *)
let test_stage_counters_attributed () =
  let goal = Gp_core.Goal.Execve "/bin/sh" in
  let image_a = compile_cell Gp_obf.Obf.ollvm "fibonacci" in
  let image_b = compile_cell Gp_obf.Obf.ollvm "gcd_lcm" in
  let extract image =
    Gp_core.Api.stage_extract ~ids:(Gp_core.Gadget.local_ids ()) image
  in
  let plan a =
    Gp_core.Api.stage_finalize
      (Gp_core.Api.stage_plan ~planner_config a goal)
  in
  let counters (o : Gp_core.Api.outcome) =
    let st = o.Gp_core.Api.stats in
    ( st.Gp_core.Api.cache_hits + st.Gp_core.Api.cache_misses,
      st.Gp_core.Api.screen_decided )
  in
  Gp_harness.Survey.reset_world ();
  let sequential =
    counters (plan (fst (Gp_core.Api.stage_subsume (extract image_a))))
  in
  Alcotest.(check bool) "A queries the solver" true
    (fst sequential > 0 && snd sequential > 0);
  let analysis_b = fst (Gp_core.Api.stage_subsume (extract image_b)) in
  let ex_a = extract image_a in
  let queries_b, decided_b = counters (plan analysis_b) in
  Alcotest.(check bool) "B queries the solver" true
    (queries_b > 0 && decided_b > 0);
  let interleaved = counters (plan (fst (Gp_core.Api.stage_subsume ex_a))) in
  Alcotest.(check (pair int int)) "A's counters exclude B's" sequential
    interleaved

(* ----- fault injection ----- *)

let test_faults_deterministic_with_screening () =
  let image = compile_cell Gp_obf.Obf.tigress "fibonacci" in
  let cfg = Gp_harness.Faultsim.uniform ~seed:17 0.1 in
  Gp_harness.Faultsim.with_faults cfg (fun () ->
      let sweep jobs =
        Gp_core.Gadget.reset_ids ();
        Gp_smt.Solver.reset_screen ();
        let gs, st = Gp_core.Extract.harvest_r ~jobs image in
        let minimal, _ = Gp_core.Subsume.minimize gs in
        ( List.map (fun (g : Gp_core.Gadget.t) -> g.Gp_core.Gadget.addr) minimal,
          st.Gp_core.Extract.h_quarantined )
      in
      let s1 = sweep 1 in
      Alcotest.(check bool) "jobs=2 sweep" true (sweep 2 = s1);
      Alcotest.(check bool) "jobs=4 sweep" true (sweep 4 = s1);
      let _, tally = s1 in
      (* the sweep must actually be injecting *)
      match List.assoc_opt "decode" tally with
      | Some n when n > 0 -> ()
      | _ -> Alcotest.fail "no decode faults quarantined at 10%")

let suite =
  [ Alcotest.test_case "differential cold vs warm (21 cells)" `Slow
      test_cold_vs_warm;
    Alcotest.test_case "screening counters deterministic" `Quick
      test_counters_deterministic;
    Alcotest.test_case "stage counters exclude other requests" `Quick
      test_stage_counters_attributed;
    Alcotest.test_case "faults deterministic with screening" `Quick
      test_faults_deterministic_with_screening ]
