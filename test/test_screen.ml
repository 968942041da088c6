(* Differential and determinism tests for the tiered solver screening
   front-end (DESIGN.md §12).  Three angles:

   - differential: the full pipeline with screening ENABLED is
     bit-identical to the pipeline with screening DISABLED, across the
     21-cell survey (seven programs x three obfuscation configs) at
     jobs 1 and at jobs 4 — pools, plan counts, validated-chain sets,
     quarantine ledgers, budget accounting.  [solver_unknowns] and the
     cache counters are deliberately absent from the fingerprint: a
     Tier A decision replaces a verdict the fall-through path could
     only reach as Unknown-after-search, so the Unknown tally is
     exactly what the ablation toggles, and hit rates are cache
     temperature.  The screen-on runs must also decide something
     abstractly, or the differential compares two identical paths;
   - counter determinism: [screen_decided] counts per query answered,
     BEFORE any memo lookup, so it must be invariant across job counts
     (the same discipline as [solver_unknowns]) — and the cache
     hit+miss SUM, one increment per memoizable query, must be
     invariant too even though the hit/miss split is temperature;
   - fault injection: a 10% keyed chaos sweep over stages 1-2 with
     screening on stays deterministic across jobs 1/2/4. *)

(* The same 21-cell survey test_par sweeps. *)
let diff_programs =
  [ "fibonacci"; "gcd_lcm"; "bubble_sort"; "string_reverse";
    "crc_check"; "bitcount"; "prime_sieve" ]

(* Lighter than test_par's config: this suite runs each cell FOUR times
   (off/on x jobs 1/4). *)
let planner_config =
  { Gp_core.Planner.max_plans = 2; node_budget = 600; time_budget = 10.;
    branch_cap = 10; goal_cap = 6; max_steps = 14 }

let with_screen enabled f =
  Gp_smt.Solver.set_screen_enabled enabled;
  Fun.protect
    ~finally:(fun () -> Gp_smt.Solver.set_screen_enabled true)
    f

(* Everything in the outcome that must not depend on whether screening
   is enabled (or on the job count).  See the header for what is
   deliberately excluded. *)
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

let run_once ~jobs image =
  Gp_core.Gadget.reset_ids ();
  Gp_core.Api.run ~planner_config ~jobs image (Gp_core.Goal.Execve "/bin/sh")

let test_differential () =
  let decided = ref 0 in
  let screened_on ~jobs image =
    with_screen true (fun () ->
        let o = run_once ~jobs image in
        if jobs = 1 then
          decided := !decided + o.Gp_core.Api.stats.Gp_core.Api.screen_decided;
        fingerprint o)
  in
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
          let cell = Printf.sprintf "%s/%s" pname cname in
          let off1 = with_screen false (fun () -> fingerprint (run_once ~jobs:1 image)) in
          let on1 = screened_on ~jobs:1 image in
          let off4 = with_screen false (fun () -> fingerprint (run_once ~jobs:4 image)) in
          let on4 = screened_on ~jobs:4 image in
          Alcotest.(check bool) (cell ^ " jobs=1 identical") true (off1 = on1);
          Alcotest.(check bool) (cell ^ " jobs=4 identical") true (off4 = on4);
          Alcotest.(check bool) (cell ^ " jobs invariant") true (on1 = on4))
        Gp_harness.Workspace.obf_configs)
    diff_programs;
  Alcotest.(check bool) "Tier A decides queries over the survey" true
    (!decided > 0)

(* ----- counter determinism under Par ----- *)

let compile_cell cfg pname =
  Gp_codegen.Pipeline.compile
    ~transform:(Gp_obf.Obf.transform cfg)
    (Gp_corpus.Programs.find pname).Gp_corpus.Programs.source

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

(* ----- fault injection with screening on ----- *)

let test_faults_deterministic_with_screening () =
  let image = compile_cell Gp_obf.Obf.tigress "fibonacci" in
  Alcotest.(check bool) "screening on" true (Gp_smt.Solver.screen_enabled ());
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
  [ Alcotest.test_case "differential screen on vs off (21 cells)" `Slow
      test_differential;
    Alcotest.test_case "screening counters deterministic" `Quick
      test_counters_deterministic;
    Alcotest.test_case "faults deterministic with screening" `Quick
      test_faults_deterministic_with_screening ]
