(* Cold-vs-warm and determinism tests for the solver memo in front of
   the model search (DESIGN.md §12).  Four angles:

   - cold vs warm: each cell of the 21-cell survey (seven programs x
     three obfuscation configs) runs cold, after [Survey.reset_world],
     one request at a time; then the whole survey runs cold again, the
     cells as concurrent requests on JOBS domains; once both have run,
     each cell runs again alone and the survey again concurrently, with
     every table warm (the solver memo [pool_memo], interned terms, the
     image memo).  Pools, plan counts, validated-chain sets, quarantine
     ledgers and budget accounting must be identical.
     [solver_unknowns] and the cache counters are deliberately absent
     from the fingerprint: they are cache temperature.  The warm runs
     must actually hit the memo, or the test compares two identical
     paths.  With test_plan_par's [prop_pool_key_verdict] (a memo hit
     answers what an uncached solve answers) and the memo's
     cross-domain tests there, this is the neutrality argument for the
     memo;
   - counter determinism: [solver_unknowns] counts per query answered,
     whether the memo answered it or not, so JOBS concurrent copies of
     a request bump it JOBS times as much as one request alone — and so
     do the cache hit+miss SUM, one increment per memoizable query,
     even though the hit/miss split is temperature;
   - attribution: another request's stage 3 running between this
     request's stages 1 and 2 adds nothing to this request's solver
     counters;
   - fault injection: a 10% keyed chaos sweep over stages 1-2 stays
     deterministic when JOBS copies run at once. *)

(* The same 21-cell survey test_par sweeps. *)
let diff_programs =
  [ "fibonacci"; "gcd_lcm"; "bubble_sort"; "string_reverse";
    "crc_check"; "bitcount"; "prime_sieve" ]

(* Lighter than test_par's config: this suite runs each cell FOUR times
   (cold/warm x alone/concurrent). *)
let planner_config =
  { Gp_core.Planner.max_plans = 2; node_budget = 600; time_budget = 10.;
    branch_cap = 10; goal_cap = 6; max_steps = 14 }

(* Everything in the outcome that must not depend on cache temperature
   (or on what runs beside the request).  See the header for what is
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

let compile_cell cfg pname =
  Gp_codegen.Pipeline.compile
    ~transform:(Gp_obf.Obf.transform cfg)
    (Gp_corpus.Programs.find pname).Gp_corpus.Programs.source

let run_once image =
  Gp_core.Api.run ~planner_config ~ids:(Gp_core.Gadget.local_ids ()) image
    (Gp_core.Goal.Execve "/bin/sh")

let jobs_under_test = Gen.jobs_under_test

let test_cold_vs_warm () =
  let cells =
    List.concat_map
      (fun pname ->
        List.map
          (fun (cname, cfg) -> (pname ^ "/" ^ cname, compile_cell cfg pname))
          Gp_harness.Workspace.obf_configs)
      diff_programs
  in
  let concurrent () =
    Gen.concurrently ~jobs:jobs_under_test
      (List.map (fun (_, image) () -> run_once image) cells)
  in
  let cold1 =
    List.map
      (fun (_, image) ->
        Gp_harness.Survey.reset_world ();
        fingerprint (run_once image))
      cells
  in
  Gp_harness.Survey.reset_world ();
  let coldn = List.map fingerprint (concurrent ()) in
  List.iter2
    (fun (cell, _) (c1, cn) ->
      Alcotest.(check bool) (cell ^ " concurrency invariant") true (c1 = cn))
    cells (List.combine cold1 coldn);
  let hits = ref 0 in
  let warm o =
    hits := !hits + o.Gp_core.Api.stats.Gp_core.Api.cache_hits;
    fingerprint o
  in
  let warm1 = List.map (fun (_, image) -> warm (run_once image)) cells in
  let warmn = List.map warm (concurrent ()) in
  List.iteri
    (fun i (cell, _) ->
      let c1 = List.nth cold1 i in
      Alcotest.(check bool) (cell ^ " alone warm = cold") true
        (List.nth warm1 i = c1);
      Alcotest.(check bool) (cell ^ " concurrent warm = cold") true
        (List.nth warmn i = c1))
    cells;
  Alcotest.(check bool) "warm runs hit the solver memo" true (!hits > 0)

(* ----- counter determinism under concurrency ----- *)

(* The process-wide counters a request's stats are deltas of. *)
let global_counters () =
  ( Gp_smt.Cache.hits Gp_smt.Solver.pool_memo
    + Gp_smt.Cache.misses Gp_smt.Solver.pool_memo,
    Atomic.get Gp_smt.Solver.unknowns )

let test_counters_deterministic () =
  let image = compile_cell Gp_obf.Obf.tigress "fibonacci" in
  let cold () = Gp_smt.Cache.reset Gp_smt.Solver.pool_memo in
  cold ();
  let st = (run_once image).Gp_core.Api.stats in
  (* the SPLIT is temperature, the SUM is one bump per memoizable query
     answered — deterministic whatever runs beside the request *)
  let q1, u1 =
    ( st.Gp_core.Api.cache_hits + st.Gp_core.Api.cache_misses,
      st.Gp_core.Api.solver_unknowns )
  in
  cold ();
  let q0, u0 = global_counters () in
  ignore (Gen.copies (fun () -> run_once image));
  let qn, un = global_counters () in
  let n = jobs_under_test in
  Alcotest.(check (list int)) "JOBS concurrent requests count JOBS times one"
    [ n * q1; n * u1 ] [ qn - q0; un - u0 ]

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
      st.Gp_core.Api.solver_unknowns )
  in
  Gp_harness.Survey.reset_world ();
  let sequential =
    counters (plan (fst (Gp_core.Api.stage_subsume (extract image_a))))
  in
  Alcotest.(check bool) "A queries the solver" true
    (fst sequential > 0 && snd sequential > 0);
  let analysis_b = fst (Gp_core.Api.stage_subsume (extract image_b)) in
  let ex_a = extract image_a in
  let queries_b, unknowns_b = counters (plan analysis_b) in
  Alcotest.(check bool) "B queries the solver" true
    (queries_b > 0 && unknowns_b > 0);
  let interleaved = counters (plan (fst (Gp_core.Api.stage_subsume ex_a))) in
  Alcotest.(check (pair int int)) "A's counters exclude B's" sequential
    interleaved

(* ----- fault injection ----- *)

let test_faults_deterministic_with_screening () =
  let image = compile_cell Gp_obf.Obf.tigress "fibonacci" in
  let cfg = Gp_harness.Faultsim.uniform ~seed:17 0.1 in
  Gp_harness.Faultsim.with_faults cfg (fun () ->
      let sweep () =
        let gs, st =
          Gp_core.Extract.harvest_r ~ids:(Gp_core.Gadget.local_ids ()) image
        in
        let minimal, _ = Gp_core.Subsume.minimize gs in
        ( List.map (fun (g : Gp_core.Gadget.t) -> g.Gp_core.Gadget.addr) minimal,
          st.Gp_core.Extract.h_quarantined )
      in
      let s1 = sweep () in
      List.iteri
        (fun i s ->
          Alcotest.(check bool) (Printf.sprintf "concurrent sweep %d" i) true
            (s = s1))
        (Gen.copies sweep);
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
