(* Semantic fingerprint index tests (DESIGN.md §17).  Four angles:

   - qcheck soundness: each lane of [Fpeval.eval] equals a plain
     [Term.eval] under that lane's screen-point valuation (the batched
     walk is just an amortization), [closed] is exactly
     variable-freeness, the formula bitmask agrees with [Formula.eval]
     lane by lane — and lane-0/1 inequality implies
     [Solver.prove_equal] returns false whichever way the fp and
     screening toggles point (those lanes ARE the prover's
     deterministic trials 0/1, which is why only they may refute
     equality);
   - differential: the full pipeline with fingerprints ENABLED is
     bit-identical to --no-fp across the 21-cell survey at jobs 1 and
     4 — pools, chains, quarantine ledgers, budget accounting.  The
     fp tallies themselves are excluded (they are what the ablation
     toggles), cache/screen counters as in test_screen;
   - counter discipline: [fp_refuted] counts per probe answered, so it
     is invariant across job counts; the store hit/miss SPLIT is
     temperature (racing domains may duplicate a compute) but the SUM
     is one bump per candidate fingerprinted and must be invariant.
     A 10% keyed fault sweep stays deterministic across jobs 1/2/4
     with the index on, refutation tally included;
   - persistence: the fp codec round-trips, and a warm run answers
     every fingerprint from the "fingerprints" store section (hits > 0,
     misses = 0, verdicts unchanged).  Older store schemas, the
     pre-fingerprint layout included, are covered by test_incr's
     demotion test. *)

let jobs_under_test =
  match Sys.getenv_opt "JOBS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

module Fpeval = Gp_smt.Fpeval

let compile prog cname =
  let entry = Gp_corpus.Programs.find prog in
  let cfg = List.assoc cname Gp_harness.Workspace.obf_configs in
  Gp_codegen.Pipeline.compile ~transform:(Gp_obf.Obf.transform cfg)
    entry.Gp_corpus.Programs.source

let with_fp enabled f =
  Fpeval.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Fpeval.set_enabled true) f

let with_screen enabled f =
  Gp_smt.Solver.set_screen_enabled enabled;
  Fun.protect
    ~finally:(fun () -> Gp_smt.Solver.set_screen_enabled true)
    f

(* ----- qcheck soundness ----- *)

let rec has_var (t : Gp_smt.Term.t) =
  match t with
  | Gp_smt.Term.Var _ -> true
  | Gp_smt.Term.Const _ -> false
  | Gp_smt.Term.Add (a, b) | Gp_smt.Term.Sub (a, b) | Gp_smt.Term.Mul (a, b)
  | Gp_smt.Term.And (a, b) | Gp_smt.Term.Or (a, b) | Gp_smt.Term.Xor (a, b)
  | Gp_smt.Term.Shl (a, b) | Gp_smt.Term.Shr (a, b) | Gp_smt.Term.Sar (a, b)
    -> has_var a || has_var b
  | Gp_smt.Term.Neg a | Gp_smt.Term.Not a -> has_var a

let qcheck_lanes_sound =
  Gen.qtest "Fpeval lane k = Term.eval under screen point k" ~count:500
    Gen.term
    (fun t ->
      let l = Fpeval.eval t in
      l.Fpeval.closed = not (has_var t)
      && Array.length l.Fpeval.lv = Fpeval.nlanes
      && Array.for_all Fun.id
           (Array.mapi
              (fun k pt ->
                l.Fpeval.lv.(k) = Gp_smt.Term.eval (Fpeval.point_model pt) t)
              Fpeval.points))

let qcheck_formula_mask_sound =
  let all _ = true in
  Gen.qtest "formula_mask bit k = Formula.eval under point k" ~count:500
    Gen.formula
    (fun f ->
      let m = Fpeval.formula_mask ~readable:all ~writable:all f in
      m land lnot Fpeval.full_mask = 0
      && Array.for_all Fun.id
           (Array.mapi
              (fun k pt ->
                (m lsr k) land 1
                = (if Gp_smt.Formula.eval ~readable:all ~writable:all
                        (Fpeval.point_model pt) f
                   then 1 else 0))
              Fpeval.points))

let qcheck_conj_mask_sound =
  let all _ = true in
  Gen.qtest "conj_mask = AND of formula_masks" ~count:300 Gen.formulas
    (fun fs ->
      Fpeval.conj_mask ~readable:all ~writable:all fs
      = List.fold_left
          (fun acc f ->
            acc land Fpeval.formula_mask ~readable:all ~writable:all f)
          Fpeval.full_mask fs)

(* Lanes 0/1 are the valuations the real prover tries deterministically
   first, so disagreement there refutes equality on every code path —
   with the index on (the O(1) pre-check), with it off but screening on
   (Tier B), and with both off (the prover's own trials). *)
let qcheck_fp_neq_refutes =
  Gen.qtest "lane-0/1 inequality implies prove_equal = false" ~count:300
    QCheck2.Gen.(pair Gen.term Gen.term)
    (fun (a, b) ->
      let la = (Fpeval.eval a).Fpeval.lv and lb = (Fpeval.eval b).Fpeval.lv in
      la.(0) = lb.(0) && la.(1) = lb.(1)
      || (not (with_fp true (fun () -> Gp_smt.Solver.prove_equal a b)))
         && (not (with_fp false (fun () -> Gp_smt.Solver.prove_equal a b)))
         && not
              (with_fp false (fun () ->
                   with_screen false (fun () ->
                       Gp_smt.Solver.prove_equal a b))))

(* ----- differential: fp on vs --no-fp, 21 cells, jobs 1 and 4 ----- *)

let diff_programs =
  [ "fibonacci"; "gcd_lcm"; "bubble_sort"; "string_reverse";
    "crc_check"; "bitcount"; "prime_sieve" ]

let planner_config =
  { Gp_core.Planner.max_plans = 2; node_budget = 600; time_budget = 10.;
    branch_cap = 10; goal_cap = 6; max_steps = 14 }

(* Everything in the outcome that must not depend on the toggle or the
   job count; fp/screen/cache tallies deliberately absent (header). *)
type fingerprint = {
  f_extracted : int;
  f_deduped : int;
  f_pool_size : int;
  f_plans_found : int;
  f_chains : string list;
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
          let off1 = with_fp false (fun () -> fingerprint (run_once ~jobs:1 image)) in
          let on1 = with_fp true (fun () -> fingerprint (run_once ~jobs:1 image)) in
          let off4 = with_fp false (fun () -> fingerprint (run_once ~jobs:4 image)) in
          let on4 = with_fp true (fun () -> fingerprint (run_once ~jobs:4 image)) in
          Alcotest.(check bool) (cell ^ " jobs=1 identical") true (off1 = on1);
          Alcotest.(check bool) (cell ^ " jobs=4 identical") true (off4 = on4);
          Alcotest.(check bool) (cell ^ " jobs invariant") true (on1 = on4))
        Gp_harness.Workspace.obf_configs)
    diff_programs

(* ----- counter discipline under Par ----- *)

let test_counters_deterministic () =
  let image = compile "fibonacci" "tigress" in
  let goal = Gp_core.Goal.Execve "/bin/sh" in
  let snapshot jobs =
    Gp_harness.Experiments.reset_world ();
    let o = Gp_core.Api.run ~planner_config ~jobs image goal in
    let st = o.Gp_core.Api.stats in
    ( st.Gp_core.Api.fp_refuted,
      (* the hit/miss SPLIT is temperature (first-write races), the SUM
         is one bump per candidate fingerprinted — deterministic *)
      st.Gp_core.Api.fp_hits + st.Gp_core.Api.fp_misses )
  in
  let s1 = snapshot 1 in
  Alcotest.(check bool) "jobs=2 fp counters" true (snapshot 2 = s1);
  Alcotest.(check bool) "jobs=4 fp counters" true (snapshot 4 = s1);
  let refuted, traffic = s1 in
  Alcotest.(check bool) "the index fires on an obfuscated cell" true
    (refuted > 0 && traffic > 0)

(* ----- fault injection with the index on ----- *)

let test_faults_deterministic_with_fp () =
  let image = compile "fibonacci" "tigress" in
  Alcotest.(check bool) "index on" true (Fpeval.enabled ());
  let cfg = Gp_harness.Faultsim.uniform ~seed:17 0.1 in
  Gp_harness.Faultsim.with_faults cfg (fun () ->
      let sweep jobs =
        Gp_harness.Experiments.reset_world ();
        let gs, st = Gp_core.Extract.harvest_r ~jobs image in
        let minimal, _ = Gp_core.Subsume.minimize ~jobs gs in
        let h, m = Gp_core.Incr.fp_store_stats () in
        ( List.map (fun (g : Gp_core.Gadget.t) -> g.Gp_core.Gadget.addr) minimal,
          st.Gp_core.Extract.h_quarantined,
          Fpeval.refutations (),
          h + m )
      in
      let s1 = sweep 1 in
      Alcotest.(check bool) "jobs=2 sweep" true (sweep 2 = s1);
      Alcotest.(check bool) "jobs=4 sweep" true (sweep 4 = s1);
      (* the same sweep with the index off keeps the same survivors *)
      let addrs_off =
        with_fp false (fun () ->
            let _, _, _, _ = sweep 1 in
            ());
        with_fp false (fun () ->
            Gp_harness.Experiments.reset_world ();
            let gs, _ = Gp_core.Extract.harvest_r ~jobs:1 image in
            let minimal, _ = Gp_core.Subsume.minimize ~jobs:1 gs in
            List.map
              (fun (g : Gp_core.Gadget.t) -> g.Gp_core.Gadget.addr)
              minimal)
      in
      let addrs_on, tally, _, _ = s1 in
      Alcotest.(check bool) "off/on identical under faults" true
        (addrs_off = addrs_on);
      (* the sweep must actually be injecting *)
      match List.assoc_opt "decode" tally with
      | Some n when n > 0 -> ()
      | _ -> Alcotest.fail "no decode faults quarantined at 10%")

(* ----- persistence ----- *)

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "gp-fp-test-%d-%d" (Unix.getpid ()) !n)
    in
    Gp_harness.Experiments.rm_rf d;
    d

let qcheck_fp_codec_roundtrip =
  Gen.qtest "fp codec round-trips" ~count:300
    QCheck2.Gen.(
      pair
        (string_size ~gen:(char_range '\000' '\255') (int_range 0 80))
        (int_range 0 Fpeval.full_mask))
    (fun (eq, pre) ->
      let fp = { Gp_core.Gadget.fp_eq = eq; fp_pre = pre } in
      let b = Buffer.create 32 in
      Gp_core.Gadget.put_fp b fp;
      Gp_core.Gadget.get_fp (Buffer.contents b) (ref 0) = fp)

let analysis_fingerprint (a : Gp_core.Api.analysis) =
  ( List.map (fun (g : Gp_core.Gadget.t) -> g.Gp_core.Gadget.addr)
      a.Gp_core.Api.gadgets,
    a.Gp_core.Api.raw_extracted,
    List.filter (fun (label, _) -> label <> "store") a.Gp_core.Api.quarantined )

let analyze ?cache_dir image =
  Gp_harness.Experiments.reset_world ();
  Gp_core.Api.analyze ~jobs:jobs_under_test ?cache_dir image

let test_store_roundtrip () =
  let image = compile "fibonacci" "llvm-obf" in
  let reference = analyze image in
  (* even without a store, content-duplicate gadgets share one
     fingerprint through the in-run table — hits can be nonzero cold *)
  let rh, rm, _ = reference.Gp_core.Api.analysis_fp in
  Alcotest.(check bool) "no store: fingerprints computed" true (rm > 0);
  let dir = tmp_dir () in
  let cold = analyze ~cache_dir:dir image in
  Alcotest.(check bool) "cold run identical" true
    (analysis_fingerprint cold = analysis_fingerprint reference);
  let warm = analyze ~cache_dir:dir image in
  let wh, wm, _ = warm.Gp_core.Api.analysis_fp in
  Alcotest.(check bool) "warm run identical" true
    (analysis_fingerprint warm = analysis_fingerprint reference);
  Alcotest.(check int) "warm run misses nothing" 0 wm;
  (* total calls are one per candidate fingerprinted — deterministic —
     and a warm run answers every one from the table *)
  Alcotest.(check int) "warm run answers from the fp section" (rh + rm) wh;
  (* refutation tallies agree at every temperature *)
  let _, _, rr = reference.Gp_core.Api.analysis_fp in
  let _, _, wr = warm.Gp_core.Api.analysis_fp in
  Alcotest.(check int) "refutations temperature-invariant" rr wr;
  Gp_harness.Experiments.rm_rf dir

let suite =
  [ qcheck_lanes_sound;
    qcheck_formula_mask_sound;
    qcheck_conj_mask_sound;
    qcheck_fp_neq_refutes;
    Alcotest.test_case "differential fp on vs off (21 cells)" `Slow
      test_differential;
    Alcotest.test_case "fp counters deterministic" `Quick
      test_counters_deterministic;
    Alcotest.test_case "faults deterministic with the index" `Quick
      test_faults_deterministic_with_fp;
    qcheck_fp_codec_roundtrip;
    Alcotest.test_case "fp section round-trips through the store" `Quick
      test_store_roundtrip ]
