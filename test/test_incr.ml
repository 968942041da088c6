(* Image-memo tests (DESIGN.md §11).  Three angles:

   - cold vs warm: after [Survey.reset_world], a cold pass fills the
     in-process image memo, and a warm pass over the filled table is
     bit-identical with no summary misses — analyses across survey
     cells at jobs 1 and JOBS, and a full plan request at JOBS (the
     memo must be semantically invisible at any temperature and any
     domain count);
   - counters: hit and miss counts aggregate deterministically across
     job counts;
   - replay: a memo hit reproduces a fresh harvest exactly — under an
     injected decode-fault schedule, in the global id sequence after
     other harvests, and never from a truncated harvest or under a
     budget too small for a fresh one.

   The cold/warm and replay cases honor the JOBS environment variable
   like test_par, so `make check-incr` sweeps job counts without
   editing code. *)

let jobs_under_test =
  match Sys.getenv_opt "JOBS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

let reset = Gp_harness.Survey.reset_world

let compile prog cname =
  let entry = Gp_corpus.Programs.find prog in
  let cfg = List.assoc cname Gp_harness.Workspace.obf_configs in
  Gp_codegen.Pipeline.compile ~transform:(Gp_obf.Obf.transform cfg)
    entry.Gp_corpus.Programs.source

(* Everything in an analysis that must not depend on memo
   temperature: the pool (addresses in order), the census, and the
   quarantine ledger.  Cache hit/miss counters are deliberately absent —
   hit rate is a property of cache temperature, not of verdicts. *)
let fingerprint (a : Gp_core.Api.analysis) =
  ( List.map (fun (g : Gp_core.Gadget.t) -> g.Gp_core.Gadget.addr)
      a.Gp_core.Api.gadgets,
    a.Gp_core.Api.raw_extracted,
    a.Gp_core.Api.quarantined,
    a.Gp_core.Api.analysis_budget_hits )

(* A cold analysis: the world reset first, as a fresh process starts. *)
let analyze ~jobs image =
  reset ();
  Gp_core.Api.analyze ~jobs image

let outcome_fp (o : Gp_core.Api.outcome) =
  let s = o.Gp_core.Api.stats in
  ( List.sort compare (List.map Gp_core.Payload.chain_key o.Gp_core.Api.chains),
    s.Gp_core.Api.pool_size, s.Gp_core.Api.plans_found,
    s.Gp_core.Api.chains_validated, List.length o.Gp_core.Api.rungs )

(* ----- cold vs warm: the in-process image memo is invisible ----- *)

let diff_cells =
  [ ("fibonacci", "original"); ("fibonacci", "llvm-obf");
    ("fibonacci", "tigress"); ("crc_check", "original");
    ("crc_check", "llvm-obf"); ("crc_check", "tigress") ]

let check_cold_warm jobs () =
  List.iter
    (fun (prog, cname) ->
      let image = compile prog cname in
      let cell = prog ^ "/" ^ cname in
      let cold = analyze ~jobs image in
      Alcotest.(check int) (cell ^ ": the cold pass fills the memo") 1
        (Gp_core.Incr.size ());
      let warm = Gp_core.Api.analyze ~jobs image in
      Alcotest.(check bool)
        (cell ^ ": warm pass identical") true
        (fingerprint warm = fingerprint cold);
      Alcotest.(check int)
        (cell ^ ": warm pass has no summary misses") 0
        warm.Gp_core.Api.analysis_summary_misses;
      Alcotest.(check int)
        (cell ^ ": warm pass replays every start the cold pass executed")
        cold.Gp_core.Api.analysis_summary_misses
        warm.Gp_core.Api.analysis_summary_hits)
    diff_cells;
  reset ()

(* a full plan request: the warm one answers from the image memo and
   the solver memo the cold one filled *)
let check_cold_warm_run () =
  let jobs = jobs_under_test in
  let image = compile "bubble_sort" "llvm-obf" in
  let run () =
    Gp_core.Gadget.reset_ids ();
    Gp_core.Api.run ~jobs image (Gp_core.Goal.Execve "/bin/sh")
  in
  reset ();
  let cold = run () in
  let warm = run () in
  let warm_stats = warm.Gp_core.Api.stats in
  Alcotest.(check bool) "full run: warm request identical" true
    (outcome_fp warm = outcome_fp cold);
  Alcotest.(check int) "full run: warm request has no summary misses" 0
    warm_stats.Gp_core.Api.summary_misses;
  Alcotest.(check bool) "full run: warm request hits the solver memo" true
    (warm_stats.Gp_core.Api.cache_hits > 0);
  Alcotest.(check int) "full run: warm request searches nothing afresh" 0
    warm_stats.Gp_core.Api.cache_misses;
  reset ()

(* ----- counters: deterministic aggregation across job counts ----- *)

let check_counters () =
  let image = compile "bubble_sort" "tigress" in
  let cold1 = analyze ~jobs:1 image in
  let cold4 = analyze ~jobs:4 image in
  (* the examined-start set is scheduling-independent, so hits+misses
     must agree across job counts even though the cold split is a race *)
  Alcotest.(check int) "cold hits+misses agree across jobs"
    (cold1.Gp_core.Api.analysis_summary_hits
     + cold1.Gp_core.Api.analysis_summary_misses)
    (cold4.Gp_core.Api.analysis_summary_hits
     + cold4.Gp_core.Api.analysis_summary_misses);
  Alcotest.(check bool) "decode memo saves work" true
    (cold1.Gp_core.Api.analysis_decode_saved > 0);
  (* with the image in the table, every counter is deterministic *)
  let warm1 = Gp_core.Api.analyze ~jobs:1 image in
  let warm4 = Gp_core.Api.analyze ~jobs:4 image in
  Alcotest.(check int) "warm hits agree across jobs"
    warm1.Gp_core.Api.analysis_summary_hits
    warm4.Gp_core.Api.analysis_summary_hits;
  Alcotest.(check int) "warm misses agree across jobs"
    warm1.Gp_core.Api.analysis_summary_misses
    warm4.Gp_core.Api.analysis_summary_misses;
  Alcotest.(check int) "warm decode savings agree across jobs"
    warm1.Gp_core.Api.analysis_decode_saved
    warm4.Gp_core.Api.analysis_decode_saved;
  reset ()

(* ----- replay: a memo hit is a fresh harvest ----- *)

let harvest ?budget ~jobs image =
  Gp_core.Extract.harvest_r ?budget ~jobs ~ids:(Gp_core.Gadget.local_ids ())
    image

let same_harvest what (g0, (s0 : Gp_core.Extract.harvest_stats))
    (g1, (s1 : Gp_core.Extract.harvest_stats)) =
  Alcotest.(check bool) (what ^ ": same gadgets and ids") true (g0 = g1);
  Alcotest.(check (list (pair string int))) (what ^ ": same quarantine ledger")
    s0.Gp_core.Extract.h_quarantined s1.Gp_core.Extract.h_quarantined;
  Alcotest.(check int) (what ^ ": same starts")
    s0.Gp_core.Extract.h_starts s1.Gp_core.Extract.h_starts;
  Alcotest.(check bool) (what ^ ": same budget verdict")
    s0.Gp_core.Extract.h_budget_hit s1.Gp_core.Extract.h_budget_hit

let check_hit what (_, (s : Gp_core.Extract.harvest_stats)) =
  Alcotest.(check bool) (what ^ ": answered from the memo") true
    (s.Gp_core.Extract.h_summary_hits > 0
     && s.Gp_core.Extract.h_summary_misses = 0)

(* (a) The chaos hook decides per start on a hit exactly as on a fresh
   harvest: warm and cold harvests under one 10% decode schedule agree,
   and the cold one (which quarantined starts) is not stored. *)
let check_replay_chaos jobs () =
  let image = compile "fibonacci" "llvm-obf" in
  let faults = { Gp_harness.Faultsim.disabled with decode_rate = 0.1; seed = 7 } in
  let under_faults () =
    Gp_harness.Faultsim.with_faults faults (fun () -> harvest ~jobs image)
  in
  reset ();
  let cold = under_faults () in
  Alcotest.(check bool) "faults were injected" true
    (List.mem_assoc "decode" (snd cold).Gp_core.Extract.h_quarantined);
  Alcotest.(check int) "a harvest with injected faults is not stored" 0
    (Gp_core.Incr.size ());
  ignore (harvest ~jobs image);
  Alcotest.(check int) "a clean harvest is stored" 1 (Gp_core.Incr.size ());
  let warm = under_faults () in
  check_hit "warm" warm;
  same_harvest "warm vs cold under faults" cold warm;
  reset ()

(* (b) A hit draws one id per stored entry, unusable ones included, from
   wherever the global sequence stands. *)
let check_replay_global_ids jobs () =
  let other = compile "crc_check" "original" in
  let image = compile "fibonacci" "tigress" in
  let run () =
    ignore (Gp_core.Extract.harvest_r ~jobs other);
    Gp_core.Extract.harvest_r ~jobs image
  in
  reset ();
  let cold = run () in
  Gp_core.Gadget.reset_ids ();
  let warm = run () in
  check_hit "warm" warm;
  same_harvest "warm vs cold, global ids" cold warm;
  Alcotest.(check bool) "ids continue after the other image's" true
    (List.for_all (fun (g : Gp_core.Gadget.t) -> g.Gp_core.Gadget.id > 0) (fst warm));
  reset ()

(* (c) A fuel-truncated harvest is never stored, and a budget that could
   not examine every start runs fresh even when the image is stored. *)
let check_replay_fuel jobs () =
  let image = compile "fibonacci" "original" in
  let fuel k = Gp_core.Budget.create ~fuel:k () in
  reset ();
  let truncated = harvest ~budget:(fuel 100) ~jobs image in
  Alcotest.(check bool) "fuel cut the harvest short" true
    (snd truncated).Gp_core.Extract.h_budget_hit;
  Alcotest.(check int) "a truncated harvest is not stored" 0
    (Gp_core.Incr.size ());
  let full = harvest ~jobs image in
  let n = (snd full).Gp_core.Extract.h_starts in
  Alcotest.(check int) "a full harvest is stored" 1 (Gp_core.Incr.size ());
  let short = harvest ~budget:(fuel (n - 1)) ~jobs image in
  Alcotest.(check int) "fuel < n: no hit" 0
    (snd short).Gp_core.Extract.h_summary_hits;
  reset ();
  same_harvest "fuel < n vs cold" (harvest ~budget:(fuel (n - 1)) ~jobs image) short;
  ignore (harvest ~jobs image);
  let b = fuel n in
  let exact = harvest ~budget:b ~jobs image in
  check_hit "fuel = n" exact;
  same_harvest "fuel = n vs full" full exact;
  Alcotest.(check int) "a hit spends the fuel a fresh harvest would" 0
    (Gp_core.Budget.remaining_fuel b);
  reset ()

let suite =
  [ Alcotest.test_case "cold vs warm in-process image memo jobs=1" `Slow
      (check_cold_warm 1);
    Alcotest.test_case
      (Printf.sprintf "cold vs warm in-process image memo jobs=%d"
         jobs_under_test)
      `Slow
      (check_cold_warm jobs_under_test);
    Alcotest.test_case "cold vs warm full plan request" `Slow
      check_cold_warm_run;
    Alcotest.test_case "counters aggregate deterministically" `Slow
      check_counters;
    Alcotest.test_case "replay under injected decode faults jobs=1" `Slow
      (check_replay_chaos 1);
    Alcotest.test_case
      (Printf.sprintf "replay under injected decode faults jobs=%d"
         jobs_under_test)
      `Slow
      (check_replay_chaos jobs_under_test);
    Alcotest.test_case "replay draws global ids jobs=1" `Slow
      (check_replay_global_ids 1);
    Alcotest.test_case
      (Printf.sprintf "replay draws global ids jobs=%d" jobs_under_test)
      `Slow
      (check_replay_global_ids jobs_under_test);
    Alcotest.test_case "replay needs fuel for every start jobs=1" `Slow
      (check_replay_fuel 1);
    Alcotest.test_case
      (Printf.sprintf "replay needs fuel for every start jobs=%d"
         jobs_under_test)
      `Slow
      (check_replay_fuel jobs_under_test) ]
