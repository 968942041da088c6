(* Image-memo tests (DESIGN.md §11).  Three angles:

   - cold vs warm: after [Survey.reset_world], a cold pass fills the
     in-process image memo, and a warm pass over the filled table is
     bit-identical with no summary misses — analyses across survey
     cells run as concurrent requests on 1 and JOBS domains, and a full
     plan request repeated on JOBS domains at once (the memo must be
     semantically invisible at any temperature, whatever runs beside a
     request);
   - counters: hit and miss counts agree between a request run alone
     and copies of it racing on a cold table;
   - replay: a memo hit reproduces a fresh harvest exactly — under an
     injected decode-fault schedule, in the global id sequence after
     other harvests, and never from a truncated harvest or under a
     budget too small for a fresh one — with the harvests run as
     concurrent copies on 1 and JOBS domains.

   JOBS (default 4) sizes the pool, so `make check-incr` sweeps it
   without editing code. *)

let jobs_under_test = Gen.jobs_under_test

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

let analyze image = Gp_core.Api.analyze ~ids:(Gp_core.Gadget.local_ids ()) image

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

(* Every cell's cold analysis runs at once on [jobs] domains, then
   every warm one. *)
let check_cold_warm jobs () =
  let images = List.map (fun (prog, cname) -> compile prog cname) diff_cells in
  let pass () =
    Gen.concurrently ~jobs (List.map (fun image () -> analyze image) images)
  in
  reset ();
  let cold = pass () in
  Alcotest.(check int) "the cold pass fills the memo, one entry per image"
    (List.length diff_cells) (Gp_core.Incr.size ());
  let warm = pass () in
  List.iter2
    (fun (prog, cname) (cold, warm) ->
      let cell = prog ^ "/" ^ cname in
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
    diff_cells (List.combine cold warm);
  reset ()

(* a full plan request: JOBS warm copies at once answer from the image
   memo and the solver memo the cold one filled *)
let check_cold_warm_run () =
  let image = compile "bubble_sort" "llvm-obf" in
  let run () =
    Gp_core.Api.run ~ids:(Gp_core.Gadget.local_ids ()) image
      (Gp_core.Goal.Execve "/bin/sh")
  in
  reset ();
  let cold = run () in
  List.iter
    (fun warm ->
      let warm_stats = warm.Gp_core.Api.stats in
      Alcotest.(check bool) "full run: warm request identical" true
        (outcome_fp warm = outcome_fp cold);
      Alcotest.(check int) "full run: warm request has no summary misses" 0
        warm_stats.Gp_core.Api.summary_misses;
      Alcotest.(check bool) "full run: warm request hits the solver memo" true
        (warm_stats.Gp_core.Api.cache_hits > 0);
      Alcotest.(check int) "full run: warm request searches nothing afresh" 0
        warm_stats.Gp_core.Api.cache_misses)
    (Gen.copies run);
  reset ()

(* ----- counters: deterministic across concurrent requests ----- *)

let check_counters () =
  let image = compile "bubble_sort" "tigress" in
  let sum (a : Gp_core.Api.analysis) =
    a.Gp_core.Api.analysis_summary_hits + a.Gp_core.Api.analysis_summary_misses
  in
  reset ();
  let cold1 = analyze image in
  Alcotest.(check bool) "decode memo saves work" true
    (cold1.Gp_core.Api.analysis_decode_saved > 0);
  (* the examined-start set is scheduling-independent, so hits+misses
     agree even though which racing copy misses is a race *)
  reset ();
  List.iter
    (fun a ->
      Alcotest.(check int) "cold hits+misses agree across racing copies"
        (sum cold1) (sum a))
    (Gen.copies (fun () -> analyze image));
  (* with the image in the table, every counter is deterministic *)
  let warm1 = analyze image in
  List.iter
    (fun warm ->
      Alcotest.(check int) "warm hits agree across concurrent requests"
        warm1.Gp_core.Api.analysis_summary_hits
        warm.Gp_core.Api.analysis_summary_hits;
      Alcotest.(check int) "warm misses agree across concurrent requests"
        warm1.Gp_core.Api.analysis_summary_misses
        warm.Gp_core.Api.analysis_summary_misses;
      Alcotest.(check int) "warm decode savings agree across concurrent requests"
        warm1.Gp_core.Api.analysis_decode_saved
        warm.Gp_core.Api.analysis_decode_saved)
    (Gen.copies (fun () -> analyze image));
  reset ()

(* ----- replay: a memo hit is a fresh harvest ----- *)

(* [jobs] copies of one harvest, each under its own [fuel] budget, as
   concurrent requests: they must agree, and the first is returned with
   the fuel its budget has left. *)
let harvest ?fuel ~jobs image =
  let one () =
    let budget = Option.map (fun k -> Gp_core.Budget.create ~fuel:k ()) fuel in
    let r =
      Gp_core.Extract.harvest_r ?budget ~ids:(Gp_core.Gadget.local_ids ()) image
    in
    (r, Option.map Gp_core.Budget.remaining_fuel budget)
  in
  match Gen.copies ~jobs ~n:jobs one with
  | first :: rest ->
    List.iter
      (fun r ->
        Alcotest.(check bool) "concurrent copies agree" true
          (fst r = fst first && snd r = snd first))
      rest;
    first
  | [] -> assert false

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
    fst (Gp_harness.Faultsim.with_faults faults (fun () -> harvest ~jobs image))
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
   wherever the global sequence stands.  The global sequence is one
   counter, so these harvests run alone; the memo they replay was
   filled by [jobs] racing copies of each cold harvest. *)
let check_replay_global_ids jobs () =
  let other = compile "crc_check" "original" in
  let image = compile "fibonacci" "tigress" in
  let run () =
    ignore (Gp_core.Extract.harvest_r other);
    Gp_core.Extract.harvest_r image
  in
  reset ();
  let cold = run () in
  reset ();
  ignore (harvest ~jobs other);
  ignore (harvest ~jobs image);
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
  reset ();
  let truncated, _ = harvest ~fuel:100 ~jobs image in
  Alcotest.(check bool) "fuel cut the harvest short" true
    (snd truncated).Gp_core.Extract.h_budget_hit;
  Alcotest.(check int) "a truncated harvest is not stored" 0
    (Gp_core.Incr.size ());
  let full, _ = harvest ~jobs image in
  let n = (snd full).Gp_core.Extract.h_starts in
  Alcotest.(check int) "a full harvest is stored" 1 (Gp_core.Incr.size ());
  let short, _ = harvest ~fuel:(n - 1) ~jobs image in
  Alcotest.(check int) "fuel < n: no hit" 0
    (snd short).Gp_core.Extract.h_summary_hits;
  reset ();
  same_harvest "fuel < n vs cold" (fst (harvest ~fuel:(n - 1) ~jobs image)) short;
  ignore (harvest ~jobs image);
  let exact, left = harvest ~fuel:n ~jobs image in
  check_hit "fuel = n" exact;
  same_harvest "fuel = n vs full" full exact;
  Alcotest.(check (option int)) "a hit spends the fuel a fresh harvest would"
    (Some 0) left;
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
