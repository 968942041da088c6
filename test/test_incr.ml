(* Incremental-store tests (DESIGN.md §11).  Three angles:

   - differential: `cache_dir:Some` — cold write, then warm read — is
     bit-identical to `cache_dir:None` across survey cells, at jobs 1
     and 4 (the store must be semantically invisible at any temperature
     and any domain count);
   - serialization properties: term/summary encodings round-trip
     byte-stably, and interned vs non-interned copies of a term
     serialize identically;
   - resilience: a corrupted, truncated, or stale-versioned store file
     demotes the run to cold — correct results, [store_stale] counted,
     a "store" entry in the quarantine ledger, never an exception.

   The differential cases honor the JOBS environment variable like
   test_par, so `make check-incr` sweeps job counts without editing
   code. *)

let jobs_under_test =
  match Sys.getenv_opt "JOBS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

let reset = Gp_harness.Experiments.reset_world

let compile prog cname =
  let entry = Gp_corpus.Programs.find prog in
  let cfg = List.assoc cname Gp_harness.Workspace.obf_configs in
  Gp_codegen.Pipeline.compile ~transform:(Gp_obf.Obf.transform cfg)
    entry.Gp_corpus.Programs.source

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "gp-incr-test-%d-%d" (Unix.getpid ()) !n)
    in
    Gp_harness.Experiments.rm_rf d;
    d

(* Everything in an analysis that must not depend on the store: the
   pool (addresses in order), the census, and the quarantine ledger.
   Cache hit/miss counters are deliberately absent — hit rate is a
   property of cache temperature, not of verdicts. *)
let fingerprint (a : Gp_core.Api.analysis) =
  ( List.map (fun (g : Gp_core.Gadget.t) -> g.Gp_core.Gadget.addr)
      a.Gp_core.Api.gadgets,
    a.Gp_core.Api.raw_extracted,
    List.filter
      (fun (label, _) -> label <> "store")
      a.Gp_core.Api.quarantined,
    a.Gp_core.Api.analysis_budget_hits )

let analyze ?cache_dir ~jobs image =
  reset ();
  Gp_core.Api.analyze ~jobs ?cache_dir image

(* ----- differential: cache_dir:Some == cache_dir:None ----- *)

let diff_cells =
  [ ("fibonacci", "original"); ("fibonacci", "llvm-obf");
    ("fibonacci", "tigress"); ("crc_check", "original");
    ("crc_check", "llvm-obf"); ("crc_check", "tigress") ]

let check_differential jobs () =
  List.iter
    (fun (prog, cname) ->
      let image = compile prog cname in
      let cell = prog ^ "/" ^ cname in
      let reference = fingerprint (analyze ~jobs image) in
      let dir = tmp_dir () in
      let cold = analyze ~cache_dir:dir ~jobs image in
      Alcotest.(check bool)
        (cell ^ ": cold write identical") true
        (fingerprint cold = reference);
      Alcotest.(check int)
        (cell ^ ": cold run loads nothing") 0
        cold.Gp_core.Api.analysis_store_loaded;
      let warm = analyze ~cache_dir:dir ~jobs image in
      Alcotest.(check bool)
        (cell ^ ": warm read identical") true
        (fingerprint warm = reference);
      Alcotest.(check bool)
        (cell ^ ": warm run imported the store") true
        (warm.Gp_core.Api.analysis_store_loaded > 0);
      Alcotest.(check int)
        (cell ^ ": warm run has no summary misses") 0
        warm.Gp_core.Api.analysis_summary_misses;
      Alcotest.(check bool)
        (cell ^ ": warm run hits the summary store") true
        (warm.Gp_core.Api.analysis_summary_hits > 0);
      Gp_harness.Experiments.rm_rf dir)
    diff_cells

let check_differential_run () =
  let image = compile "bubble_sort" "llvm-obf" in
  let jobs = jobs_under_test in
  let outcome_fp (o : Gp_core.Api.outcome) =
    let s = o.Gp_core.Api.stats in
    ( List.sort compare
        (List.map Gp_core.Payload.chain_key o.Gp_core.Api.chains),
      s.Gp_core.Api.pool_size, s.Gp_core.Api.plans_found,
      s.Gp_core.Api.chains_validated, List.length o.Gp_core.Api.rungs )
  in
  let run ?cache_dir () =
    reset ();
    outcome_fp
      (Gp_core.Api.run ~jobs ?cache_dir image
         (Gp_core.Goal.Execve "/bin/sh"))
  in
  let reference = run () in
  let dir = tmp_dir () in
  let cold = run ~cache_dir:dir () in
  let warm = run ~cache_dir:dir () in
  Alcotest.(check bool) "full run: cold write identical" true
    (cold = reference);
  Alcotest.(check bool) "full run: warm read identical" true
    (warm = reference);
  Gp_harness.Experiments.rm_rf dir

(* ----- counters: deterministic aggregation across job counts ----- *)

let check_counters () =
  let image = compile "bubble_sort" "tigress" in
  let dir = tmp_dir () in
  ignore (analyze ~cache_dir:dir ~jobs:1 image);
  let cold1 = analyze ~jobs:1 image and cold4 = analyze ~jobs:4 image in
  (* the examined-start set is scheduling-independent, so hits+misses
     must agree across job counts even though the cold split is a race *)
  Alcotest.(check int) "cold hits+misses agree across jobs"
    (cold1.Gp_core.Api.analysis_summary_hits
     + cold1.Gp_core.Api.analysis_summary_misses)
    (cold4.Gp_core.Api.analysis_summary_hits
     + cold4.Gp_core.Api.analysis_summary_misses);
  Alcotest.(check bool) "decode memo saves work" true
    (cold1.Gp_core.Api.analysis_decode_saved > 0);
  (* with every entry preloaded, every counter is deterministic *)
  let warm1 = analyze ~cache_dir:dir ~jobs:1 image in
  let warm4 = analyze ~cache_dir:dir ~jobs:4 image in
  Alcotest.(check int) "warm hits agree across jobs"
    warm1.Gp_core.Api.analysis_summary_hits
    warm4.Gp_core.Api.analysis_summary_hits;
  Alcotest.(check int) "warm misses agree across jobs"
    warm1.Gp_core.Api.analysis_summary_misses
    warm4.Gp_core.Api.analysis_summary_misses;
  Alcotest.(check int) "warm decode savings agree across jobs"
    warm1.Gp_core.Api.analysis_decode_saved
    warm4.Gp_core.Api.analysis_decode_saved;
  Gp_harness.Experiments.rm_rf dir

(* ----- serialization properties ----- *)

let term_bytes t =
  let w = Gp_smt.Term.Ser.writer () in
  let b = Buffer.create 64 in
  Gp_smt.Term.Ser.put w b t;
  Buffer.contents b

let qcheck_term_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"term Ser round-trip, intern-stable"
    Gen.term (fun t ->
      let bytes = term_bytes t in
      (* interned and raw copies serialize identically *)
      let interned = term_bytes (Gp_smt.Term.intern t) in
      let r = Gp_smt.Term.Ser.reader () in
      let pos = ref 0 in
      let back = Gp_smt.Term.Ser.get r bytes pos in
      bytes = interned
      && !pos = String.length bytes
      && Gp_smt.Term.to_string back = Gp_smt.Term.to_string t
      && term_bytes back = bytes)

(* Round-trip real summaries: random start offsets in a compiled image
   drive [summarize_r]; the encoding must be byte-stable through a
   read/write cycle and rebase back to the original address. *)
let qcheck_summary_roundtrip =
  let image = compile "stack_machine" "tigress" in
  let code_size = Gp_util.Image.code_size image in
  let base = image.Gp_util.Image.code_base in
  QCheck2.Test.make ~count:300 ~name:"summary serialization round-trip"
    (QCheck2.Gen.int_range 0 (code_size - 1))
    (fun pos ->
      let addr = Int64.add base (Int64.of_int pos) in
      let v = Gp_symx.Exec.summarize_r image addr in
      let bytes = Gp_symx.Exec.write_summaries v in
      let ss, refused = Gp_symx.Exec.read_summaries bytes in
      let orig_ss, orig_refused = v in
      refused = orig_refused
      && List.for_all (fun s -> s.Gp_symx.Exec.s_addr = 0L) ss
      && Gp_symx.Exec.write_summaries (ss, refused) = bytes
      && List.for_all2
           (fun roundtripped original ->
             let r = Gp_symx.Exec.rebase ~addr roundtripped in
             r.Gp_symx.Exec.s_addr = original.Gp_symx.Exec.s_addr
             && r.Gp_symx.Exec.s_insns = original.Gp_symx.Exec.s_insns
             && r.Gp_symx.Exec.s_jump = original.Gp_symx.Exec.s_jump)
           ss orig_ss)

(* ----- resilience: damaged stores demote to cold ----- *)

let store_quarantine (a : Gp_core.Api.analysis) =
  try List.assoc "store" a.Gp_core.Api.quarantined with Not_found -> 0

let check_demoted ~what dir image reference =
  let a = analyze ~cache_dir:dir ~jobs:jobs_under_test image in
  Alcotest.(check bool) (what ^ ": results identical to cold") true
    (fingerprint a = reference);
  Alcotest.(check int) (what ^ ": store counted as stale") 1
    a.Gp_core.Api.analysis_store_stale;
  Alcotest.(check int) (what ^ ": nothing imported") 0
    a.Gp_core.Api.analysis_store_loaded;
  Alcotest.(check int) (what ^ ": quarantine ledger records it") 1
    (store_quarantine a)

let prime dir image =
  Gp_harness.Experiments.rm_rf dir;
  ignore (analyze ~cache_dir:dir ~jobs:jobs_under_test image);
  Gp_core.Incr.path ~dir

let check_corrupt_store () =
  let image = compile "fibonacci" "llvm-obf" in
  let reference = fingerprint (analyze ~jobs:jobs_under_test image) in
  let dir = tmp_dir () in
  (* bit flips: retry with denser rates until at least one byte flips *)
  let path = prime dir image in
  let rec flip rate =
    if Gp_harness.Faultsim.corrupt_file ~rate path = 0 then flip (rate *. 4.)
  in
  flip 0.0005;
  check_demoted ~what:"corrupt" dir image reference;
  (* truncation *)
  let path = prime dir image in
  let n = (Unix.stat path).Unix.st_size in
  Unix.truncate path (n / 3);
  check_demoted ~what:"truncated" dir image reference;
  (* stale schema version *)
  let path = prime dir image in
  (match
     Gp_util.Store.save ~schema:(Gp_core.Incr.schema_version + 1) path []
   with
  | Ok () -> ()
  | Error why -> Alcotest.fail ("could not write stale store: " ^ why));
  check_demoted ~what:"stale" dir image reference;
  (* and a rejected store never breaks the warm path afterwards *)
  let _ = prime dir image in
  let warm = analyze ~cache_dir:dir ~jobs:jobs_under_test image in
  Alcotest.(check bool) "store recovers after re-prime" true
    (warm.Gp_core.Api.analysis_store_loaded > 0
     && fingerprint warm = reference);
  Gp_harness.Experiments.rm_rf dir

(* Every schema bump must demote older stores to cold.  For each
   version below the current one, rewrite a freshly primed store's own
   sections under that version — content the current reader could
   decode, so only the version gates it — and require cold-identical
   results, [store_stale] = 1 and a "store" quarantine entry.  Loops
   over every older version, so the next bump is covered unedited. *)
let check_old_schemas_demote () =
  let image = compile "fibonacci" "llvm-obf" in
  let reference = fingerprint (analyze ~jobs:jobs_under_test image) in
  let dir = tmp_dir () in
  for v = 1 to Gp_core.Incr.schema_version - 1 do
    let path = prime dir image in
    let sections =
      match Gp_util.Store.load ~schema:Gp_core.Incr.schema_version path with
      | Ok s -> s
      | Error e -> Alcotest.fail (Gp_util.Store.error_reason e)
    in
    (match Gp_util.Store.save ~schema:v path sections with
    | Ok () -> ()
    | Error why -> Alcotest.fail ("could not write old store: " ^ why));
    check_demoted ~what:(Printf.sprintf "schema v%d" v) dir image reference
  done;
  Gp_harness.Experiments.rm_rf dir

let check_store_classification () =
  let dir = tmp_dir () in
  Gp_harness.Experiments.rm_rf dir;
  let path = Filename.concat dir "t.gpst" in
  (match Gp_util.Store.load ~schema:1 path with
  | Error Gp_util.Store.Missing -> ()
  | _ -> Alcotest.fail "missing file must classify as Missing");
  (match Gp_util.Store.save ~schema:1 path [] with
  | Ok () -> ()
  | Error why -> Alcotest.fail why);
  (match Gp_util.Store.load ~schema:2 path with
  | Error (Gp_util.Store.Stale _) -> ()
  | _ -> Alcotest.fail "schema mismatch must classify as Stale");
  let sections =
    [ { Gp_util.Store.name = "s"; entries = [ ("k", "v") ] } ]
  in
  (match Gp_util.Store.save ~schema:1 path sections with
  | Ok () -> ()
  | Error why -> Alcotest.fail why);
  (match Gp_util.Store.load ~schema:1 path with
  | Ok [ { Gp_util.Store.name = "s"; entries = [ ("k", "v") ] } ] -> ()
  | _ -> Alcotest.fail "intact store must round-trip");
  ignore (Gp_harness.Faultsim.corrupt_file ~rate:0.2 path);
  (match Gp_util.Store.load ~schema:1 path with
  | Error (Gp_util.Store.Corrupt _) -> ()
  | _ -> Alcotest.fail "flipped bytes must classify as Corrupt");
  Gp_harness.Experiments.rm_rf dir

let suite =
  [ Alcotest.test_case "differential: cache_dir jobs=1" `Slow
      (check_differential 1);
    Alcotest.test_case
      (Printf.sprintf "differential: cache_dir jobs=%d" jobs_under_test)
      `Slow
      (check_differential jobs_under_test);
    Alcotest.test_case "differential: full run with cache_dir" `Slow
      check_differential_run;
    Alcotest.test_case "counters aggregate deterministically" `Slow
      check_counters;
    QCheck_alcotest.to_alcotest qcheck_term_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_summary_roundtrip;
    Alcotest.test_case "corrupt/truncated/stale store demotes to cold"
      `Slow check_corrupt_store;
    Alcotest.test_case "every older schema demotes to cold" `Slow
      check_old_schemas_demote;
    Alcotest.test_case "store load classification" `Quick
      check_store_classification ]
