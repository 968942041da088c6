(* Incremental-store tests (DESIGN.md §11).  Five angles:

   - differential: a run inside an [Incr.with_store] session — cold
     write, then warm read — is bit-identical to a run with no store
     across survey cells, at jobs 1 and 4 (the store must be
     semantically invisible at any temperature and any domain count);
   - replay: a memo hit reproduces a fresh harvest exactly — under an
     injected decode-fault schedule, in the global id sequence after
     other harvests, and never from a truncated harvest or under a
     budget too small for a fresh one;
   - serialization properties: term and gadget encodings round-trip
     byte-stably, and interned vs non-interned copies of a term
     serialize identically;
   - resilience: a corrupted, truncated, or stale-versioned store file
     demotes the run to cold — correct results, the session's report
     holding the rejection, never an exception; every bit flip of a
     one-image store is rejected and every truncation of a one-image
     journal replays a valid prefix;
   - the session: a failed compaction lands in its report (through
     [Survey.sweep] too), and a CLI-path run killed mid-stage leaves
     its image in the journal for the next run to replay.

   The differential and replay cases honor the JOBS environment
   variable like test_par, so `make check-incr` sweeps job counts
   without editing code. *)

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

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "gp-incr-test-%d-%d" (Unix.getpid ()) !n)
    in
    Gp_harness.Survey.rm_rf d;
    d

(* Everything in an analysis that must not depend on the store: the
   pool (addresses in order), the census, and the quarantine ledger.
   Cache hit/miss counters are deliberately absent — hit rate is a
   property of cache temperature, not of verdicts. *)
let fingerprint (a : Gp_core.Api.analysis) =
  ( List.map (fun (g : Gp_core.Gadget.t) -> g.Gp_core.Gadget.addr)
      a.Gp_core.Api.gadgets,
    a.Gp_core.Api.raw_extracted,
    a.Gp_core.Api.quarantined,
    a.Gp_core.Api.analysis_budget_hits )

let analyze ~jobs image =
  reset ();
  Gp_core.Api.analyze ~jobs image

(* The same inside a store session on [dir], as `scan --cache-dir`
   runs it: the analysis and the session's report. *)
let analyze_stored dir ~jobs image =
  reset ();
  Gp_core.Incr.with_store ~dir:(Some dir) (fun _ -> Gp_core.Api.analyze ~jobs image)

let store_fails (r : Gp_core.Incr.report) =
  List.map Gp_core.Fail.to_string r.Gp_core.Incr.st_fails

(* ----- differential: a store session == no store ----- *)

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
      let cold, cold_store = analyze_stored dir ~jobs image in
      Alcotest.(check bool)
        (cell ^ ": cold write identical") true
        (fingerprint cold = reference);
      Alcotest.(check int)
        (cell ^ ": cold run loads nothing") 0
        (Gp_core.Incr.loaded cold_store);
      let warm, warm_store = analyze_stored dir ~jobs image in
      Alcotest.(check bool)
        (cell ^ ": warm read identical") true
        (fingerprint warm = reference);
      Alcotest.(check bool)
        (cell ^ ": warm run imported the store") true
        (Gp_core.Incr.loaded warm_store > 0);
      Alcotest.(check (list string))
        (cell ^ ": no store failure, cold or warm") []
        (store_fails cold_store @ store_fails warm_store);
      Alcotest.(check int)
        (cell ^ ": warm run has no summary misses") 0
        warm.Gp_core.Api.analysis_summary_misses;
      Alcotest.(check int)
        (cell ^ ": warm run replays every start the cold run executed")
        cold.Gp_core.Api.analysis_summary_misses
        warm.Gp_core.Api.analysis_summary_hits;
      Gp_harness.Survey.rm_rf dir)
    diff_cells

let outcome_fp (o : Gp_core.Api.outcome) =
  let s = o.Gp_core.Api.stats in
  ( List.sort compare (List.map Gp_core.Payload.chain_key o.Gp_core.Api.chains),
    s.Gp_core.Api.pool_size, s.Gp_core.Api.plans_found,
    s.Gp_core.Api.chains_validated, List.length o.Gp_core.Api.rungs )

(* A plan request in a fresh world, inside a store session on [dir] when
   given — what `plan --cache-dir` runs. *)
let run_stored ?dir ~jobs image =
  reset ();
  fst
    (Gp_core.Incr.with_store ~dir (fun _ ->
         Gp_core.Api.run ~jobs image (Gp_core.Goal.Execve "/bin/sh")))

let check_differential_run () =
  let image = compile "bubble_sort" "llvm-obf" in
  let jobs = jobs_under_test in
  let reference = outcome_fp (run_stored ~jobs image) in
  let dir = tmp_dir () in
  let cold = run_stored ~dir ~jobs image in
  let warm = run_stored ~dir ~jobs image in
  Alcotest.(check bool) "full run: cold write identical" true
    (outcome_fp cold = reference);
  Alcotest.(check bool) "full run: warm read identical" true
    (outcome_fp warm = reference);
  (* [reset] emptied the solver memo, so every hit is a loaded entry *)
  let warm_stats = warm.Gp_core.Api.stats in
  Alcotest.(check bool) "full run: warm run hits the loaded solver memo" true
    (warm_stats.Gp_core.Api.cache_hits > 0);
  Alcotest.(check int) "full run: warm run searches nothing afresh" 0
    warm_stats.Gp_core.Api.cache_misses;
  Gp_harness.Survey.rm_rf dir

(* ----- counters: deterministic aggregation across job counts ----- *)

let check_counters () =
  let image = compile "bubble_sort" "tigress" in
  let dir = tmp_dir () in
  ignore (analyze_stored dir ~jobs:1 image);
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
  let warm1 = fst (analyze_stored dir ~jobs:1 image) in
  let warm4 = fst (analyze_stored dir ~jobs:4 image) in
  Alcotest.(check int) "warm hits agree across jobs"
    warm1.Gp_core.Api.analysis_summary_hits
    warm4.Gp_core.Api.analysis_summary_hits;
  Alcotest.(check int) "warm misses agree across jobs"
    warm1.Gp_core.Api.analysis_summary_misses
    warm4.Gp_core.Api.analysis_summary_misses;
  Alcotest.(check int) "warm decode savings agree across jobs"
    warm1.Gp_core.Api.analysis_decode_saved
    warm4.Gp_core.Api.analysis_decode_saved;
  Gp_harness.Survey.rm_rf dir

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

(* Round-trip real gadget records: random start offsets in a compiled
   image drive [summarize_r] and conversion; all records of one start
   go through one writer, as an image's records do, and must come back
   equal and re-encode to the same bytes. *)
let qcheck_gadget_roundtrip =
  let image = compile "stack_machine" "tigress" in
  let code_size = Gp_util.Image.code_size image in
  let base = image.Gp_util.Image.code_base in
  let encode gs =
    let w = Gp_smt.Term.Ser.writer () in
    let b = Buffer.create 512 in
    List.iter (Gp_core.Gadget.put w b) gs;
    Buffer.contents b
  in
  QCheck2.Test.make ~count:300 ~name:"gadget record codec round-trip"
    (QCheck2.Gen.int_range 0 (code_size - 1))
    (fun pos ->
      let addr = Int64.add base (Int64.of_int pos) in
      let gs =
        List.mapi
          (fun i s -> Gp_core.Gadget.of_summary ~id:(pos + i) s)
          (fst (Gp_symx.Exec.summarize_r image addr))
      in
      let bytes = encode gs in
      let r = Gp_smt.Term.Ser.reader () in
      let cur = ref 0 in
      let back = List.map (fun _ -> Gp_core.Gadget.get r bytes cur) gs in
      !cur = String.length bytes && back = gs && encode back = bytes)

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

(* ----- resilience: damaged stores demote to cold ----- *)

let check_demoted ~what dir image reference =
  let a, store = analyze_stored dir ~jobs:jobs_under_test image in
  Alcotest.(check bool) (what ^ ": results identical to cold") true
    (fingerprint a = reference);
  Alcotest.(check bool) (what ^ ": store rejected") true
    (match store.Gp_core.Incr.st_status with
     | Gp_core.Incr.Rejected _ -> true
     | Gp_core.Incr.Loaded _ | Gp_core.Incr.Absent -> false);
  Alcotest.(check int) (what ^ ": nothing imported") 0
    (Gp_core.Incr.loaded store);
  Alcotest.(check (list string)) (what ^ ": the report records it") [ "store" ]
    (List.map Gp_core.Fail.label store.Gp_core.Incr.st_fails)

let prime dir image =
  Gp_harness.Survey.rm_rf dir;
  ignore (analyze_stored dir ~jobs:jobs_under_test image);
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
  let warm, store = analyze_stored dir ~jobs:jobs_under_test image in
  Alcotest.(check bool) "store recovers after re-prime" true
    (Gp_core.Incr.loaded store > 0 && fingerprint warm = reference);
  Gp_harness.Survey.rm_rf dir

(* Every schema bump must demote older stores to cold.  For each
   version below the current one, rewrite a freshly primed store's own
   sections under that version — content the current reader could
   decode, so only the version gates it — and require cold-identical
   results and a rejection in the session's report.  Loops
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
  Gp_harness.Survey.rm_rf dir

(* A store file and a journal that each hold one image record.  Every
   single-bit flip of the store is rejected outright; every truncation
   of the journal replays its valid prefix — nothing, or the whole
   record — and counts the bytes it dropped.  Whatever either imports
   must replay exactly the original harvest. *)
let check_one_image_corruption () =
  let image =
    Gp_util.Image.create ~entry:0x400000L
      ~code:
        (Gp_x86.Encode.insns
           Gp_x86.Insn.
             [ Cmp (Reg Gp_x86.Reg.RAX, Reg Gp_x86.Reg.RBX); Jcc (E, 2);
               Pop Gp_x86.Reg.RDX; Ret; Pop Gp_x86.Reg.RDI; Ret;
               Pop Gp_x86.Reg.RAX; Ret; Syscall ])
      ~data:(Bytes.create 16) ()
  in
  let dir = tmp_dir () in
  let store = Gp_core.Incr.path ~dir and wal = Gp_core.Incr.wal_path ~dir in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let write path bytes =
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)
  in
  reset ();
  let (original, header, wal_bytes), session =
    Gp_core.Incr.with_store ~dir:(Some dir) (fun opened ->
        (match opened.Gp_core.Incr.st_mode with
        | `Journaling -> ()
        | `Read_only why -> Alcotest.fail ("journal open: " ^ why)
        | `Off -> Alcotest.fail "no journal");
        let header = String.length (read wal) in
        let original = harvest ~jobs:1 image in
        Gp_core.Incr.journal_checkpoint ();
        (original, header, read wal))
  in
  Alcotest.(check bool) "the image has gadgets" true (fst original <> []);
  Alcotest.(check (list string)) "session met no store failure" []
    (store_fails session);
  let store_bytes = read store in
  Sys.remove wal;
  (* whatever was imported replays the original harvest, or nothing was *)
  let check_imported what =
    match Gp_core.Incr.size () with
    | 0 -> ()
    | 1 ->
      let replayed = harvest ~jobs:1 image in
      check_hit what replayed;
      same_harvest what original replayed
    | n -> Alcotest.failf "%s: %d images imported from one" what n
  in
  let load what =
    Gp_core.Incr.reset ();
    let st = Gp_core.Incr.load ~dir in
    check_imported what;
    st
  in
  (match load "intact store" with
  | Gp_core.Incr.Loaded { li_entries = 1; _ } ->
    Alcotest.(check int) "intact store imports the image" 1 (Gp_core.Incr.size ())
  | _ -> Alcotest.fail "intact store must load one image");
  String.iteri
    (fun i c ->
      for bit = 0 to 7 do
        let b = Bytes.of_string store_bytes in
        Bytes.set b i (Char.chr (Char.code c lxor (1 lsl bit)));
        write store (Bytes.to_string b);
        let what = Printf.sprintf "store bit %d of byte %d" bit i in
        match load what with
        | Gp_core.Incr.Rejected _ ->
          Alcotest.(check int) (what ^ ": nothing imported") 0 (Gp_core.Incr.size ())
        | _ -> Alcotest.failf "%s: flipped store not rejected" what
      done)
    store_bytes;
  Sys.remove store;
  let n = String.length wal_bytes in
  for k = 0 to n do
    write wal (String.sub wal_bytes 0 k);
    let what = Printf.sprintf "journal cut at %d of %d" k n in
    let torn = if k = n then 0 else if k >= header then k - header else k in
    match load what with
    | Gp_core.Incr.Absent when torn = 0 && k < n -> ()
    | Gp_core.Incr.Loaded li ->
      Alcotest.(check int) (what ^ ": torn bytes counted") torn
        li.Gp_core.Incr.li_wal_truncated;
      Alcotest.(check int) (what ^ ": valid prefix replayed")
        (if k = n then 1 else 0)
        li.Gp_core.Incr.li_wal_replayed;
      Alcotest.(check int) (what ^ ": images imported")
        (if k = n then 1 else 0)
        (Gp_core.Incr.size ())
    | Gp_core.Incr.Absent -> Alcotest.failf "%s: torn journal reported absent" what
    | Gp_core.Incr.Rejected why -> Alcotest.failf "%s: rejected (%s)" what why
  done;
  reset ();
  Gp_harness.Survey.rm_rf dir

(* ----- the session reports what it met ----- *)

(* A non-empty directory where the base store goes makes compaction's
   rename fail.  The session must report it — directly, and through
   [Survey.sweep], the survey's session — while the analysis stands and
   the journal still holds the image for the next open. *)
let check_failed_compaction_reported () =
  let image = compile "fibonacci" "original" in
  let reference = fingerprint (analyze ~jobs:1 image) in
  let block dir =
    let p = Gp_core.Incr.path ~dir in
    Sys.mkdir p 0o755;
    Out_channel.with_open_bin (Filename.concat p "x") (fun oc ->
        Out_channel.output_string oc "x")
  in
  let failed what (r : Gp_core.Incr.report) =
    Alcotest.(check bool) (what ^ ": journaling at the open") true
      (r.Gp_core.Incr.st_mode = `Journaling);
    Alcotest.(check (list string)) (what ^ ": the failed compaction is reported")
      [ "store" ]
      (List.map Gp_core.Fail.label r.Gp_core.Incr.st_fails)
  in
  let dir = tmp_dir () in
  reset ();
  let a, store =
    Gp_core.Incr.with_store ~dir:(Some dir) (fun _ ->
        let a = Gp_core.Api.analyze ~jobs:1 image in
        block dir;
        a)
  in
  failed "with_store" store;
  Alcotest.(check bool) "the analysis stands" true (fingerprint a = reference);
  Gp_harness.Survey.rm_rf (Gp_core.Incr.path ~dir);
  reset ();
  (match Gp_core.Incr.load ~dir with
  | Gp_core.Incr.Loaded li ->
    Alcotest.(check int) "the journal kept the image" 1
      li.Gp_core.Incr.li_wal_replayed
  | _ -> Alcotest.fail "the journal did not load");
  Gp_harness.Survey.rm_rf dir;
  reset ();
  let (), store =
    Gp_harness.Survey.sweep ~dir ~resume:false (fun ~manifest:_ ~resume:_ ->
        ignore (Gp_core.Api.analyze ~jobs:1 image);
        block dir)
  in
  failed "Survey.sweep" store;
  reset ();
  Gp_harness.Survey.rm_rf dir

(* A CLI-path run killed between stages 2 and 3 ("mid-stage") has
   already handed its image record to the OS: the next open replays it
   from the journal, and the warm run executes nothing yet plans
   exactly what an uncached run does. *)
let check_cli_crash_replays () =
  let image = compile "fibonacci" "llvm-obf" in
  let jobs = jobs_under_test in
  let reference = outcome_fp (run_stored ~jobs image) in
  let dir = tmp_dir () in
  (match
     Gp_harness.Faultsim.with_crash_at ~point:"mid-stage" (fun () ->
         run_stored ~dir ~jobs image)
   with
  | Error "mid-stage" -> ()
  | Error p -> Alcotest.failf "crashed at unexpected point %s" p
  | Ok _ -> Alcotest.fail "crash fuse never blew");
  reset ();
  (match Gp_core.Incr.load ~dir with
  | Gp_core.Incr.Loaded li ->
    Alcotest.(check bool) "the image replays from the journal" true
      (li.Gp_core.Incr.li_wal_replayed >= 1)
  | _ -> Alcotest.fail "the crashed run left nothing to load");
  reset ();
  let warm, store =
    Gp_core.Incr.with_store ~dir:(Some dir) (fun _ ->
        Gp_core.Api.run ~jobs image (Gp_core.Goal.Execve "/bin/sh"))
  in
  Alcotest.(check (list string)) "the reopen met no store failure" []
    (store_fails store);
  Alcotest.(check int) "warm run: no summary misses" 0
    warm.Gp_core.Api.stats.Gp_core.Api.summary_misses;
  Alcotest.(check bool) "warm run plans as an uncached one" true
    (outcome_fp warm = reference);
  reset ();
  Gp_harness.Survey.rm_rf dir

let check_store_classification () =
  let dir = tmp_dir () in
  Gp_harness.Survey.rm_rf dir;
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
  Gp_harness.Survey.rm_rf dir

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
      (check_replay_fuel jobs_under_test);
    QCheck_alcotest.to_alcotest qcheck_term_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_gadget_roundtrip;
    Alcotest.test_case "corrupt/truncated/stale store demotes to cold"
      `Slow check_corrupt_store;
    Alcotest.test_case "one-image store bit flips and journal cuts" `Quick
      check_one_image_corruption;
    Alcotest.test_case "every older schema demotes to cold" `Slow
      check_old_schemas_demote;
    Alcotest.test_case "store load classification" `Quick
      check_store_classification;
    Alcotest.test_case "session reports a failed compaction" `Quick
      check_failed_compaction_reported;
    Alcotest.test_case "CLI-path crash replays the image from the journal"
      `Slow check_cli_crash_replays ]
