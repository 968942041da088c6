(* Supervised corpus runner tests (DESIGN.md §13): deterministic
   backoff, transient/permanent classification, per-cell retry
   supervision, and the WAL-backed checkpoint manifest that makes
   sweeps resumable (a record that does not decode is recomputed).  The crash-injection differential (resume ≡
   uninterrupted under simulated process death) lives in
   test_resilience; this suite covers the runner's own mechanics. *)

open Gp_harness

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "gp-runner-test-%d-%d" (Unix.getpid ()) !n)
    in
    Gp_harness.Survey.rm_rf d;
    d

(* Record backoff sleeps instead of performing them. *)
let with_sleep_recorder f =
  let slept = ref [] in
  let saved = !Runner.sleep_hook in
  Runner.sleep_hook := (fun s -> slept := s :: !slept);
  Fun.protect
    ~finally:(fun () -> Runner.sleep_hook := saved)
    (fun () ->
      let r = f () in
      (r, List.rev !slept))

(* ----- backoff ----- *)

let test_backoff_deterministic () =
  let p = Runner.default_policy in
  let d1 = Runner.backoff_delay p ~key:"fib/ollvm" ~attempt:1 in
  let d1' = Runner.backoff_delay p ~key:"fib/ollvm" ~attempt:1 in
  Alcotest.(check (float 0.)) "same args, same delay" d1 d1';
  (* jitter stays inside the advertised band *)
  List.iter
    (fun attempt ->
      let base = p.Runner.base_delay_s *. (2. ** float_of_int (attempt - 1)) in
      let capped = Float.min base p.Runner.max_delay_s in
      let d = Runner.backoff_delay p ~key:"k" ~attempt in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d in band" attempt)
        true
        (d >= capped *. (1. -. p.Runner.jitter)
        && d <= capped *. (1. +. p.Runner.jitter)))
    [ 1; 2; 3; 7 ];
  (* jitter off: exact doubling, capped *)
  let flat = { p with Runner.jitter = 0. } in
  Alcotest.(check (float 0.)) "no jitter attempt 1" p.Runner.base_delay_s
    (Runner.backoff_delay flat ~key:"k" ~attempt:1);
  Alcotest.(check (float 0.)) "no jitter attempt 2"
    (2. *. p.Runner.base_delay_s)
    (Runner.backoff_delay flat ~key:"k" ~attempt:2);
  Alcotest.(check (float 0.)) "cap reached" p.Runner.max_delay_s
    (Runner.backoff_delay flat ~key:"k" ~attempt:30)

let test_backoff_keyed_by_cell () =
  let p = Runner.default_policy in
  Alcotest.(check bool) "different cells, different jitter" true
    (Runner.backoff_delay p ~key:"a" ~attempt:1
     <> Runner.backoff_delay p ~key:"b" ~attempt:1)

(* ----- classification ----- *)

let test_classify () =
  let t = Gp_core.Fail.retryable in
  Alcotest.(check bool) "deadline transient" true
    (t (Gp_core.Fail.Budget_exhausted ("cell", `Time)));
  Alcotest.(check bool) "fuel transient" true
    (t (Gp_core.Fail.Budget_exhausted ("cell", `Fuel)));
  Alcotest.(check bool) "decode permanent" false
    (t (Gp_core.Fail.Decode_fault (0x400000L, "bad")));
  Alcotest.(check bool) "emu fault permanent" false
    (t (Gp_core.Fail.Emu_fault "unmapped"));
  Alcotest.(check bool) "wire frame fault permanent" false
    (t (Gp_core.Fail.Frame_fault (`Checksum, "bad sum")));
  Alcotest.(check bool) "symx refusal permanent" false
    (t (Gp_core.Fail.Symx_unsupported (0x400000L, "q")))

(* ----- run_cell supervision ----- *)

let policy =
  { Runner.default_policy with
    Runner.max_attempts = 3; base_delay_s = 0.1; jitter = 0. }

let test_run_cell_retries_transient () =
  let calls = ref 0 in
  let (result, retries), slept =
    with_sleep_recorder (fun () ->
        Runner.run_cell ~policy ~key:"cell" (fun ~attempt _b ->
            incr calls;
            Alcotest.(check int) "attempt number" !calls attempt;
            if attempt < 3 then Error (Gp_core.Fail.Budget_exhausted ("slow", `Time))
            else Ok "done"))
  in
  Alcotest.(check bool) "succeeded" true (result = Ok "done");
  Alcotest.(check int) "two retries" 2 retries;
  Alcotest.(check (list (float 0.))) "backoff schedule" [ 0.1; 0.2 ] slept

let test_run_cell_permanent_no_retry () =
  let calls = ref 0 in
  let (result, retries), slept =
    with_sleep_recorder (fun () ->
        Runner.run_cell ~policy ~key:"cell" (fun ~attempt:_ _b ->
            incr calls;
            Error (Gp_core.Fail.Decode_fault (0x400000L, "bad"))))
  in
  Alcotest.(check bool) "failed" true (Result.is_error result);
  Alcotest.(check int) "single attempt" 1 !calls;
  Alcotest.(check int) "no retries" 0 retries;
  Alcotest.(check (list (float 0.))) "no sleeps" [] slept

let test_run_cell_gives_up () =
  let calls = ref 0 in
  let (result, retries), slept =
    with_sleep_recorder (fun () ->
        Runner.run_cell ~policy ~key:"cell" (fun ~attempt:_ _b ->
            incr calls;
            Error (Gp_core.Fail.Budget_exhausted ("stage", `Fuel))))
  in
  Alcotest.(check bool) "still failed" true (Result.is_error result);
  Alcotest.(check int) "all attempts used" policy.Runner.max_attempts !calls;
  Alcotest.(check int) "retries = attempts - 1" (policy.Runner.max_attempts - 1)
    retries;
  Alcotest.(check int) "slept between attempts"
    (policy.Runner.max_attempts - 1)
    (List.length slept)

let test_run_cell_catches_budget_exhausted () =
  (* an escaped watchdog exception counts as a transient failure *)
  let (result, retries), _ =
    with_sleep_recorder (fun () ->
        Runner.run_cell ~policy ~key:"cell" (fun ~attempt _b ->
            if attempt = 1 then
              raise (Gp_core.Budget.Exhausted ("cell:x", Gp_core.Budget.Deadline))
            else Ok attempt))
  in
  Alcotest.(check bool) "recovered on retry" true (result = Ok 2);
  Alcotest.(check int) "one retry" 1 retries

let test_run_cell_fresh_watchdog_per_attempt () =
  let p = { policy with Runner.attempt_seconds = Some 1000. } in
  let _, _ =
    with_sleep_recorder (fun () ->
        Runner.run_cell ~policy:p ~key:"cell" (fun ~attempt:_ b ->
            Alcotest.(check bool) "watchdog fresh" false
              (Gp_core.Budget.exhausted b);
            Error (Gp_core.Fail.Budget_exhausted ("again", `Time))))
  in
  ()

(* ----- checkpoint manifest ----- *)

let test_manifest_roundtrip () =
  let dir = tmp_dir () in
  let m = Runner.Manifest.open_ ~dir in
  Alcotest.(check bool) "writer" true (Runner.Manifest.read_only m = None);
  Runner.Manifest.record m ~key:"a" ~payload:"payload-a";
  Runner.Manifest.record m ~key:"b" ~payload:"payload-b";
  Alcotest.(check int) "completed" 2 (Runner.Manifest.completed m);
  Runner.Manifest.close m;
  let m2 = Runner.Manifest.open_ ~dir in
  Alcotest.(check int) "replayed" 2 (Runner.Manifest.replayed m2);
  Alcotest.(check bool) "payload back" true
    (match Runner.Manifest.find m2 "b" with
     | Some e -> e.Runner.Manifest.e_payload = "payload-b"
     | None -> false);
  Alcotest.(check int) "clean tail" 0 (Runner.Manifest.torn_bytes m2);
  Runner.Manifest.close m2;
  Gp_harness.Survey.rm_rf dir

let test_manifest_rerecord_wins_last () =
  let dir = tmp_dir () in
  let m = Runner.Manifest.open_ ~dir in
  Runner.Manifest.record m ~key:"a" ~payload:"v1";
  Runner.Manifest.record m ~key:"a" ~payload:"v2";
  Runner.Manifest.close m;
  let m2 = Runner.Manifest.open_ ~dir in
  Alcotest.(check bool) "last record wins" true
    (match Runner.Manifest.find m2 "a" with
     | Some e -> e.Runner.Manifest.e_payload = "v2"
     | None -> false);
  Runner.Manifest.close m2;
  Gp_harness.Survey.rm_rf dir

let test_manifest_second_writer_demotes () =
  let dir = tmp_dir () in
  let m = Runner.Manifest.open_ ~dir in
  Runner.Manifest.record m ~key:"a" ~payload:"v";
  let m2 = Runner.Manifest.open_ ~dir in
  Alcotest.(check bool) "demoted" true (Runner.Manifest.read_only m2 <> None);
  (* read-only manifests still accept (and ignore durability of)
     records in memory; recording must not raise *)
  Runner.Manifest.record m2 ~key:"b" ~payload:"w";
  Runner.Manifest.close m2;
  Runner.Manifest.close m;
  (* after the writer released the lock, a fresh open sees only the
     durably recorded cell *)
  let m3 = Runner.Manifest.open_ ~dir in
  Alcotest.(check bool) "writer again" true (Runner.Manifest.read_only m3 = None);
  Alcotest.(check int) "only the locked writer persisted" 1
    (Runner.Manifest.completed m3);
  Runner.Manifest.close m3;
  Gp_harness.Survey.rm_rf dir

let test_manifest_torn_tail_recovers () =
  let dir = tmp_dir () in
  let m = Runner.Manifest.open_ ~dir in
  Runner.Manifest.record m ~key:"a" ~payload:"payload-a";
  Runner.Manifest.record m ~key:"b" ~payload:"payload-b";
  Runner.Manifest.close m;
  let path = Runner.Manifest.wal_path ~dir in
  let size = (Unix.stat path).Unix.st_size in
  Faultsim.truncate_file ~k:(size - 3) path;
  let m2 = Runner.Manifest.open_ ~dir in
  Alcotest.(check int) "prefix replayed" 1 (Runner.Manifest.replayed m2);
  Alcotest.(check bool) "torn tail measured" true
    (Runner.Manifest.torn_bytes m2 > 0);
  Alcotest.(check bool) "surviving record intact" true
    (match Runner.Manifest.find m2 "a" with
     | Some e -> e.Runner.Manifest.e_payload = "payload-a"
     | None -> false);
  Alcotest.(check bool) "torn record recomputes" true
    (Runner.Manifest.find m2 "b" = None);
  (* appending after recovery works on the truncated file *)
  Runner.Manifest.record m2 ~key:"c" ~payload:"payload-c";
  Runner.Manifest.close m2;
  let m3 = Runner.Manifest.open_ ~dir in
  Alcotest.(check int) "recovered + appended" 2 (Runner.Manifest.replayed m3);
  Runner.Manifest.close m3;
  Gp_harness.Survey.rm_rf dir

(* A manifest journal holding one record, damaged: whatever the bytes,
   [open_] must not raise, and the record either replays intact (the
   cell is resumed with the recorded payload) or is dropped (the cell is
   recomputed).  [damage] maps the intact file's bytes to the variants
   to try. *)
let check_one_record_manifest ~damage =
  let dir = tmp_dir () in
  let key = "prog/ollvm" and payload = "payload of prog/ollvm" in
  let m = Runner.Manifest.open_ ~dir in
  Runner.Manifest.record m ~key ~payload;
  Runner.Manifest.close m;
  let path = Runner.Manifest.wal_path ~dir in
  let intact = In_channel.with_open_bin path In_channel.input_all in
  List.iter
    (fun (what, bytes) ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes);
      let m =
        try Runner.Manifest.open_ ~dir
        with e -> Alcotest.failf "%s: open_ raised %s" what (Printexc.to_string e)
      in
      let replayed = Runner.Manifest.find m key in
      (match replayed with
      | None -> ()
      | Some e ->
        Alcotest.(check string) (what ^ ": replayed intact") payload
          e.Runner.Manifest.e_payload);
      Alcotest.(check int) (what ^ ": replay count")
        (if replayed = None then 0 else 1)
        (Runner.Manifest.replayed m);
      let computed = ref false in
      let outcomes, _ =
        Runner.run_corpus ~manifest:m ~resume:true ~encode:Fun.id ~decode:Fun.id
          [ (key, fun ~attempt:_ _ -> computed := true; Ok payload) ]
      in
      Runner.Manifest.close m;
      match outcomes with
      | [ c ] ->
        Alcotest.(check bool) (what ^ ": resumed iff replayed") (replayed <> None)
          c.Runner.c_resumed;
        Alcotest.(check bool) (what ^ ": recomputed iff dropped") (replayed = None)
          !computed;
        Alcotest.(check bool) (what ^ ": result intact") true
          (c.Runner.c_result = Ok payload)
      | _ -> Alcotest.failf "%s: one cell, %d outcomes" what (List.length outcomes))
    (damage intact);
  Gp_harness.Survey.rm_rf dir

let test_manifest_bit_flips () =
  check_one_record_manifest ~damage:(fun intact ->
      List.concat_map
        (fun i ->
          List.init 8 (fun bit ->
              let b = Bytes.of_string intact in
              Bytes.set b i (Char.chr (Char.code intact.[i] lxor (1 lsl bit)));
              (Printf.sprintf "bit %d of byte %d" bit i, Bytes.to_string b)))
        (List.init (String.length intact) Fun.id))

let test_manifest_cuts () =
  check_one_record_manifest ~damage:(fun intact ->
      let n = String.length intact in
      List.init (n + 1) (fun k ->
          (Printf.sprintf "cut at %d of %d" k n, String.sub intact 0 k)))

(* ----- run_corpus ----- *)

let corpus_cells compute_log =
  List.map
    (fun key ->
      ( key,
        fun ~attempt:_ _b ->
          compute_log := key :: !compute_log;
          Ok ("result:" ^ key) ))
    [ "p1/none"; "p1/ollvm"; "p2/none" ]

let test_run_corpus_resume_skips_completed () =
  let dir = tmp_dir () in
  let log = ref [] in
  let m = Runner.Manifest.open_ ~dir in
  let outcomes, report =
    Runner.run_corpus ~manifest:m ~encode:Fun.id ~decode:Fun.id
      (corpus_cells log)
  in
  Runner.Manifest.close m;
  Alcotest.(check int) "all computed" 3 report.Runner.r_computed;
  Alcotest.(check int) "cold computes every cell" 3 (List.length !log);
  let m2 = Runner.Manifest.open_ ~dir in
  let log2 = ref [] in
  let outcomes2, report2 =
    Runner.run_corpus ~manifest:m2 ~resume:true ~encode:Fun.id ~decode:Fun.id
      (corpus_cells log2)
  in
  Runner.Manifest.close m2;
  Alcotest.(check int) "nothing recomputed" 0 (List.length !log2);
  Alcotest.(check int) "all resumed" 3 report2.Runner.r_resumed;
  Alcotest.(check bool) "resumed results identical" true
    (List.map (fun c -> c.Runner.c_result) outcomes
    = List.map (fun c -> c.Runner.c_result) outcomes2);
  Alcotest.(check bool) "resumed flag set" true
    (List.for_all (fun c -> c.Runner.c_resumed) outcomes2);
  Gp_harness.Survey.rm_rf dir

let test_run_corpus_partial_resume () =
  let dir = tmp_dir () in
  (* pre-record one cell, as if a crashed sweep had checkpointed it *)
  let m = Runner.Manifest.open_ ~dir in
  Runner.Manifest.record m ~key:"p1/ollvm" ~payload:"result:p1/ollvm";
  Runner.Manifest.close m;
  let m2 = Runner.Manifest.open_ ~dir in
  let log = ref [] in
  let _, report =
    Runner.run_corpus ~manifest:m2 ~resume:true ~encode:Fun.id ~decode:Fun.id
      (corpus_cells log)
  in
  Runner.Manifest.close m2;
  Alcotest.(check int) "one resumed" 1 report.Runner.r_resumed;
  Alcotest.(check int) "rest recomputed" 2 report.Runner.r_computed;
  Alcotest.(check bool) "completed cell skipped" true
    (not (List.mem "p1/ollvm" !log));
  Gp_harness.Survey.rm_rf dir

let test_run_corpus_failures_not_checkpointed () =
  let dir = tmp_dir () in
  let cells =
    [ ("ok", fun ~attempt:_ _b -> Ok "fine");
      ("bad", fun ~attempt:_ _b ->
          Error (Gp_core.Fail.Emu_fault "unmapped")) ]
  in
  let m = Runner.Manifest.open_ ~dir in
  let _, report =
    Runner.run_corpus ~manifest:m ~encode:Fun.id ~decode:Fun.id cells
  in
  Runner.Manifest.close m;
  Alcotest.(check int) "failure reported" 1 (List.length report.Runner.r_failed);
  let m2 = Runner.Manifest.open_ ~dir in
  Alcotest.(check bool) "failed cell not recorded" true
    (Runner.Manifest.find m2 "bad" = None);
  Alcotest.(check bool) "succeeding cell recorded" true
    (Runner.Manifest.find m2 "ok" <> None);
  (* a resumed run retries the failed cell *)
  let log = ref [] in
  let cells2 =
    [ ("ok", fun ~attempt:_ _b -> log := "ok" :: !log; Ok "fine");
      ("bad", fun ~attempt:_ _b -> log := "bad" :: !log; Ok "fixed") ]
  in
  let _, report2 =
    Runner.run_corpus ~manifest:m2 ~resume:true ~encode:Fun.id ~decode:Fun.id
      cells2
  in
  Runner.Manifest.close m2;
  Alcotest.(check bool) "only the failed cell reruns" true (!log = [ "bad" ]);
  Alcotest.(check int) "now clean" 0 (List.length report2.Runner.r_failed);
  Gp_harness.Survey.rm_rf dir

(* A record whose digest checks but whose body does not decode — a
   payload of another schema, say — is treated as absent: that cell is
   recomputed (and re-recorded) while the others replay, on the
   sequential runner and on the scheduler alike. *)
let test_undecodable_record_recomputed () =
  let module B = Gp_util.Store.Bin in
  let encode v =
    let b = Buffer.create 16 in
    B.str b v;
    Buffer.contents b
  in
  let decode s = B.gstr s (ref 0) in
  let jobs =
    match Sys.getenv_opt "JOBS" with
    | Some s -> (try max 1 (int_of_string s) with _ -> 4)
    | None -> 4
  in
  let check name run =
    let dir = tmp_dir () in
    let m = Runner.Manifest.open_ ~dir in
    List.iter
      (fun key -> Runner.Manifest.record m ~key ~payload:(encode ("result:" ^ key)))
      [ "p1/none"; "p2/none" ];
    Runner.Manifest.record m ~key:"p1/ollvm" ~payload:"x";
    Runner.Manifest.close m;
    let m2 = Runner.Manifest.open_ ~dir in
    let log = ref [] in
    let outcomes, report = run m2 log in
    Runner.Manifest.close m2;
    Alcotest.(check (list string)) (name ^ ": only the bad record recomputed")
      [ "p1/ollvm" ] !log;
    Alcotest.(check int) (name ^ ": others replayed") 2 report.Runner.r_resumed;
    Alcotest.(check int) (name ^ ": one computed") 1 report.Runner.r_computed;
    Alcotest.(check bool) (name ^ ": every result intact") true
      (List.for_all
         (fun c -> c.Runner.c_result = Ok ("result:" ^ c.Runner.c_key))
         outcomes);
    let m3 = Runner.Manifest.open_ ~dir in
    Alcotest.(check bool) (name ^ ": recomputed cell re-recorded") true
      (match Runner.Manifest.find m3 "p1/ollvm" with
       | Some e -> e.Runner.Manifest.e_payload = encode "result:p1/ollvm"
       | None -> false);
    Runner.Manifest.close m3;
    Gp_harness.Survey.rm_rf dir
  in
  check "run_corpus" (fun m log ->
      Runner.run_corpus ~manifest:m ~resume:true ~encode ~decode
        (corpus_cells log));
  check (Printf.sprintf "run_cells (jobs %d)" jobs) (fun m log ->
      Sched.run_cells ~manifest:m ~resume:true ~encode ~decode ~jobs
        (corpus_cells log))

let suite =
  [ Alcotest.test_case "backoff deterministic" `Quick test_backoff_deterministic;
    Alcotest.test_case "backoff keyed by cell" `Quick test_backoff_keyed_by_cell;
    Alcotest.test_case "classify taxonomy" `Quick test_classify;
    Alcotest.test_case "run_cell retries transient" `Quick
      test_run_cell_retries_transient;
    Alcotest.test_case "run_cell permanent no retry" `Quick
      test_run_cell_permanent_no_retry;
    Alcotest.test_case "run_cell gives up at cap" `Quick test_run_cell_gives_up;
    Alcotest.test_case "run_cell catches Budget.Exhausted" `Quick
      test_run_cell_catches_budget_exhausted;
    Alcotest.test_case "run_cell fresh watchdog" `Quick
      test_run_cell_fresh_watchdog_per_attempt;
    Alcotest.test_case "manifest roundtrip" `Quick test_manifest_roundtrip;
    Alcotest.test_case "manifest last record wins" `Quick
      test_manifest_rerecord_wins_last;
    Alcotest.test_case "manifest second writer demotes" `Quick
      test_manifest_second_writer_demotes;
    Alcotest.test_case "manifest torn tail recovers" `Quick
      test_manifest_torn_tail_recovers;
    Alcotest.test_case "manifest every bit flip" `Quick test_manifest_bit_flips;
    Alcotest.test_case "manifest every cut" `Quick test_manifest_cuts;
    Alcotest.test_case "run_corpus resume skips completed" `Quick
      test_run_corpus_resume_skips_completed;
    Alcotest.test_case "run_corpus partial resume" `Quick
      test_run_corpus_partial_resume;
    Alcotest.test_case "run_corpus failures retry on resume" `Quick
      test_run_corpus_failures_not_checkpointed;
    Alcotest.test_case "undecodable manifest record is recomputed" `Quick
      test_undecodable_record_recomputed ]
