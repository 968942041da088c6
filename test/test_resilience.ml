(* Resilience layer tests: budgets, fault quarantine, the degradation
   ladder, and deterministic fault injection (DESIGN.md "Failure model &
   budgets").  The invariant under test throughout: no uncaught
   exception ever escapes Api.analyze / Api.run, whatever is injected,
   and every run terminates with a well-formed outcome. *)

open Gp_x86

let image_of insns =
  Gp_util.Image.create ~entry:0x400000L ~code:(Encode.insns insns)
    ~data:(Bytes.create 16) ()

(* The planner-test synthetic program: pop gadgets for every execve
   register plus a syscall. *)
let synthetic_image () =
  image_of
    [ Insn.Pop Reg.RAX; Insn.Ret;
      Insn.Pop Reg.RDI; Insn.Ret;
      Insn.Pop Reg.RSI; Insn.Ret;
      Insn.Pop Reg.RDX; Insn.Ret;
      Insn.Syscall;
      Insn.Hlt ]

let fib_image =
  lazy
    (Gp_codegen.Pipeline.compile
       ~transform:(Gp_obf.Obf.transform Gp_obf.Obf.none)
       (Gp_corpus.Programs.find "fibonacci").Gp_corpus.Programs.source)

let planner_config =
  { Gp_core.Planner.max_plans = 4; node_budget = 1200; time_budget = 10.;
    branch_cap = 10; goal_cap = 6; max_steps = 14 }

(* ----- Budget unit tests ----- *)

let test_budget_fuel () =
  let b = Gp_core.Budget.create ~label:"t" ~fuel:2 () in
  Gp_core.Budget.check b;
  Gp_core.Budget.spend b;
  Gp_core.Budget.check b;
  Gp_core.Budget.spend b;
  (match Gp_core.Budget.check b with
   | () -> Alcotest.fail "fuel 0 must raise"
   | exception Gp_core.Budget.Exhausted ("t", Gp_core.Budget.Fuel) -> ());
  Alcotest.(check bool) "exhausted" true (Gp_core.Budget.exhausted b);
  Alcotest.(check bool) "hit recorded" true
    (Gp_core.Budget.hit b = Some Gp_core.Budget.Fuel)

let test_budget_deadline_and_monotonic_clock () =
  let t = ref 1000. in
  Fun.protect ~finally:Gp_core.Budget.reset_clock (fun () ->
      Gp_core.Budget.set_clock (fun () -> !t);
      let b = Gp_core.Budget.create ~label:"d" ~seconds:50. () in
      Gp_core.Budget.check b;
      Alcotest.(check bool) "not yet" false (Gp_core.Budget.exhausted b);
      (* the clock stepping BACKWARDS must not re-open anything later *)
      t := 900.;
      Alcotest.(check bool) "clamped" true (Gp_core.Budget.now () >= 1000.);
      t := 1051.;
      Alcotest.(check bool) "deadline passed" true (Gp_core.Budget.exhausted b);
      (match
         (* polls read the clock every 32nd call: drain a window *)
         for _ = 1 to 64 do Gp_core.Budget.check b done
       with
       | () -> Alcotest.fail "deadline must raise"
       | exception Gp_core.Budget.Exhausted ("d", Gp_core.Budget.Deadline) -> ()))

let test_budget_sub_inherits_deadline () =
  let parent = Gp_core.Budget.create ~seconds:100. () in
  let child = Gp_core.Budget.sub parent ~label:"c" ~seconds:5. () in
  Alcotest.(check bool) "child slice" true
    (Gp_core.Budget.remaining_seconds child <= 5.);
  let wide = Gp_core.Budget.sub parent ~label:"w" ~seconds:1000. () in
  (* a child can never outlive its parent *)
  Alcotest.(check bool) "clamped to parent" true
    (Gp_core.Budget.remaining_seconds wide <= 100.);
  let half = Gp_core.Budget.sub parent ~label:"h" ~fraction:0.5 () in
  let r = Gp_core.Budget.remaining_seconds half in
  Alcotest.(check bool) "fraction slice" true (r > 10. && r <= 51.);
  (* unlimited stays unlimited through fractions *)
  let u = Gp_core.Budget.unlimited () in
  let uc = Gp_core.Budget.sub u ~fraction:0.5 () in
  Alcotest.(check bool) "unlimited child" true
    (Gp_core.Budget.remaining_seconds uc = infinity)

let test_emu_fuel () =
  Alcotest.(check int) "unlimited yields cap" 5_000_000
    (Gp_core.Budget.emu_fuel (Gp_core.Budget.unlimited ()));
  let tight = Gp_core.Budget.create ~seconds:0.01 () in
  let f = Gp_core.Budget.emu_fuel ~per_second:1_000 ~cap:5_000_000 tight in
  Alcotest.(check bool) "scaled down" true (f >= 1 && f <= 20);
  let dead = Gp_core.Budget.create ~seconds:(-1.) () in
  Alcotest.(check int) "dead budget" 0 (Gp_core.Budget.emu_fuel dead)

let test_fail_tally () =
  let t = Gp_core.Fail.tally_create () in
  Gp_core.Fail.tally_add t (Gp_core.Fail.Decode_fault (1L, "x"));
  Gp_core.Fail.tally_add t (Gp_core.Fail.Decode_fault (2L, "y"));
  Gp_core.Fail.tally_add t (Gp_core.Fail.Solver_unknown "z");
  Alcotest.(check int) "decode" 2 (Gp_core.Fail.tally_count t "decode");
  Alcotest.(check int) "total" 3 (Gp_core.Fail.tally_total t);
  Alcotest.(check (list (pair string int)))
    "merge"
    [ ("decode", 3); ("solver-unknown", 1) ]
    (Gp_core.Fail.merge_counts (Gp_core.Fail.tally_list t) [ ("decode", 1) ])

(* ----- fault distinction in the emulator ----- *)

let test_timeout_vs_fault () =
  (* an infinite loop times out; it does not fault *)
  let looping = image_of [ Insn.Jmp (-5) ] in
  (match Gp_emu.Machine.run ~fuel:100 (Gp_emu.Machine.create looping) with
   | Gp_emu.Machine.Timeout -> ()
   | o -> Alcotest.failf "loop: expected Timeout, got %s"
            (match o with
             | Gp_emu.Machine.Fault m -> "Fault " ^ m
             | Gp_emu.Machine.Exited _ -> "Exited"
             | _ -> "Attacked"));
  (* an unmapped read faults; it does not time out *)
  let crashing = image_of [ Insn.Mov (Insn.Reg Reg.RAX, Insn.Mem (Insn.mem Reg.RAX)) ] in
  (match Gp_emu.Machine.run ~fuel:100 (Gp_emu.Machine.create crashing) with
   | Gp_emu.Machine.Fault _ -> ()
   | _ -> Alcotest.fail "unmapped read must Fault")

let test_validate_run_distinguishes () =
  let image = Lazy.force fib_image in
  let a = Gp_core.Api.analyze image in
  let o =
    Gp_core.Api.run_with_analysis ~planner_config a
      (Gp_core.Goal.Execve "/bin/sh")
  in
  match o.Gp_core.Api.chains with
  | [] -> Alcotest.fail "expected chains on fibonacci"
  | c :: _ ->
    (match Gp_core.Payload.validate_run image c with
     | Gp_emu.Machine.Attacked _ -> ()
     | _ -> Alcotest.fail "full fuel must reach the goal");
    (match Gp_core.Payload.validate_run ~fuel:1 image c with
     | Gp_emu.Machine.Timeout -> ()
     | _ -> Alcotest.fail "fuel 1 must Timeout, not Fault")

(* ----- quarantine paths ----- *)

let test_truncated_decode_at_edge () =
  (* valid gadgets followed by a lone REX prefix: the truncated window
     must be skipped, never thrown on *)
  let good = Encode.insns [ Insn.Pop Reg.RDI; Insn.Ret ] in
  let code = Bytes.cat good (Bytes.of_string "\x48") in
  let image = Gp_util.Image.create ~entry:0x400000L ~code ~data:(Bytes.create 16) () in
  let a = Gp_core.Api.analyze image in
  Alcotest.(check bool) "pop rdi survives" true
    (List.exists
       (fun (g : Gp_core.Gadget.t) -> g.Gp_core.Gadget.addr = 0x400000L)
       a.Gp_core.Api.gadgets)

let test_chaos_decode_quarantines () =
  let image = synthetic_image () in
  let saved = !Gp_core.Extract.chaos_decode in
  Fun.protect
    ~finally:(fun () -> Gp_core.Extract.chaos_decode := saved)
    (fun () ->
      (* poison exactly the pop-rdi start *)
      Gp_core.Extract.chaos_decode := (fun addr -> addr = 0x400002L);
      let gadgets, st = Gp_core.Extract.harvest_r image in
      Alcotest.(check int) "one quarantined" 1
        (match List.assoc_opt "decode" st.Gp_core.Extract.h_quarantined with
         | Some n -> n
         | None -> 0);
      Alcotest.(check bool) "poisoned start gone" false
        (List.exists
           (fun (g : Gp_core.Gadget.t) -> g.Gp_core.Gadget.addr = 0x400002L)
           gadgets);
      Alcotest.(check bool) "other starts survive" true
        (List.exists
           (fun (g : Gp_core.Gadget.t) -> g.Gp_core.Gadget.addr = 0x400000L)
           gadgets))

let test_harvest_budget_cuts_short () =
  let image = Lazy.force fib_image in
  let full = Gp_core.Extract.harvest image in
  let cut, st =
    Gp_core.Extract.harvest_r ~budget:(Gp_core.Budget.create ~fuel:5 ()) image
  in
  Alcotest.(check bool) "budget hit" true st.Gp_core.Extract.h_budget_hit;
  Alcotest.(check int) "five starts examined" 5 st.Gp_core.Extract.h_starts;
  Alcotest.(check bool) "partial harvest" true
    (List.length cut < List.length full)

(* A root budget already dry at stage 2's entry skips the stage: the
   harvest passes through as the pool, untouched, and "subsume" is
   recorded as a budget hit. *)
let test_stage_subsume_dry_budget () =
  let image = synthetic_image () in
  let ex = Gp_core.Api.stage_extract image in
  let ids = List.map (fun (g : Gp_core.Gadget.t) -> g.Gp_core.Gadget.id) in
  let live, _ = Gp_core.Api.stage_subsume ex in
  Alcotest.(check bool) "live budget: no hit" false
    (List.mem "subsume" live.Gp_core.Api.analysis_budget_hits);
  let dry = Gp_core.Budget.create ~label:"dry" ~seconds:(-1.) () in
  let a, harvested = Gp_core.Api.stage_subsume ~budget:dry ex in
  Alcotest.(check bool) "harvest non-empty" true (harvested <> []);
  Alcotest.(check (list int)) "harvest passes through" (ids harvested)
    (ids a.Gp_core.Api.gadgets);
  Alcotest.(check bool) "subsume hit" true
    (List.mem "subsume" a.Gp_core.Api.analysis_budget_hits);
  Alcotest.(check int) "deduped - capped = pool"
    (Gp_core.Pool.size a.Gp_core.Api.pool)
    (a.Gp_core.Api.deduped - a.Gp_core.Api.subsume_capped)

let test_planner_budget_hit () =
  let image = synthetic_image () in
  let pool = Gp_core.Pool.build (Gp_core.Extract.harvest image) in
  let concrete = Gp_core.Goal.concretize image (Gp_core.Goal.Execve "/bin/sh") in
  let r =
    Gp_core.Planner.search_par
      ~config:{ planner_config with Gp_core.Planner.node_budget = 1 }
      pool concrete
  in
  Alcotest.(check bool) "budget hit" true r.Gp_core.Planner.budget_hit;
  Alcotest.(check bool) "not exhausted" false r.Gp_core.Planner.exhausted;
  Alcotest.(check int) "one expansion" 1 r.Gp_core.Planner.expanded

(* ----- fault injection ----- *)

let test_faultsim_solver_unknowns () =
  let sat_formula =
    Gp_smt.Formula.Eq (Gp_smt.Term.Const 1L, Gp_smt.Term.Const 1L)
  in
  let cfg = { Gp_harness.Faultsim.disabled with solver_rate = 1.; seed = 3 } in
  let u0 = Atomic.get Gp_smt.Solver.unknowns in
  Gp_harness.Faultsim.with_faults cfg (fun () ->
      match Gp_smt.Solver.check [ sat_formula ] with
      | Gp_smt.Solver.Unknown -> ()
      | _ -> Alcotest.fail "injected query must be Unknown");
  Alcotest.(check bool) "counter bumped" true
    (Atomic.get Gp_smt.Solver.unknowns > u0);
  (* hooks restored: the same query decides again *)
  match Gp_smt.Solver.check [ sat_formula ] with
  | Gp_smt.Solver.Sat _ -> ()
  | _ -> Alcotest.fail "hook not restored"

let test_faultsim_machine_fuse () =
  let looping = image_of [ Insn.Jmp (-5) ] in
  let cfg = { Gp_harness.Faultsim.disabled with mem_rate = 1.; seed = 5 } in
  Gp_harness.Faultsim.with_faults cfg (fun () ->
      match Gp_emu.Machine.run ~fuel:200_000 (Gp_emu.Machine.create looping) with
      | Gp_emu.Machine.Fault "injected fault" -> ()
      | _ -> Alcotest.fail "armed fuse must trip");
  match Gp_emu.Machine.run ~fuel:100 (Gp_emu.Machine.create looping) with
  | Gp_emu.Machine.Timeout -> ()
  | _ -> Alcotest.fail "fuse not disarmed"

let test_faultsim_clock_skips () =
  let cfg =
    { Gp_harness.Faultsim.disabled with
      clock_skip_rate = 1.; clock_skip_s = 10.; seed = 7 }
  in
  Gp_harness.Faultsim.with_faults cfg (fun () ->
      let b = Gp_core.Budget.create ~label:"skew" ~seconds:30. () in
      match
        for _ = 1 to 10_000 do Gp_core.Budget.check b done
      with
      | () -> Alcotest.fail "skipping clock must exhaust the deadline"
      | exception Gp_core.Budget.Exhausted ("skew", Gp_core.Budget.Deadline) ->
        ())

(* ----- pipeline-level behavior ----- *)

let test_run_matches_seed_pipeline () =
  (* with no budget and no injection, the ladder's Full rung IS the seed
     pipeline: same chains, and no further rung is attempted *)
  let image = Lazy.force fib_image in
  let goal = Gp_core.Goal.Execve "/bin/sh" in
  let a = Gp_core.Api.analyze image in
  let seed_o = Gp_core.Api.run_with_analysis ~planner_config a goal in
  let ladder_o = Gp_core.Api.run ~planner_config image goal in
  Alcotest.(check (list string))
    "same chains"
    (List.sort compare (List.map Gp_core.Payload.chain_set_key seed_o.Gp_core.Api.chains))
    (List.sort compare (List.map Gp_core.Payload.chain_set_key ladder_o.Gp_core.Api.chains));
  Alcotest.(check bool) "single Full rung" true
    (ladder_o.Gp_core.Api.rungs = [ Gp_core.Api.Full ]);
  Alcotest.(check bool) "chains found" true (ladder_o.Gp_core.Api.chains <> [])

let all_rungs =
  [ Gp_core.Api.Full; Gp_core.Api.Dedup_only; Gp_core.Api.Wider_branch;
    Gp_core.Api.Relaxed_steps ]

let test_ladder_descends_on_zero_chains () =
  (* no syscall gadget anywhere: every rung fails fast, all four are
     recorded, and the outcome is still well-formed *)
  let image = image_of [ Insn.Pop Reg.RDI; Insn.Ret; Insn.Hlt ] in
  let o = Gp_core.Api.run ~planner_config image (Gp_core.Goal.Execve "/bin/sh") in
  Alcotest.(check bool) "no chains" true (o.Gp_core.Api.chains = []);
  Alcotest.(check bool) "all rungs tried" true (o.Gp_core.Api.rungs = all_rungs)

let test_run_with_dead_budget () =
  (* a budget that is exhausted before stage 1 must still produce a
     well-formed outcome, with the hit recorded and no ladder descent *)
  let image = synthetic_image () in
  let o =
    Gp_core.Api.run ~planner_config
      ~budget:(Gp_core.Budget.create ~label:"dead" ~seconds:(-1.) ())
      image (Gp_core.Goal.Execve "/bin/sh")
  in
  Alcotest.(check bool) "no chains" true (o.Gp_core.Api.chains = []);
  Alcotest.(check bool) "rungs = [Full]" true
    (o.Gp_core.Api.rungs = [ Gp_core.Api.Full ]);
  Alcotest.(check bool) "extract hit recorded" true
    (List.mem "extract" o.Gp_core.Api.stats.Gp_core.Api.budget_hits)

let well_formed (o : Gp_core.Api.outcome) =
  let st = o.Gp_core.Api.stats in
  List.length o.Gp_core.Api.chains = st.Gp_core.Api.chains_validated
  && st.Gp_core.Api.chains_built >= st.Gp_core.Api.chains_validated
  && o.Gp_core.Api.rungs <> []
  && List.hd o.Gp_core.Api.rungs = Gp_core.Api.Full
  && List.for_all (fun (_, n) -> n > 0) st.Gp_core.Api.quarantined

let test_sweep_under_injection () =
  (* the acceptance criterion: 10% faults across decode/solver/memory, a
     bounded budget, and every (program x goal) run must terminate with
     a well-formed outcome and zero uncaught exceptions *)
  let image = Lazy.force fib_image in
  let cfg = Gp_harness.Faultsim.uniform ~seed:11 0.1 in
  let t0 = Unix.gettimeofday () in
  Gp_harness.Faultsim.with_faults cfg (fun () ->
      List.iter
        (fun goal ->
          let o =
            Gp_core.Api.run ~planner_config
              ~budget:(Gp_core.Budget.create ~label:"sweep" ~seconds:6. ())
              image goal
          in
          Alcotest.(check bool)
            (Gp_core.Goal.name goal ^ " well-formed") true (well_formed o);
          (* 10% decode faults over hundreds of starts: the quarantine
             ledger cannot be empty *)
          Alcotest.(check bool)
            (Gp_core.Goal.name goal ^ " quarantined some") true
            (o.Gp_core.Api.stats.Gp_core.Api.quarantined <> []))
        [ Gp_core.Goal.Execve "/bin/sh";
          Gp_core.Goal.Mmap (0L, 0x1000L, 7L) ]);
  (* termination inside the budget, with slack for the ladder *)
  Alcotest.(check bool) "terminates promptly" true
    (Unix.gettimeofday () -. t0 < 60.)

let test_summarize_r_consistency () =
  (* summarize is summarize_r's first component; no refusal on the
     synthetic program *)
  let image = synthetic_image () in
  let s, refused = Gp_symx.Exec.summarize_r image 0x400000L in
  Alcotest.(check bool) "no refusal" true (refused = None);
  Alcotest.(check int) "same summaries"
    (List.length (Gp_symx.Exec.summarize image 0x400000L))
    (List.length s)

(* ----- resumable sweeps (DESIGN.md §13) ----- *)

let jobs_under_test =
  match Sys.getenv_opt "JOBS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "gp-resil-test-%d-%d" (Unix.getpid ()) !n)
    in
    Gp_harness.Survey.rm_rf d;
    d

(* The crash/resume differential on the supervised sequential runner:
   kill a checkpointed [Runner.run_corpus] sweep at each injected crash
   point, resume the manifest it left in a fresh world on the scheduler
   at JOBS workers, and require the resumed sweep's encoded payloads to
   equal an uninterrupted sequential reference byte for byte.  (The
   scheduler crashing itself is covered in test_sweep.)  JOBS sweeps
   the job count (make check-resume runs 1 and 4). *)
let crash_cells () =
  Gp_harness.Survey.sweep_cell_steps ~goal:(Gp_core.Goal.Execve "/bin/sh")
    { Gp_harness.Survey.entries = [ Gp_corpus.Programs.find "fibonacci" ];
      configs =
        List.filter
          (fun (n, _) -> n = "original" || n = "tigress")
          Gp_harness.Workspace.obf_configs }

let sweep_payloads outcomes =
  List.map
    (fun (c : Gp_harness.Survey.resume_payload
             Gp_harness.Runner.cell_outcome) ->
      match c.Gp_harness.Runner.c_result with
      | Ok p ->
        (c.Gp_harness.Runner.c_key,
         Gp_harness.Survey.resume_payload_encode p)
      | Error f ->
        (c.Gp_harness.Runner.c_key, "FAIL:" ^ Gp_core.Fail.label f))
    outcomes

let sequential_run ~manifest ~resume =
  Gp_harness.Runner.run_corpus ~manifest ~resume
    ~encode:Gp_harness.Survey.resume_payload_encode
    ~decode:Gp_harness.Survey.resume_payload_decode
    (Gp_harness.Survey.sweep_cells_sequential (crash_cells ()))

let scheduled_run ~jobs ~manifest ~resume =
  Gp_harness.Sched.run_cells ~manifest ~resume
    ~encode:Gp_harness.Survey.resume_payload_encode
    ~decode:Gp_harness.Survey.resume_payload_decode ~jobs (crash_cells ())

let check_crash_resume jobs () =
  let refdir = tmp_dir () in
  Gp_harness.Survey.reset_world ();
  let ro, _ = Gp_harness.Survey.sweep ~dir:refdir ~resume:false sequential_run in
  let reference = sweep_payloads ro in
  Gp_harness.Survey.rm_rf refdir;
  Alcotest.(check int) "reference covers the grid" 2 (List.length reference);
  List.iter
    (fun (point, hits) ->
      let dir = tmp_dir () in
      Gp_harness.Survey.reset_world ();
      let crashed =
        match
          Gp_harness.Faultsim.with_crash_at ~hits ~point (fun () ->
              Gp_harness.Survey.sweep ~dir ~resume:false sequential_run)
        with
        | Ok _ -> false
        | Error p ->
          Alcotest.(check string) "died at the armed point" point p;
          true
      in
      Alcotest.(check bool) (point ^ ": fuse fired") true crashed;
      Gp_harness.Survey.reset_world ();
      let ro2, report =
        Gp_harness.Survey.sweep ~dir ~resume:true (scheduled_run ~jobs)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s (jobs %d): resume == uninterrupted" point jobs)
        true
        (sweep_payloads ro2 = reference);
      Alcotest.(check int)
        (point ^ ": resume covers everything")
        2
        (report.Gp_harness.Runner.r_resumed
         + report.Gp_harness.Runner.r_computed);
      Gp_harness.Survey.rm_rf dir)
    (* the second manifest append: one cell is durable, the other lost *)
    [ ("wal-append", 2); ("mid-stage", 2) ]

let suite =
  [ Alcotest.test_case "budget fuel" `Quick test_budget_fuel;
    Alcotest.test_case "budget deadline + monotonic clock" `Quick
      test_budget_deadline_and_monotonic_clock;
    Alcotest.test_case "budget sub inheritance" `Quick
      test_budget_sub_inherits_deadline;
    Alcotest.test_case "emu fuel scaling" `Quick test_emu_fuel;
    Alcotest.test_case "fail tallies" `Quick test_fail_tally;
    Alcotest.test_case "timeout vs fault" `Quick test_timeout_vs_fault;
    Alcotest.test_case "validate_run distinguishes" `Slow
      test_validate_run_distinguishes;
    Alcotest.test_case "truncated decode at edge" `Quick
      test_truncated_decode_at_edge;
    Alcotest.test_case "chaos decode quarantines" `Quick
      test_chaos_decode_quarantines;
    Alcotest.test_case "harvest budget cuts short" `Quick
      test_harvest_budget_cuts_short;
    Alcotest.test_case "stage_subsume dry budget passes through" `Quick
      test_stage_subsume_dry_budget;
    Alcotest.test_case "planner budget hit" `Quick test_planner_budget_hit;
    Alcotest.test_case "faultsim solver unknowns" `Quick
      test_faultsim_solver_unknowns;
    Alcotest.test_case "faultsim machine fuse" `Quick
      test_faultsim_machine_fuse;
    Alcotest.test_case "faultsim clock skips" `Quick test_faultsim_clock_skips;
    Alcotest.test_case "run matches seed pipeline" `Slow
      test_run_matches_seed_pipeline;
    Alcotest.test_case "ladder descends on zero chains" `Quick
      test_ladder_descends_on_zero_chains;
    Alcotest.test_case "dead budget still well-formed" `Quick
      test_run_with_dead_budget;
    Alcotest.test_case "sweep under 10% injection" `Slow
      test_sweep_under_injection;
    Alcotest.test_case "summarize_r consistency" `Quick
      test_summarize_r_consistency;
    Alcotest.test_case
      (Printf.sprintf "crash/resume differential (jobs %d)" jobs_under_test)
      `Slow
      (check_crash_resume jobs_under_test) ]
