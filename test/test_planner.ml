(* Tests for the partial-order planner: instantiation, ordering/threat
   machinery, end-to-end search over small synthetic pools, and the
   compute-once candidate table the portfolio's roots share.  The
   portfolio test honors the JOBS environment variable (default 4), so
   `make check-plan-par` runs it at JOBS=1 and JOBS=4. *)

open Gp_x86

let image_of insns =
  Gp_util.Image.create ~entry:0x400000L ~code:(Encode.insns insns)
    ~data:(Bytes.create 16) ()

let gadget_at image addr =
  Gp_core.Gadget.of_summary (List.hd (Gp_symx.Exec.summarize image addr))

(* A tiny program with everything an execve plan needs. *)
let synthetic_image () =
  let insns =
    [ (* 0: pop rax; ret *)
      Insn.Pop Reg.RAX; Insn.Ret;
      (* 2: pop rdi; ret *)
      Insn.Pop Reg.RDI; Insn.Ret;
      (* 4: pop rsi; ret *)
      Insn.Pop Reg.RSI; Insn.Ret;
      (* 6: pop rdx; ret *)
      Insn.Pop Reg.RDX; Insn.Ret;
      (* 8: syscall *)
      Insn.Syscall;
      Insn.Hlt ]
  in
  image_of insns

let offsets = [ 0; 2; 4; 6; 8 ]

let synthetic_pool image =
  let base = image.Gp_util.Image.code_base in
  (* byte offsets of the instruction starts *)
  let addrs = List.map (fun k -> Int64.add base (Int64.of_int k)) offsets in
  Gp_core.Pool.build (List.map (gadget_at image) addrs)

let test_instantiate_pop () =
  let image = synthetic_image () in
  let g = gadget_at image 0x400002L in
  match Gp_core.Plan.instantiate_for g (Gp_core.Plan.Creg (Reg.RDI, 0x1234L)) ~sid:3 with
  | Some s ->
    Alcotest.(check int) "sid" 3 s.Gp_core.Plan.sid;
    Alcotest.(check bool) "binding slot0=0x1234" true
      (List.mem (0, 0x1234L) s.Gp_core.Plan.bindings);
    Alcotest.(check bool) "no demands" true (s.Gp_core.Plan.demands = []);
    Alcotest.(check bool) "effect rdi" true
      (List.assoc_opt Reg.RDI s.Gp_core.Plan.effects = Some 0x1234L)
  | None -> Alcotest.fail "pop rdi should instantiate"

let test_instantiate_wrong_reg_fails () =
  let image = synthetic_image () in
  let g = gadget_at image 0x400002L in
  (* pop rdi cannot deliver rbx *)
  Alcotest.(check bool) "no rbx" true
    (Gp_core.Plan.instantiate_for g (Gp_core.Plan.Creg (Reg.RBX, 1L)) ~sid:0 = None)

let test_instantiate_goal () =
  let image = synthetic_image () in
  let g = gadget_at image 0x400008L in
  let goal =
    { Gp_core.Goal.goal = Gp_core.Goal.Mprotect (Gp_emu.Machine.stack_base, 0x1000L, 7L);
      regs =
        [ (Reg.RAX, 10L); (Reg.RDI, Gp_emu.Machine.stack_base); (Reg.RSI, 0x1000L);
          (Reg.RDX, 7L) ];
      mem = [] }
  in
  match Gp_core.Plan.instantiate_goal g goal ~sid:0 with
  | Some s ->
    Alcotest.(check bool) "goal step" true s.Gp_core.Plan.is_goal;
    (* the bare syscall's registers pass through: all four demands *)
    Alcotest.(check int) "4 demands" 4 (List.length s.Gp_core.Plan.demands)
  | None -> Alcotest.fail "syscall should instantiate as goal"

let test_ordering_cycle_rejected () =
  let p = { Gp_core.Plan.steps = []; orderings = [ (1, 2); (2, 3) ]; links = [];
            open_conds = []; next_sid = 4 } in
  (match Gp_core.Plan.add_ordering p 3 1 with
   | None -> ()
   | Some _ -> Alcotest.fail "cycle must be rejected");
  match Gp_core.Plan.add_ordering p 1 3 with
  | Some _ -> ()
  | None -> Alcotest.fail "redundant consistent ordering must be accepted"

let test_search_finds_validated_plans () =
  let image = synthetic_image () in
  let pool = synthetic_pool image in
  let goal =
    Gp_core.Goal.concretize image
      (Gp_core.Goal.Mprotect (Gp_emu.Machine.stack_base, 0x1000L, 7L))
  in
  let accepted = ref [] in
  let accept p =
    match Gp_core.Payload.build_opt p goal with
    | Some c when Gp_core.Payload.validate image c ->
      accepted := c :: !accepted;
      true
    | _ -> false
  in
  let config =
    { Gp_core.Planner.max_plans = 3; node_budget = 2000; time_budget = 30.;
      branch_cap = 8; goal_cap = 4; max_steps = 10 }
  in
  let r =
    Gp_core.Planner.search_par ~config ~accept_for:(fun _ -> accept) pool goal
  in
  Alcotest.(check bool) "found plans" true (List.length r.Gp_core.Planner.plans >= 1);
  (* every accepted chain sets the goal registers via validated execution *)
  Alcotest.(check bool) "validated" true (!accepted <> [])

let test_search_impossible_goal () =
  (* a pool without a syscall gadget can never reach the goal *)
  let image = image_of [ Insn.Pop Reg.RDI; Insn.Ret ] in
  let pool = Gp_core.Pool.build [ gadget_at image 0x400000L ] in
  let goal = Gp_core.Goal.concretize image (Gp_core.Goal.Mmap (0L, 0x1000L, 7L)) in
  let r = Gp_core.Planner.search_par pool goal in
  Alcotest.(check int) "no plans" 0 (List.length r.Gp_core.Planner.plans);
  Alcotest.(check bool) "search exhausted" true r.Gp_core.Planner.exhausted

let test_threat_resolution_orders_conflicting_setters () =
  (* two steps that both write rdi: the planner must order them so the
     goal's consumer sees the right value; we test the primitive *)
  let image = synthetic_image () in
  let g = gadget_at image 0x400002L in
  let s1 = Option.get (Gp_core.Plan.instantiate_for g (Gp_core.Plan.Creg (Reg.RDI, 1L)) ~sid:1) in
  let s2 = Option.get (Gp_core.Plan.instantiate_for g (Gp_core.Plan.Creg (Reg.RDI, 2L)) ~sid:2) in
  let p =
    { Gp_core.Plan.steps = [ s1; s2 ]; orderings = [];
      links = [ (1, Gp_core.Plan.Creg (Reg.RDI, 1L), 0) ];
      open_conds = []; next_sid = 3 }
  in
  (* s2 (writing rdi=2) threatens the link (1 -> rdi=1 -> 0): it must be
     ordered before step 1 or after step 0 *)
  match Gp_core.Plan.protect_link p 1 (Gp_core.Plan.Creg (Reg.RDI, 1L)) 0 with
  | Some p' ->
    Alcotest.(check bool) "ordering added" true
      (List.mem (2, 1) p'.Gp_core.Plan.orderings
      || List.mem (0, 2) p'.Gp_core.Plan.orderings)
  | None -> Alcotest.fail "threat should be resolvable"

let test_same_value_clobber_is_no_threat () =
  let image = synthetic_image () in
  let g = gadget_at image 0x400002L in
  let s = Option.get (Gp_core.Plan.instantiate_for g (Gp_core.Plan.Creg (Reg.RDI, 1L)) ~sid:5) in
  Alcotest.(check bool) "same value harmless" false
    (Gp_core.Plan.clobbers s (Gp_core.Plan.Creg (Reg.RDI, 1L)));
  Alcotest.(check bool) "different value threat" true
    (Gp_core.Plan.clobbers s (Gp_core.Plan.Creg (Reg.RDI, 9L)))

(* Two syscall roots over one pool: the portfolio asks each root's
   register conditions. *)
let two_root_image () =
  image_of
    [ Insn.Pop Reg.RAX; Insn.Ret;      (* 0 *)
      Insn.Pop Reg.RDI; Insn.Ret;      (* 2 *)
      Insn.Pop Reg.RSI; Insn.Ret;      (* 4 *)
      Insn.Pop Reg.RDX; Insn.Ret;      (* 6 *)
      Insn.Syscall; Insn.Hlt;          (* 8 *)
      Insn.Pop Reg.RDX; Insn.Syscall;  (* 11: pop rdx; syscall *)
      Insn.Hlt ]

let jobs_under_test =
  match Sys.getenv_opt "JOBS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

(* The portfolio's roots share one candidate table per call: each
   condition is ranked once, the second root takes the first root's
   rankings, and the templates it takes still get fresh step ids.  The
   whole result is the same at jobs 1 and JOBS. *)
let test_shared_candidate_table () =
  let image = two_root_image () in
  let base = image.Gp_util.Image.code_base in
  let pool =
    Gp_core.Pool.build
      (List.map
         (fun k -> gadget_at image (Int64.add base (Int64.of_int k)))
         [ 0; 2; 4; 6; 8; 11 ])
  in
  Alcotest.(check int) "two roots" 2
    (List.length pool.Gp_core.Pool.syscall_gadgets);
  let goal =
    Gp_core.Goal.concretize image
      (Gp_core.Goal.Mprotect (Gp_emu.Machine.stack_base, 0x1000L, 7L))
  in
  let config =
    { Gp_core.Planner.max_plans = 3; node_budget = 2000; time_budget = 30.;
      branch_cap = 8; goal_cap = 4; max_steps = 10 }
  in
  let run jobs = Gp_core.Planner.search_par ~config ~jobs pool goal in
  let r1 = run 1 and rn = run jobs_under_test in
  List.iter
    (fun (r : Gp_core.Planner.result) ->
      Alcotest.(check int) "one ranking per condition" r.conditions r.rankings;
      Alcotest.(check bool) "roots share rankings" true (r.inst_memo_hits > 0);
      Alcotest.(check bool) "plans found" true (r.plans <> []);
      List.iter
        (fun (p : Gp_core.Plan.t) ->
          let sids = List.map (fun (s : Gp_core.Plan.step) -> s.sid) p.steps in
          Alcotest.(check int) "fresh step ids"
            (List.length sids) (List.length (List.sort_uniq compare sids)))
        r.plans)
    [ r1; rn ];
  let counters (r : Gp_core.Planner.result) =
    [ r.rankings; r.inst_memo_hits; r.cand_memo_hits; r.expanded ]
  in
  Alcotest.(check (list int)) "counters jobs-invariant" (counters r1)
    (counters rn);
  Alcotest.(check (list string)) "plans jobs-invariant"
    (List.map Gp_core.Plan.signature r1.plans)
    (List.map Gp_core.Plan.signature rn.plans)

(* [Once.get] from four domains at once: the first caller computes, the
   others find the cell pending and wait — [f] must not run again.  [f]
   holds the cell until every domain has asked. *)
let once_race f =
  let t = Gp_core.Planner.Once.create () in
  let runs = Atomic.make 0 and arrived = Atomic.make 0 in
  let compute k =
    Atomic.incr runs;
    while Atomic.get arrived < 4 do Domain.cpu_relax () done;
    Unix.sleepf 0.02;
    f k
  in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr arrived;
            match Gp_core.Planner.Once.get t 7 compute with
            | v -> Ok v
            | exception e -> Error e))
  in
  let results = List.map Domain.join doms in
  (t, Atomic.get runs, results)

let test_once_computes_once () =
  let t, runs, results = once_race (fun k -> ref k) in
  Alcotest.(check int) "f ran once" 1 runs;
  match results with
  | Ok (v0, _) :: _ ->
    List.iter
      (function
        | Ok (v, _) -> Alcotest.(check bool) "same value" true (v == v0)
        | Error e -> Alcotest.failf "raised %s" (Printexc.to_string e))
      results;
    Alcotest.(check int) "one caller computed" 1
      (List.length (List.filter (function Ok (_, c) -> c | _ -> false) results));
    Alcotest.(check int) "one key" 1 (Gp_core.Planner.Once.length t);
    let v, computed = Gp_core.Planner.Once.get t 7 (fun _ -> ref 0) in
    Alcotest.(check bool) "later get is a hit" true (v == v0 && not computed)
  | _ -> Alcotest.fail "first caller raised"

let test_once_failure_reaches_every_caller () =
  let t, runs, results = once_race (fun _ -> failwith "boom") in
  Alcotest.(check int) "f ran once" 1 runs;
  List.iter
    (function
      | Error (Failure m) -> Alcotest.(check string) "stored exception" "boom" m
      | Error e -> Alcotest.failf "unexpected %s" (Printexc.to_string e)
      | Ok _ -> Alcotest.fail "a caller got a value")
    results;
  match Gp_core.Planner.Once.get t 7 (fun _ -> ref 0) with
  | exception Failure m -> Alcotest.(check string) "re-raised later" "boom" m
  | _ -> Alcotest.fail "a failed key must stay failed"

let suite =
  [ Alcotest.test_case "instantiate pop" `Quick test_instantiate_pop;
    Alcotest.test_case "wrong register fails" `Quick test_instantiate_wrong_reg_fails;
    Alcotest.test_case "instantiate goal" `Quick test_instantiate_goal;
    Alcotest.test_case "ordering cycles rejected" `Quick test_ordering_cycle_rejected;
    Alcotest.test_case "search finds validated plans" `Quick
      test_search_finds_validated_plans;
    Alcotest.test_case "impossible goal exhausts" `Quick test_search_impossible_goal;
    Alcotest.test_case "threat resolution" `Quick
      test_threat_resolution_orders_conflicting_setters;
    Alcotest.test_case "same-value clobber" `Quick test_same_value_clobber_is_no_threat;
    Alcotest.test_case "shared candidate table" `Quick
      test_shared_candidate_table;
    Alcotest.test_case "compute-once: four domains, one computation" `Quick
      test_once_computes_once;
    Alcotest.test_case "compute-once: failure reaches every caller" `Quick
      test_once_failure_reaches_every_caller ]
