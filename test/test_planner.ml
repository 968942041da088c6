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
    Gp_core.Planner.search ~config ~accept pool goal
  in
  Alcotest.(check bool) "found plans" true (List.length r.Gp_core.Planner.plans >= 1);
  (* every accepted chain sets the goal registers via validated execution *)
  Alcotest.(check bool) "validated" true (!accepted <> [])

let test_search_impossible_goal () =
  (* a pool without a syscall gadget can never reach the goal *)
  let image = image_of [ Insn.Pop Reg.RDI; Insn.Ret ] in
  let pool = Gp_core.Pool.build [ gadget_at image 0x400000L ] in
  let goal = Gp_core.Goal.concretize image (Gp_core.Goal.Mmap (0L, 0x1000L, 7L)) in
  let r = Gp_core.Planner.search pool goal in
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

(* The portfolio's roots share one candidate table per call: each
   condition is ranked once, the second root takes the first root's
   rankings, and the templates it takes still get fresh step ids.  The
   whole result is the same when JOBS searches over the one pool run
   at once. *)
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
  let run () = Gp_core.Planner.search ~config pool goal in
  let r1 = run () in
  let rs = Gen.copies run in
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
    (r1 :: rs);
  let counters (r : Gp_core.Planner.result) =
    [ r.rankings; r.inst_memo_hits; r.cand_memo_hits; r.expanded ]
  in
  List.iter
    (fun (rn : Gp_core.Planner.result) ->
      Alcotest.(check (list int)) "counters concurrency-invariant"
        (counters r1) (counters rn);
      Alcotest.(check (list string)) "plans concurrency-invariant"
        (List.map Gp_core.Plan.signature r1.plans)
        (List.map Gp_core.Plan.signature rn.plans))
    rs

(* Two roots over a pool with several providers per register, so one
   root alone can complete several different plans. *)
let many_plan_pool () =
  let image =
    image_of
      [ Insn.Pop Reg.RAX; Insn.Ret;                  (* 0 *)
        Insn.Pop Reg.RDI; Insn.Ret;                  (* 2 *)
        Insn.Pop Reg.RSI; Insn.Ret;                  (* 4 *)
        Insn.Pop Reg.RDX; Insn.Ret;                  (* 6 *)
        Insn.Syscall; Insn.Hlt;                      (* 8 *)
        Insn.Pop Reg.RDX; Insn.Syscall; Insn.Hlt;    (* 11 *)
        Insn.Pop Reg.RDI; Insn.Pop Reg.RSI; Insn.Ret; (* 15 *)
        Insn.Pop Reg.RAX; Insn.Pop Reg.RDX; Insn.Ret; (* 18 *)
        Insn.Pop Reg.RSI; Insn.Pop Reg.RDX; Insn.Ret  (* 21 *) ]
  in
  let base = image.Gp_util.Image.code_base in
  ( image,
    Gp_core.Pool.build
      (List.map
         (fun k -> gadget_at image (Int64.add base (Int64.of_int k)))
         [ 0; 2; 4; 6; 8; 11; 15; 18; 21 ]) )

(* [max_plans] is the quota of the whole call: once the gate has passed
   that many plans, it is never asked again and no later root expands a
   node — the call expands exactly what root 0 alone, on its own fuel
   share, expands.  The gate passes every other plan, so discards are
   in play and do not count against the quota. *)
let test_quota_spans_roots () =
  let image, pool = many_plan_pool () in
  Alcotest.(check int) "two roots" 2
    (List.length pool.Gp_core.Pool.syscall_gadgets);
  let goal =
    Gp_core.Goal.concretize image
      (Gp_core.Goal.Mprotect (Gp_emu.Machine.stack_base, 0x1000L, 7L))
  in
  let config =
    { Gp_core.Planner.max_plans = 2; node_budget = 2000; time_budget = 30.;
      branch_cap = 8; goal_cap = 4; max_steps = 10 }
  in
  (* returns the gate, the calls made, and the calls made when full *)
  let counting_gate () =
    let calls = ref 0 and passed = ref 0 and calls_when_full = ref (-1) in
    let accept (_ : Gp_core.Plan.t) =
      incr calls;
      let ok = !calls mod 2 = 1 in
      if ok then begin
        incr passed;
        if !passed = config.max_plans then calls_when_full := !calls
      end;
      ok
    in
    (accept, calls, calls_when_full)
  in
  let accept, calls, calls_when_full = counting_gate () in
  let r = Gp_core.Planner.search ~config ~accept pool goal in
  Alcotest.(check int) "quota filled" config.max_plans
    (List.length r.Gp_core.Planner.plans);
  Alcotest.(check int) "gate not asked once full" !calls_when_full !calls;
  Alcotest.(check bool) "not exhausted" false r.Gp_core.Planner.exhausted;
  (* root 0 alone, with the fuel share it has among the two roots *)
  let accept0, _, _ = counting_gate () in
  let r0 =
    Gp_core.Planner.search
      ~config:{ config with goal_cap = 1; node_budget = config.node_budget / 2 }
      ~accept:accept0 pool goal
  in
  Alcotest.(check int) "no later root expands" r0.Gp_core.Planner.expanded
    r.Gp_core.Planner.expanded;
  Alcotest.(check (list string)) "root 0's plans"
    (List.map Gp_core.Plan.signature r0.Gp_core.Planner.plans)
    (List.map Gp_core.Plan.signature r.Gp_core.Planner.plans)

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
    Alcotest.test_case "quota spans roots" `Quick test_quota_spans_roots ]
