(* Tests for the symbolic executor: gadget summaries of hand-built byte
   sequences — including the paper's Fig. 4 conditional-jump scenarios,
   direct-jump merging, frame pivots, syscall continuation, and
   store-forwarding with alias hazards. *)

open Gp_x86
open Gp_smt

let image_of insns =
  Gp_util.Image.create ~entry:0x400000L ~code:(Encode.insns insns)
    ~data:(Bytes.create 16) ()

let summarize ?config insns = Gp_symx.Exec.summarize ?config (image_of insns) 0x400000L

let the_summary insns =
  match summarize insns with
  | [ s ] -> s
  | l -> Alcotest.failf "expected exactly one summary, got %d" (List.length l)

let final_reg s r = Term.simplify (Gp_symx.State.reg s.Gp_symx.Exec.s_state r)

let test_pop_ret () =
  let s = the_summary [ Insn.Pop Reg.RDI; Insn.Ret ] in
  Alcotest.(check bool) "rdi = stk_0" true
    (final_reg s Reg.RDI = Gp_symx.State.slot_var 0);
  (match s.Gp_symx.Exec.s_jump with
   | Gp_symx.Exec.Jret t ->
     Alcotest.(check bool) "target = stk_8" true
       (Term.simplify t = Gp_symx.State.slot_var 8)
   | _ -> Alcotest.fail "expected ret jump");
  (* rsp advanced by 16: one pop + the ret itself *)
  match Term.linearize (final_reg s Reg.RSP) with
  | Some { Term.lin_const = 16L; lin_terms = [ ("rsp_0", 1L) ] } -> ()
  | _ -> Alcotest.fail "stack delta 16"

let test_arith_post () =
  let s =
    the_summary
      [ Insn.Add (Insn.Reg Reg.RAX, Insn.Reg Reg.RBX);
        Insn.Inc Reg.RAX;
        Insn.Ret ]
  in
  (* rax = rax_0 + rbx_0 + 1 *)
  Alcotest.(check bool) "rax term" true
    (Term.equal (final_reg s Reg.RAX)
       (Term.add (Term.add (Term.var "rax_0") (Term.var "rbx_0")) (Term.const 1L)))

let test_fig4b_condition_not_taken () =
  (* Fig. 4(b): a conditional jump mid-gadget; on the fall-through path the
     pre-condition is rdx == rbx (jne NOT taken) *)
  let insns =
    [ Insn.Cmp (Insn.Reg Reg.RDX, Insn.Reg Reg.RBX);
      Insn.Jcc (Insn.NE, 100);   (* target out of code: taken path dies *)
      Insn.Pop Reg.RAX;
      Insn.Ret ]
  in
  match summarize insns with
  | [ s ] ->
    Alcotest.(check bool) "conditional" true s.Gp_symx.Exec.s_has_cond;
    let path = s.Gp_symx.Exec.s_state.Gp_symx.State.path in
    Alcotest.(check bool) "pre: rdx == rbx" true
      (List.exists
         (fun f ->
           match Formula.simplify f with
           | Formula.Eq (a, b) ->
             Term.equal a (Term.var "rdx_0")
             && Term.equal b (Term.var "rbx_0")
             || Term.equal (Term.sub a b)
                  (Term.sub (Term.var "rdx_0") (Term.var "rbx_0"))
           | _ -> false)
         path)
  | l -> Alcotest.failf "expected 1 summary, got %d" (List.length l)

let test_fig4c_condition_taken () =
  (* Fig. 4(c): the jump must be TAKEN to reach the second half *)
  let jcc_len = Encode.length (Insn.Jcc (Insn.E, 0)) in
  let skip = Encode.length (Insn.Hlt) in
  ignore jcc_len;
  let insns =
    [ Insn.Test (Reg.RCX, Reg.RCX);
      Insn.Jcc (Insn.E, skip);    (* hop over the hlt *)
      Insn.Hlt;                    (* fall-through path dies *)
      Insn.Pop Reg.RDI;
      Insn.Ret ]
  in
  match summarize insns with
  | [ s ] ->
    Alcotest.(check bool) "conditional" true s.Gp_symx.Exec.s_has_cond;
    Alcotest.(check bool) "pre: rcx == 0" true
      (List.exists
         (fun f ->
           match Formula.simplify f with
           | Formula.Eq (Term.Var "rcx_0", Term.Const 0L)
           | Formula.Eq (Term.Const 0L, Term.Var "rcx_0") -> true
           | _ -> false)
         s.Gp_symx.Exec.s_state.Gp_symx.State.path)
  | l -> Alcotest.failf "expected 1 summary, got %d" (List.length l)

let test_cond_forks_both_paths () =
  (* both branches viable -> two summaries with complementary conditions *)
  let jcc_target = Encode.length (Insn.Pop Reg.RDI) + Encode.length Insn.Ret in
  let insns =
    [ Insn.Cmp (Insn.Reg Reg.RAX, Insn.Reg Reg.RBX);
      Insn.Jcc (Insn.E, jcc_target);
      Insn.Pop Reg.RDI; Insn.Ret;
      Insn.Pop Reg.RSI; Insn.Ret ]
  in
  match summarize insns with
  | [ a; b ] ->
    Alcotest.(check bool) "both conditional" true
      (a.Gp_symx.Exec.s_has_cond && b.Gp_symx.Exec.s_has_cond);
    let sets_rdi s = final_reg s Reg.RDI = Gp_symx.State.slot_var 0 in
    Alcotest.(check bool) "one sets rdi, one sets rsi" true
      (sets_rdi a <> sets_rdi b)
  | l -> Alcotest.failf "expected 2 summaries, got %d" (List.length l)

let test_direct_jump_merge () =
  (* jmp +1 over a hlt, then pop/ret: merged into one gadget *)
  let insns =
    [ Insn.Jmp 1; Insn.Hlt; Insn.Pop Reg.RBX; Insn.Ret ]
  in
  (* a bare jmp has no body before it, so start one instruction in *)
  match summarize insns with
  | [ s ] ->
    Alcotest.(check bool) "merged" true s.Gp_symx.Exec.s_has_merge;
    Alcotest.(check bool) "rbx controlled" true
      (final_reg s Reg.RBX = Gp_symx.State.slot_var 0)
  | l -> Alcotest.failf "expected 1 summary, got %d" (List.length l)

let test_leave_pivot () =
  let s = the_summary [ Insn.Leave; Insn.Ret ] in
  (* rsp after leave;ret = rbp_0 + 16 *)
  (match Term.linearize (final_reg s Reg.RSP) with
   | Some { Term.lin_const = 16L; lin_terms = [ ("rbp_0", 1L) ] } -> ()
   | _ -> Alcotest.fail "pivot to rbp_0+16");
  (* rbp and the ret target come from [rbp]: pointer reads *)
  Alcotest.(check bool) "mem reads recorded" true
    (List.length s.Gp_symx.Exec.s_state.Gp_symx.State.mem_reads = 2)

let test_syscall_gadget_and_continuation () =
  let insns =
    [ Insn.Mov (Insn.Reg Reg.RAX, Insn.Imm 59L); Insn.Syscall;
      Insn.Pop Reg.RBP; Insn.Ret ]
  in
  let sums = summarize insns in
  Alcotest.(check int) "two summaries" 2 (List.length sums);
  let sys = List.find (fun s -> s.Gp_symx.Exec.s_syscall) sums in
  let cont = List.find (fun s -> not s.Gp_symx.Exec.s_syscall) sums in
  (* the syscall summary records rax = 59 at the syscall *)
  (match sys.Gp_symx.Exec.s_state.Gp_symx.State.syscalls with
   | [ regs ] ->
     Alcotest.(check bool) "rax at syscall" true
       (List.assoc Reg.RAX regs = Term.const 59L)
   | _ -> Alcotest.fail "one syscall record");
  (* the continuation ends in ret and has an uncontrollable rax *)
  (match cont.Gp_symx.Exec.s_jump with
   | Gp_symx.Exec.Jret _ -> ()
   | _ -> Alcotest.fail "continuation ends in ret");
  match final_reg cont Reg.RAX with
  | Term.Var v ->
    Alcotest.(check bool) "sysret var" true
      (String.length v >= 6 && String.sub v 0 6 = "sysret")
  | _ -> Alcotest.fail "rax fresh after syscall"

let test_store_forwarding () =
  (* write [rbx], rcx then read it back: value forwards, no fresh var *)
  let insns =
    [ Insn.Mov (Insn.Mem (Insn.mem Reg.RBX), Insn.Reg Reg.RCX);
      Insn.Mov (Insn.Reg Reg.RAX, Insn.Mem (Insn.mem Reg.RBX));
      Insn.Ret ]
  in
  let s = the_summary insns in
  Alcotest.(check bool) "forwarded" true
    (Term.equal (final_reg s Reg.RAX) (Term.var "rcx_0"));
  Alcotest.(check bool) "no hazard" false
    s.Gp_symx.Exec.s_state.Gp_symx.State.alias_hazard

let test_alias_hazard () =
  (* write [rbx], then read [rdx]: distance unknown -> hazard *)
  let insns =
    [ Insn.Mov (Insn.Mem (Insn.mem Reg.RBX), Insn.Reg Reg.RCX);
      Insn.Mov (Insn.Reg Reg.RAX, Insn.Mem (Insn.mem Reg.RDX));
      Insn.Ret ]
  in
  let s = the_summary insns in
  Alcotest.(check bool) "hazard" true
    s.Gp_symx.Exec.s_state.Gp_symx.State.alias_hazard

let test_disjoint_frame_slots_no_hazard () =
  (* write [rbx], read [rbx-16]: provably disjoint *)
  let insns =
    [ Insn.Mov (Insn.Mem (Insn.mem Reg.RBX), Insn.Reg Reg.RCX);
      Insn.Mov (Insn.Reg Reg.RAX, Insn.Mem (Insn.mem ~disp:(-16) Reg.RBX));
      Insn.Ret ]
  in
  let s = the_summary insns in
  Alcotest.(check bool) "no hazard" false
    s.Gp_symx.Exec.s_state.Gp_symx.State.alias_hazard

let test_stack_write_tracking () =
  let s =
    the_summary [ Insn.Push Reg.RAX; Insn.Pop Reg.RBX; Insn.Ret ]
  in
  Alcotest.(check bool) "push recorded" true
    (List.exists (fun (off, _) -> off = -8)
       s.Gp_symx.Exec.s_state.Gp_symx.State.stack_writes);
  (* pop after push forwards the pushed value *)
  Alcotest.(check bool) "rbx = rax_0" true
    (Term.equal (final_reg s Reg.RBX) (Term.var "rax_0"))

let test_pointer_write_recorded () =
  let s =
    the_summary
      [ Insn.Mov (Insn.Mem (Insn.mem ~disp:8 Reg.RDI), Insn.Reg Reg.RSI); Insn.Ret ]
  in
  match s.Gp_symx.Exec.s_state.Gp_symx.State.ptr_writes with
  | [ (addr, value) ] ->
    Alcotest.(check bool) "addr" true
      (Term.equal addr (Term.add (Term.var "rdi_0") (Term.const 8L)));
    Alcotest.(check bool) "value" true (Term.equal value (Term.var "rsi_0"))
  | _ -> Alcotest.fail "one pointer write"

let test_budget_limits () =
  (* straight-line run longer than the budget yields nothing *)
  let insns = List.init 30 (fun _ -> Insn.Nop) @ [ Insn.Ret ] in
  let config = { Gp_symx.Exec.max_insns = 8; max_forks = 1; max_merges = 1 } in
  Alcotest.(check int) "over budget" 0 (List.length (summarize ~config insns))

let base_suite () =
  [ Alcotest.test_case "pop;ret summary" `Quick test_pop_ret;
    Alcotest.test_case "arith post-conditions" `Quick test_arith_post;
    Alcotest.test_case "Fig4(b) cond not taken" `Quick test_fig4b_condition_not_taken;
    Alcotest.test_case "Fig4(c) cond taken" `Quick test_fig4c_condition_taken;
    Alcotest.test_case "cond forks both paths" `Quick test_cond_forks_both_paths;
    Alcotest.test_case "direct jump merge" `Quick test_direct_jump_merge;
    Alcotest.test_case "leave pivot" `Quick test_leave_pivot;
    Alcotest.test_case "syscall + continuation" `Quick
      test_syscall_gadget_and_continuation;
    Alcotest.test_case "store forwarding" `Quick test_store_forwarding;
    Alcotest.test_case "alias hazard" `Quick test_alias_hazard;
    Alcotest.test_case "disjoint frame slots" `Quick test_disjoint_frame_slots_no_hazard;
    Alcotest.test_case "stack write tracking" `Quick test_stack_write_tracking;
    Alcotest.test_case "pointer write recorded" `Quick test_pointer_write_recorded;
    Alcotest.test_case "budget limits" `Quick test_budget_limits ]


(* ----- differential property: symbolic summaries agree with the
   concrete emulator on straight-line gadgets ----- *)

(* A register-safe instruction generator: no control flow, no memory
   outside the rsp-relative stack window, and rsp never written except by
   push/pop (so the summary's stack model applies). *)
let gen_diff_insn : Insn.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let reg_no_rsp =
    map
      (fun i -> Reg.of_number i)
      (oneof [ int_range 0 3; int_range 5 15 ])   (* skip RSP = 4 *)
  in
  let any_reg = map Reg.of_number (int_range 0 15) in
  let small_imm = map Int64.of_int (int_range (-1000) 1000) in
  let stack_slot = map (fun k -> Insn.mem ~disp:(8 * k) Reg.RSP) (int_range 0 8) in
  oneof
    [ map2 (fun d s -> Insn.Mov (Insn.Reg d, Insn.Reg s)) reg_no_rsp any_reg;
      map2 (fun d i -> Insn.Mov (Insn.Reg d, Insn.Imm i)) reg_no_rsp small_imm;
      map2 (fun d m -> Insn.Mov (Insn.Reg d, Insn.Mem m)) reg_no_rsp stack_slot;
      map2 (fun m s -> Insn.Mov (Insn.Mem m, Insn.Reg s)) stack_slot any_reg;
      map2 (fun d s -> Insn.Add (Insn.Reg d, Insn.Reg s)) reg_no_rsp any_reg;
      map2 (fun d s -> Insn.Sub (Insn.Reg d, Insn.Reg s)) reg_no_rsp any_reg;
      map2 (fun d s -> Insn.Xor (Insn.Reg d, Insn.Reg s)) reg_no_rsp any_reg;
      map2 (fun d s -> Insn.And_ (Insn.Reg d, Insn.Reg s)) reg_no_rsp any_reg;
      map2 (fun d s -> Insn.Or_ (Insn.Reg d, Insn.Reg s)) reg_no_rsp any_reg;
      map2 (fun d s -> Insn.Imul (d, s)) reg_no_rsp any_reg;
      map2 (fun d m -> Insn.Lea (d, m)) reg_no_rsp
        (map2 (fun b k -> Insn.mem ~disp:k b) any_reg (int_range (-64) 64));
      map (fun r -> Insn.Push r) any_reg;
      map (fun r -> Insn.Pop r) reg_no_rsp;
      map (fun r -> Insn.Inc r) reg_no_rsp;
      map (fun r -> Insn.Dec r) reg_no_rsp;
      map (fun r -> Insn.Neg r) reg_no_rsp;
      map (fun r -> Insn.Not_ r) reg_no_rsp;
      map2 (fun a b -> Insn.Xchg (a, b)) reg_no_rsp reg_no_rsp;
      map2 (fun r k -> Insn.Shl (r, k)) reg_no_rsp (int_range 0 63);
      map2 (fun r k -> Insn.Shr (r, k)) reg_no_rsp (int_range 0 63);
      map2 (fun r k -> Insn.Sar (r, k)) reg_no_rsp (int_range 0 63) ]

let prop_symx_matches_emulator (body, seed) =
  let insns = body @ [ Insn.Ret ] in
  match summarize insns with
  | [ s ] -> (
    (* concrete machine with random registers and stack content *)
    let image = image_of insns in
    let m = Gp_emu.Machine.create image in
    let rng = Gp_util.Rng.create seed in
    List.iter
      (fun r ->
        if r <> Reg.RSP then Gp_emu.Machine.set_reg m r (Gp_util.Rng.next_int64 rng))
      Reg.all;
    let rsp0 = Gp_emu.Machine.rsp m in
    (* pre-fill the stack window the gadget may touch *)
    for k = -32 to 32 do
      Gp_emu.Memory.write64 m.Gp_emu.Machine.mem
        (Int64.add rsp0 (Int64.of_int (8 * k)))
        (Gp_util.Rng.next_int64 rng)
    done;
    (* record the model BEFORE execution *)
    let init_reg = List.map (fun r -> (r, Gp_emu.Machine.reg m r)) Reg.all in
    (* snapshot the PRE-execution stack: the gadget may overwrite it *)
    let init_stack =
      List.init 65 (fun i ->
          let k = 8 * (i - 32) in
          ( k,
            Gp_emu.Memory.read64 m.Gp_emu.Machine.mem
              (Int64.add rsp0 (Int64.of_int k)) ))
    in
    let stack_word k = try List.assoc k init_stack with Not_found -> 0L in
    let model v =
      match Gp_symx.State.slot_of_var v with
      | Some off -> stack_word off
      | None -> (
        try
          let rname = String.sub v 0 (String.length v - 2) in
          List.assoc (Reg.of_name rname) init_reg
        with _ -> 0L)
    in
    (* run exactly the gadget's instructions *)
    (try
       for _ = 1 to List.length insns do
         Gp_emu.Machine.step m
       done
     with Gp_emu.Machine.Halt _ | Gp_emu.Memory.Fault _ -> ());
    (* every register (rsp included) must match the symbolic post term *)
    List.for_all
      (fun r ->
        let symbolic = Gp_smt.Term.eval model (final_reg s r) in
        let concrete = Gp_emu.Machine.reg m r in
        symbolic = concrete)
      Reg.all
    (* and the ret target must be where rip actually went *)
    && (match s.Gp_symx.Exec.s_jump with
        | Gp_symx.Exec.Jret t ->
          Gp_smt.Term.eval model t = m.Gp_emu.Machine.rip
        | _ -> false))
  | _ -> true   (* non-single summaries are out of scope here *)

let differential_suite =
  [ Gen.qtest "symx matches emulator" ~count:500
      QCheck2.Gen.(pair (list_size (int_range 1 8) gen_diff_insn) (int_range 0 1000000))
      prop_symx_matches_emulator ]

let suite = base_suite () @ differential_suite
