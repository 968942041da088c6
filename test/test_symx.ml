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

let test_nonlinear_offsets_stay_hazard () =
  (* N = rbx_0 & rcx_0 is not linear: N + 5 and N + 13 are one
     non-linear part apart by 8, but no constant distance is read off a
     non-linear part, so the read stays a hazard *)
  let n = Term.logand (Term.var "rbx_0") (Term.var "rcx_0") in
  let a5 = Term.add n (Term.const 5L) and a13 = Term.add n (Term.const 13L) in
  Alcotest.(check (option int64)) "no distance" None (Term.const_distance a5 a13);
  let insns =
    [ Insn.And_ (Insn.Reg Reg.RBX, Insn.Reg Reg.RCX);
      Insn.Mov (Insn.Mem (Insn.mem ~disp:5 Reg.RBX), Insn.Reg Reg.RAX);
      Insn.Mov (Insn.Reg Reg.RDX, Insn.Mem (Insn.mem ~disp:13 Reg.RBX));
      Insn.Ret ]
  in
  let s = the_summary insns in
  Alcotest.(check bool) "hazard" true s.Gp_symx.Exec.s_state.Gp_symx.State.alias_hazard

let test_overlapping_cells_stay_hazard () =
  (* [rbx + 4] is a constant 4 from the cell written at [rbx]: the two
     8-byte cells overlap without being one, so the read is a hazard *)
  let s =
    the_summary
      [ Insn.Mov (Insn.Mem (Insn.mem Reg.RBX), Insn.Reg Reg.RCX);
        Insn.Mov (Insn.Reg Reg.RAX, Insn.Mem (Insn.mem ~disp:4 Reg.RBX));
        Insn.Ret ]
  in
  Alcotest.(check bool) "hazard" true s.Gp_symx.Exec.s_state.Gp_symx.State.alias_hazard

(* The slot and memory-read variables come from tables: at each bound
   and one step beyond it they are the formatted names, and
   [slot_of_var] reads every slot name back. *)
let test_name_tables () =
  let module S = Gp_symx.State in
  List.iter
    (fun off ->
      let name =
        if off >= 0 then Printf.sprintf "stk_%d" off else Printf.sprintf "stk_m%d" (-off)
      in
      Alcotest.(check bool) ("slot_var " ^ name) true (S.slot_var off = Term.var name);
      Alcotest.(check (option int)) ("slot_of_var " ^ name) (Some off) (S.slot_of_var name))
    [ S.slot_lo - 1; S.slot_lo; S.slot_lo + 1; -1; 0; 1; 8; S.slot_hi - 1; S.slot_hi;
      S.slot_hi + 1 ];
  List.iter
    (fun name -> Alcotest.(check (option int)) name None (S.slot_of_var name))
    [ "rsp_0"; "mem3"; "stk_"; "stk"; "retaddr"; "sysret0" ];
  List.iter
    (fun n ->
      let name = Printf.sprintf "mem%d" n in
      let st = { (S.initial ()) with S.fresh = n } in
      let st, v = S.read_mem st (Term.var "rdi_0") in
      Alcotest.(check bool) ("read var " ^ name) true (v = Term.var name);
      match st.S.mem_reads with
      | (read, _, true) :: _ -> Alcotest.(check string) "mem_reads name" name read
      | _ -> Alcotest.fail "one reliable read")
    [ 0; S.mem_count - 1; S.mem_count; S.mem_count + 1 ]

(* The state conses writes newest first; the gadget record lists them
   in write order. *)
let test_write_order () =
  let s =
    the_summary
      [ Insn.Push Reg.RAX;
        Insn.Push Reg.RBX;
        Insn.Mov (Insn.Mem (Insn.mem Reg.RDI), Insn.Reg Reg.RCX);
        Insn.Mov (Insn.Mem (Insn.mem ~disp:8 Reg.RDI), Insn.Reg Reg.RDX);
        Insn.Pop Reg.RSI;
        Insn.Pop Reg.RSI;
        Insn.Ret ]
  in
  let st = s.Gp_symx.Exec.s_state in
  Alcotest.(check (list int)) "state stack writes, newest first" [ -16; -8 ]
    (List.map fst st.Gp_symx.State.stack_writes);
  let ptr_values ws = List.map (fun (_, v) -> Term.to_string v) ws in
  Alcotest.(check (list string)) "state pointer writes, newest first" [ "rdx_0"; "rcx_0" ]
    (ptr_values st.Gp_symx.State.ptr_writes);
  let g = Gp_core.Gadget.of_summary ~id:0 s in
  Alcotest.(check (list int)) "gadget stack writes, in order" [ -8; -16 ]
    (List.map fst g.Gp_core.Gadget.stack_writes);
  Alcotest.(check (list string)) "gadget pointer writes, in order" [ "rcx_0"; "rdx_0" ]
    (ptr_values g.Gp_core.Gadget.ptr_writes)

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

(* Pointer memory: 8-byte cells at [rbx + 8k] for k in [ptr_lo, ptr_hi].
   The emulator points rbx into its scratch region, far from the stack
   window, and fills the cells [rbx0 + 8k] for k in [-16, 16). *)
let ptr_base = Reg.RBX
let ptr_lo = -1
let ptr_hi = 2

(* Register-safe straight-line code: no control flow, memory only in the
   rsp-relative stack window or through [ptr_base], and rsp never
   written except by push/pop (so the summary's stack model applies).
   A body is up to 8 chunks: one instruction, or a pointer store and a
   load after it, which meet at distance 0 (forwarded) or a multiple
   of 8 (disjoint). *)
let gen_diff_body : Insn.t list QCheck2.Gen.t =
  let open QCheck2.Gen in
  let reg_no_rsp =
    map
      (fun i -> Reg.of_number i)
      (oneof [ int_range 0 3; int_range 5 15 ])   (* skip RSP = 4 *)
  in
  let any_reg = map Reg.of_number (int_range 0 15) in
  let small_imm = map Int64.of_int (int_range (-1000) 1000) in
  let stack_slot = map (fun k -> Insn.mem ~disp:(8 * k) Reg.RSP) (int_range 0 8) in
  let ptr_cell = map (fun k -> Insn.mem ~disp:(8 * k) ptr_base) (int_range ptr_lo ptr_hi) in
  let load = map2 (fun d m -> Insn.Mov (Insn.Reg d, Insn.Mem m)) reg_no_rsp ptr_cell in
  let store = map2 (fun m s -> Insn.Mov (Insn.Mem m, Insn.Reg s)) ptr_cell any_reg in
  let plain =
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
  in
  let pointer =
    oneof
      [ load;
        store;
        (* step the base by one cell, so accesses meet at new distances *)
        map (fun k -> Insn.Lea (ptr_base, Insn.mem ~disp:(8 * k) ptr_base))
          (oneofl [ -1; 1 ]) ]
  in
  let chunk =
    frequency
      [ (4, map (fun i -> [ i ]) plain);
        (1, map (fun i -> [ i ]) pointer);
        (1, map2 (fun s l -> [ s; l ]) store load) ]
  in
  map List.concat (list_size (int_range 1 8) chunk)

let prop_symx_matches_emulator (body, seed) =
  let insns = body @ [ Insn.Ret ] in
  match summarize insns with
  | [ s ] -> (
    let st = s.Gp_symx.Exec.s_state in
    (* concrete machine with random registers and stack content *)
    let image = image_of insns in
    let m = Gp_emu.Machine.create image in
    let mem = m.Gp_emu.Machine.mem in
    let rng = Gp_util.Rng.create seed in
    List.iter
      (fun r ->
        if r <> Reg.RSP then Gp_emu.Machine.set_reg m r (Gp_util.Rng.next_int64 rng))
      Reg.all;
    let rsp0 = Gp_emu.Machine.rsp m in
    (* pre-fill the stack window the gadget may touch *)
    for k = -32 to 32 do
      Gp_emu.Memory.write64 mem
        (Int64.add rsp0 (Int64.of_int (8 * k)))
        (Gp_util.Rng.next_int64 rng)
    done;
    (* point the base register into the scratch region and fill its cells *)
    let ptr0 =
      Int64.add Gp_emu.Machine.scratch_base
        (Int64.of_int (0x1000 + (8 * Gp_util.Rng.int rng 0x1000)))
    in
    Gp_emu.Machine.set_reg m ptr_base ptr0;
    let cells = List.init 32 (fun i -> Int64.add ptr0 (Int64.of_int (8 * (i - 16)))) in
    List.iter (fun a -> Gp_emu.Memory.write64 mem a (Gp_util.Rng.next_int64 rng)) cells;
    (* record the model BEFORE execution *)
    let init_reg = List.map (fun r -> (r, Gp_emu.Machine.reg m r)) Reg.all in
    (* snapshot the PRE-execution stack and cells: the gadget may overwrite them *)
    let init_stack =
      List.init 65 (fun i ->
          let k = 8 * (i - 32) in
          ( k,
            Gp_emu.Memory.read64 mem
              (Int64.add rsp0 (Int64.of_int k)) ))
    in
    let init_cells = List.map (fun a -> (a, Gp_emu.Memory.read64 mem a)) cells in
    let stack_word k = try List.assoc k init_stack with Not_found -> 0L in
    let cell a = try List.assoc a init_cells with Not_found -> 0L in
    let rec model v =
      match Gp_symx.State.slot_of_var v with
      | Some off -> stack_word off
      | None -> (
        match List.find_opt (fun (name, _, _) -> name = v) st.Gp_symx.State.mem_reads with
        | Some (_, addr, _) -> cell (Gp_smt.Term.eval model addr)
        | None -> (
          try
            let rname = String.sub v 0 (String.length v - 2) in
            List.assoc (Reg.of_name rname) init_reg
          with _ -> 0L))
    in
    let in_cells t = List.mem_assoc (Gp_smt.Term.eval model t) init_cells in
    let in_stack off = off mod 8 = 0 && List.mem_assoc off init_stack in
    (* out of scope: a read that may alias a write, pointer accesses
       that leave the filled cells (the base register was overwritten),
       and stack accesses off the filled slots (through a base copied
       from rsp and moved off the 8-byte grid) *)
    if st.Gp_symx.State.alias_hazard
       || not
            (List.for_all (fun (_, a, _) -> in_cells a) st.Gp_symx.State.mem_reads
            && List.for_all (fun (a, _) -> in_cells a) st.Gp_symx.State.ptr_writes
            && List.for_all in_stack (Gp_symx.State.consumed_slots st)
            && List.for_all (fun (off, _) -> in_stack off) st.Gp_symx.State.stack_writes)
    then true
    else begin
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
      (* each written cell holds the value of its newest pointer write
         (the state lists them newest first) *)
      && (let rec newest seen = function
            | [] -> true
            | (a, v) :: older ->
              let a = Gp_smt.Term.eval model a in
              (List.mem a seen || Gp_smt.Term.eval model v = Gp_emu.Memory.read64 mem a)
              && newest (a :: seen) older
          in
          newest [] st.Gp_symx.State.ptr_writes)
      (* and the ret target must be where rip actually went *)
      && (match s.Gp_symx.Exec.s_jump with
          | Gp_symx.Exec.Jret t ->
            Gp_smt.Term.eval model t = m.Gp_emu.Machine.rip
          | _ -> false)
    end)
  | _ -> true   (* non-single summaries are out of scope here *)

let differential_suite =
  [ Gen.qtest "symx matches emulator" ~count:1000
      QCheck2.Gen.(pair gen_diff_body (int_range 0 1000000))
      prop_symx_matches_emulator ]

(* Appended after the differential, so the cases before keep their
   indices. *)
let shape_suite =
  [ Alcotest.test_case "non-linear offsets stay hazard" `Quick
      test_nonlinear_offsets_stay_hazard;
    Alcotest.test_case "overlapping cells stay hazard" `Quick
      test_overlapping_cells_stay_hazard;
    Alcotest.test_case "slot and mem name tables" `Quick test_name_tables;
    Alcotest.test_case "write lists order" `Quick test_write_order ]

(* The summary a syscall ends keeps its own register file: the
   execution that continues past the syscall writes RAX twice (the
   syscall's result, then the pop), and neither write may reach the
   summary already emitted, nor the gadget built from it. *)
let test_syscall_continuation_owns_registers () =
  let sums =
    summarize [ Insn.Movabs (Reg.RAX, 59L); Insn.Syscall; Insn.Pop Reg.RAX; Insn.Ret ]
  in
  let find p =
    match List.filter p sums with
    | [ s ] -> s
    | l -> Alcotest.failf "expected one such summary, got %d" (List.length l)
  in
  let is_fall s =
    match s.Gp_symx.Exec.s_jump with Gp_symx.Exec.Jfall _ -> true | _ -> false
  in
  let sys = find is_fall and cont = find (fun s -> not (is_fall s)) in
  let rax_of s =
    ( final_reg s Reg.RAX,
      Gp_core.Gadget.post_of (Gp_core.Gadget.of_summary ~id:0 s) Reg.RAX )
  in
  let sys_summary, sys_gadget = rax_of sys in
  Alcotest.(check bool) "syscall summary rax = 59" true (sys_summary = Term.const 59L);
  Alcotest.(check bool) "syscall gadget rax = 59" true (sys_gadget = Term.const 59L);
  let cont_summary, cont_gadget = rax_of cont in
  Alcotest.(check bool) "continuation summary rax = stk_0" true
    (cont_summary = Gp_symx.State.slot_var 0);
  Alcotest.(check bool) "continuation gadget rax = stk_0" true
    (cont_gadget = Gp_symx.State.slot_var 0)

let suite =
  base_suite () @ differential_suite @ shape_suite
  @ [ Alcotest.test_case "syscall continuation owns its registers" `Quick
        test_syscall_continuation_owns_registers ]
