(* Tests for gadget extraction, classification, subsumption, and the
   register-indexed pool. *)

open Gp_x86

let image_of insns =
  Gp_util.Image.create ~entry:0x400000L ~code:(Encode.insns insns)
    ~data:(Bytes.create 16) ()

let gadgets_of insns =
  List.map Gp_core.Gadget.of_summary
    (Gp_symx.Exec.summarize (image_of insns) 0x400000L)

let test_record_fields () =
  (* the Table II record of "pop rax; ret" *)
  match gadgets_of [ Insn.Pop Reg.RAX; Insn.Ret ] with
  | [ g ] ->
    Alcotest.(check int) "len" 2 g.Gp_core.Gadget.len;
    Alcotest.(check int64) "location" 0x400000L g.Gp_core.Gadget.addr;
    Alcotest.(check bool) "clob includes rax" true
      (List.mem Reg.RAX g.Gp_core.Gadget.clobbered);
    Alcotest.(check bool) "ctrl rax from slot 0" true
      (List.assoc_opt Reg.RAX g.Gp_core.Gadget.controlled = Some 0);
    Alcotest.(check bool) "delta 16" true
      (g.Gp_core.Gadget.stack_delta = Gp_core.Gadget.Sdelta 16);
    Alcotest.(check string) "kind" "ret" (Gp_core.Gadget.kind_name g.Gp_core.Gadget.kind)
  | l -> Alcotest.failf "expected 1 gadget, got %d" (List.length l)

let test_classification () =
  let kind insns =
    match gadgets_of insns with
    | g :: _ -> g.Gp_core.Gadget.kind
    | [] -> Alcotest.fail "no gadget"
  in
  Alcotest.(check bool) "ret" true (kind [ Insn.Nop; Insn.Ret ] = Gp_core.Gadget.Return);
  Alcotest.(check bool) "uij" true
    (kind [ Insn.Pop Reg.RAX; Insn.JmpReg Reg.RAX ] = Gp_core.Gadget.UIJ);
  Alcotest.(check bool) "udj (merged)" true
    (kind [ Insn.Pop Reg.RBX; Insn.Jmp 1; Insn.Hlt; Insn.Ret ] = Gp_core.Gadget.UDJ);
  Alcotest.(check bool) "sys" true
    (kind [ Insn.Mov (Insn.Reg Reg.RAX, Insn.Imm 59L); Insn.Syscall ]
     = Gp_core.Gadget.Sys
     || (* the continuation summary may come first *)
     List.exists
       (fun g -> g.Gp_core.Gadget.kind = Gp_core.Gadget.Sys)
       (gadgets_of [ Insn.Mov (Insn.Reg Reg.RAX, Insn.Imm 59L); Insn.Syscall ]))

let test_usable_filter () =
  (* a ret gadget with a huge stack delta is rejected *)
  let g_big =
    List.hd (gadgets_of [ Insn.Add (Insn.Reg Reg.RSP, Insn.Imm 4096L); Insn.Ret ])
  in
  Alcotest.(check bool) "huge delta unusable" false (Gp_core.Extract.usable g_big);
  let g_ok = List.hd (gadgets_of [ Insn.Pop Reg.RDI; Insn.Ret ]) in
  Alcotest.(check bool) "pop usable" true (Gp_core.Extract.usable g_ok)

let test_raw_scan_unaligned_beats_aligned () =
  let image =
    Gp_codegen.Pipeline.compile
      "int main() { int i; int s = 0; for (i = 0; i < 4; i = i + 1) { s = s + i; } return s; }"
  in
  let aligned =
    Gp_core.Extract.raw_scan
      ~config:{ Gp_core.Extract.default_config with Gp_core.Extract.unaligned = false }
      image
  in
  let unaligned = Gp_core.Extract.raw_scan image in
  Alcotest.(check bool) "unaligned finds more" true
    (List.length unaligned > List.length aligned)

let test_harvest_finds_runtime_pops () =
  let image = Gp_codegen.Pipeline.compile "int main() { return 0; }" in
  let gadgets = Gp_core.Extract.harvest image in
  let sets r =
    List.exists
      (fun (g : Gp_core.Gadget.t) -> List.mem_assoc r g.Gp_core.Gadget.controlled)
      gadgets
  in
  List.iter
    (fun r -> Alcotest.(check bool) (Reg.name r ^ " settable") true (sets r))
    [ Reg.RDI; Reg.RSI; Reg.RDX; Reg.RAX; Reg.RCX; Reg.RBP ]

(* ----- subsumption ----- *)

let test_subsume_identical () =
  (* two byte-identical pop rdi; ret gadgets at different addresses: the
     minimizer keeps exactly one *)
  let insns =
    [ Insn.Pop Reg.RDI; Insn.Ret; Insn.Pop Reg.RDI; Insn.Ret ]
  in
  let image = image_of insns in
  let g1 = List.map Gp_core.Gadget.of_summary (Gp_symx.Exec.summarize image 0x400000L) in
  let g2 = List.map Gp_core.Gadget.of_summary (Gp_symx.Exec.summarize image 0x400002L) in
  let minimal, stats = Gp_core.Subsume.minimize (g1 @ g2) in
  Alcotest.(check int) "input 2" 2 stats.Gp_core.Subsume.input;
  Alcotest.(check int) "kept 1" 1 (List.length minimal)

let test_subsume_different_effects_kept () =
  let a = List.hd (gadgets_of [ Insn.Pop Reg.RDI; Insn.Ret ]) in
  let b = List.hd (gadgets_of [ Insn.Pop Reg.RSI; Insn.Ret ]) in
  Alcotest.(check bool) "different classes" false
    (Gp_core.Subsume.semantic_equal a b);
  let minimal, _ = Gp_core.Subsume.minimize [ a; b ] in
  Alcotest.(check int) "both kept" 2 (List.length minimal)

let test_pool_indexing () =
  let gadgets =
    gadgets_of [ Insn.Pop Reg.RDI; Insn.Ret ]
    @ gadgets_of [ Insn.Pop Reg.RSI; Insn.Pop Reg.RBP; Insn.Ret ]
  in
  let pool = Gp_core.Pool.build gadgets in
  Alcotest.(check int) "rdi setters" 1 (List.length (Gp_core.Pool.setting pool Reg.RDI));
  Alcotest.(check int) "rsi setters" 1 (List.length (Gp_core.Pool.setting pool Reg.RSI));
  Alcotest.(check int) "rbx setters" 0 (List.length (Gp_core.Pool.setting pool Reg.RBX));
  Alcotest.(check int) "size" 2 (Gp_core.Pool.size pool)

(* property: minimize never loses semantic classes — every input gadget
   is semantically equal to some survivor (these inputs never fill a
   signature bucket past the cap) *)
let prop_minimize_covers seed =
  let rng = Gp_util.Rng.create seed in
  let regs = [| Reg.RDI; Reg.RSI; Reg.RDX; Reg.RAX; Reg.RBX; Reg.RCX |] in
  let mk () =
    let r = regs.(Gp_util.Rng.int rng (Array.length regs)) in
    let extra = regs.(Gp_util.Rng.int rng (Array.length regs)) in
    if Gp_util.Rng.bool rng then [ Insn.Pop r; Insn.Ret ]
    else [ Insn.Pop r; Insn.Pop extra; Insn.Ret ]
  in
  let gadgets = List.concat (List.init 6 (fun _ -> gadgets_of (mk ()))) in
  let minimal, _ = Gp_core.Subsume.minimize gadgets in
  List.for_all
    (fun g ->
      List.exists (fun s -> Gp_core.Subsume.semantic_equal s g) minimal)
    gadgets

let suite =
  [ Alcotest.test_case "record fields (Table II)" `Quick test_record_fields;
    Alcotest.test_case "classification" `Quick test_classification;
    Alcotest.test_case "usable filter" `Quick test_usable_filter;
    Alcotest.test_case "unaligned scan" `Quick test_raw_scan_unaligned_beats_aligned;
    Alcotest.test_case "runtime pops harvested" `Quick test_harvest_finds_runtime_pops;
    Alcotest.test_case "subsume identical" `Quick test_subsume_identical;
    Alcotest.test_case "different effects kept" `Quick test_subsume_different_effects_kept;
    Alcotest.test_case "pool indexing" `Quick test_pool_indexing;
    Gen.qtest "minimize covers inputs" ~count:50 QCheck2.Gen.(int_range 0 100000)
      prop_minimize_covers ]
