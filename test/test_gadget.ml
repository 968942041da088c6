(* Tests for gadget extraction, classification, subsumption, and the
   register-indexed pool; stage-2 dedup against a structural reference
   over the survey cells, extracted one at a time and as concurrent
   requests on JOBS domains (default 4), so `make check-plan-par`
   sweeps it at JOBS 1 and 4. *)

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

(* ----- stage-2 dedup against a structural reference -----

   The dedup as it was before terms carried keys: an FNV-1a hash walked
   over every term and a structural [=] on collision, here over the
   mirrored terms ([Gen.Mirror]), so it shares no hash, key or identity
   with the library.  Same components, and the same ones ignored: the
   [Jfall] target, [kind] and [syscall_state]. *)
module Ref_dedup = struct
  module M = Gen.Mirror

  let h_word ~h v =
    let h = ref h in
    for i = 0 to 7 do
      let byte = Int64.to_int (Int64.logand (Int64.shift_right_logical v (i * 8)) 0xffL) in
      h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) 0x100000001b3L
    done;
    !h

  let h_str ~h s = Gp_util.Store.fnv64 ~h s

  let rec term_hash h (t : M.term) =
    match t with
    | M.Var v -> h_str ~h:(h_word ~h 1L) v
    | M.Const c -> h_word ~h:(h_word ~h 2L) c
    | M.Add (a, b) -> term_hash2 (h_word ~h 3L) a b
    | M.Sub (a, b) -> term_hash2 (h_word ~h 4L) a b
    | M.Mul (a, b) -> term_hash2 (h_word ~h 5L) a b
    | M.Neg a -> term_hash (h_word ~h 6L) a
    | M.Not a -> term_hash (h_word ~h 7L) a
    | M.And (a, b) -> term_hash2 (h_word ~h 8L) a b
    | M.Or (a, b) -> term_hash2 (h_word ~h 9L) a b
    | M.Xor (a, b) -> term_hash2 (h_word ~h 10L) a b
    | M.Shl (a, b) -> term_hash2 (h_word ~h 11L) a b
    | M.Shr (a, b) -> term_hash2 (h_word ~h 12L) a b
    | M.Sar (a, b) -> term_hash2 (h_word ~h 13L) a b

  and term_hash2 h a b = term_hash (term_hash h a) b

  let formula_hash h (f : M.atom) =
    match f with
    | M.True -> h_word ~h 1L
    | M.False -> h_word ~h 2L
    | M.Eq (a, b) -> term_hash2 (h_word ~h 3L) a b
    | M.Ne (a, b) -> term_hash2 (h_word ~h 4L) a b
    | M.Slt (a, b) -> term_hash2 (h_word ~h 5L) a b
    | M.Sle (a, b) -> term_hash2 (h_word ~h 6L) a b
    | M.Ult (a, b) -> term_hash2 (h_word ~h 7L) a b
    | M.Ule (a, b) -> term_hash2 (h_word ~h 8L) a b
    | M.Readable a -> term_hash (h_word ~h 9L) a
    | M.Writable a -> term_hash (h_word ~h 10L) a

  let hash_list fold h xs = List.fold_left fold (h_word ~h (Int64.of_int (List.length xs))) xs

  type key = {
    jmp : [ `Ret of M.term | `Ind of M.term | `Fall ];
    post : (int * M.term) list;
    stack_writes : (int * M.term) list;
    ptr_writes : (M.term * M.term) list;
    pre : M.atom list;
  }

  let key (g : Gp_core.Gadget.t) =
    { jmp =
        (match g.Gp_core.Gadget.jmp with
         | Gp_symx.Exec.Jret t -> `Ret (M.term t)
         | Gp_symx.Exec.Jind t -> `Ind (M.term t)
         | Gp_symx.Exec.Jfall _ -> `Fall);
      post = Array.to_list (Array.mapi (fun r t -> (r, M.term t)) g.Gp_core.Gadget.post);
      stack_writes = List.map (fun (o, t) -> (o, M.term t)) g.Gp_core.Gadget.stack_writes;
      ptr_writes = List.map (fun (a, v) -> (M.term a, M.term v)) g.Gp_core.Gadget.ptr_writes;
      pre = List.map M.atom g.Gp_core.Gadget.pre }

  let hash k =
    let h =
      hash_list (fun h (r, t) -> term_hash (h_word ~h (Int64.of_int r)) t)
        0xcbf29ce484222325L k.post
    in
    let h =
      match k.jmp with
      | `Ret t -> term_hash (h_word ~h 0x10L) t
      | `Ind t -> term_hash (h_word ~h 0x11L) t
      | `Fall -> h_word ~h 0x12L
    in
    let h = hash_list (fun h (o, t) -> term_hash (h_word ~h (Int64.of_int o)) t) h k.stack_writes in
    let h = hash_list (fun h (a, v) -> term_hash (term_hash h a) v) h k.ptr_writes in
    hash_list formula_hash h k.pre

  let dedup gadgets =
    let seen : (int64, key list) Hashtbl.t = Hashtbl.create 1024 in
    List.filter
      (fun g ->
        let k = key g in
        let h = hash k in
        let bucket = Option.value (Hashtbl.find_opt seen h) ~default:[] in
        if List.mem k bucket then false
        else begin
          Hashtbl.replace seen h (k :: bucket);
          true
        end)
      gadgets
end

(* Over every survey cell, with the harvest extracted (and its terms
   interned) one cell at a time on an emptied intern table, and again
   with every cell's extraction a concurrent request on JOBS domains on
   an emptied table: the identity-keyed dedup keeps exactly the
   reference's survivors, in the same order. *)
let test_dedup_vs_reference () =
  let survivors gs = List.map (fun g -> (g.Gp_core.Gadget.id, g.Gp_core.Gadget.addr)) gs in
  let cells =
    Gp_harness.Survey.survey_cells Gp_harness.Survey.full_grid (fun entry cname cfg ->
        ( entry.Gp_corpus.Programs.name ^ "/" ^ cname,
          Gp_codegen.Pipeline.compile ~transform:(Gp_obf.Obf.transform cfg)
            entry.Gp_corpus.Programs.source ))
  in
  let check how (cell, harvest) =
    let got = Gp_core.Subsume.dedup harvest in
    let want = Ref_dedup.dedup harvest in
    if survivors got <> survivors want then
      Alcotest.failf "%s %s: %d survivors, reference %d" cell how
        (List.length got) (List.length want)
  in
  let harvest image =
    snd
      (Gp_core.Api.stage_subsume
         (Gp_core.Api.stage_extract ~ids:(Gp_core.Gadget.local_ids ()) image))
  in
  List.iter
    (fun (cell, image) ->
      Gp_harness.Survey.reset_world ();
      check "alone" (cell, harvest image))
    cells;
  Gp_harness.Survey.reset_world ();
  List.iter (check "concurrent")
    (List.combine (List.map fst cells)
       (Gen.concurrently ~jobs:Gen.jobs_under_test
          (List.map (fun (_, image) () -> harvest image) cells)))

(* Every harvested gadget rendered as text, field by field, through the
   term and formula printers and [post_of], so the text does not depend
   on how the record stores its fields. *)
let render_gadget b (g : Gp_core.Gadget.t) =
  let module G = Gp_core.Gadget in
  let term = Gp_smt.Term.to_string in
  let regs rs = String.concat " " (List.map Reg.name rs) in
  Printf.bprintf b "id %d addr 0x%Lx len %d kind %s\n" g.G.id g.G.addr g.G.len
    (G.kind_name g.G.kind);
  Printf.bprintf b " jmp %s\n"
    (match g.G.jmp with
     | Gp_symx.Exec.Jret t -> "ret " ^ term t
     | Gp_symx.Exec.Jind t -> "ind " ^ term t
     | Gp_symx.Exec.Jfall a -> Printf.sprintf "fall 0x%Lx" a);
  Printf.bprintf b " clobbered %s\n" (regs g.G.clobbered);
  Printf.bprintf b " controlled %s\n"
    (String.concat " "
       (List.map (fun (r, o) -> Printf.sprintf "%s<-%d" (Reg.name r) o) g.G.controlled));
  List.iter (fun f -> Printf.bprintf b " pre %s\n" (Gp_smt.Formula.to_string f)) g.G.pre;
  List.iter
    (fun r -> Printf.bprintf b " post %s = %s\n" (Reg.name r) (term (G.post_of g r)))
    Reg.all;
  Printf.bprintf b " stack_delta %s\n"
    (match g.G.stack_delta with
     | G.Sdelta d -> Printf.sprintf "delta %d" d
     | G.Spivot d -> Printf.sprintf "pivot %d" d
     | G.Sunknown -> "unknown");
  List.iter (fun (o, t) -> Printf.bprintf b " stack_write %d %s\n" o (term t)) g.G.stack_writes;
  List.iter (fun (a, v) -> Printf.bprintf b " ptr_write %s %s\n" (term a) (term v)) g.G.ptr_writes;
  Printf.bprintf b " consumed %s\n" (String.concat " " (List.map string_of_int g.G.consumed));
  List.iter
    (fun (n, a, reliable) -> Printf.bprintf b " mem_read %s %s %b\n" n (term a) reliable)
    g.G.mem_reads;
  (match g.G.syscall_state with
   | None -> Printf.bprintf b " syscall none\n"
   | Some st ->
     List.iter (fun (r, t) -> Printf.bprintf b " syscall %s = %s\n" (Reg.name r) (term t)) st);
  Printf.bprintf b " has_cond %b has_merge %b alias_hazard %b\n" g.G.has_cond g.G.has_merge
    g.G.alias_hazard

(* The MD5 of the rendering over six survey cells, computed before
   post-conditions shared the executor's register file: a change to the
   executor or the record must leave every harvested gadget as it was.
   Each cell is harvested cold (after [reset_world]) and again as an
   image-memo replay; both render the pinned text. *)
let golden_harvest_md5 = "3c8bf03b4bf43da6050e2ab7f9eba8b2"

let test_golden_harvest () =
  let b = Buffer.create (1 lsl 20) in
  let cells =
    Gp_harness.Survey.survey_cells
      { Gp_harness.Survey.full_grid with
        entries = List.map Gp_corpus.Programs.find [ "fibonacci"; "bubble_sort" ] }
      (fun entry cname cfg ->
        ( entry.Gp_corpus.Programs.name ^ "/" ^ cname,
          Gp_codegen.Pipeline.compile ~transform:(Gp_obf.Obf.transform cfg)
            entry.Gp_corpus.Programs.source ))
  in
  let harvest image =
    fst (Gp_core.Extract.harvest_r ~ids:(Gp_core.Gadget.local_ids ()) image)
  in
  let rendered gs =
    let b = Buffer.create 4096 in
    List.iter (render_gadget b) gs;
    Buffer.contents b
  in
  List.iter
    (fun (cell, image) ->
      Gp_harness.Survey.reset_world ();
      let cold = rendered (harvest image) in
      Alcotest.(check string) (cell ^ ": replay renders as cold") cold
        (rendered (harvest image));
      Printf.bprintf b "cell %s\n%s" cell cold)
    cells;
  Alcotest.(check string) "harvest rendering md5" golden_harvest_md5
    (Digest.to_hex (Digest.string (Buffer.contents b)))

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
      prop_minimize_covers;
    Alcotest.test_case "dedup = structural reference over the survey cells" `Slow
      test_dedup_vs_reference;
    Alcotest.test_case "golden harvest rendering" `Slow test_golden_harvest ]
