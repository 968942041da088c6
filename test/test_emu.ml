(* Tests for the concrete emulator: instruction semantics, flags vs
   conditions (differential property against int64 predicates), memory,
   the syscall model.  Paged copy-on-write memory is checked against a
   flat reference model, and machines sharing one image against each
   other — on JOBS domains at once (default 4), so `make check-emu` can
   sweep job counts. *)

open Gp_x86

(* Run a raw instruction sequence with given initial registers. *)
let exec_insns ?(regs = []) insns =
  let code = Encode.insns (insns @ [ Insn.Hlt ]) in
  let image = Gp_util.Image.create ~entry:0x400000L ~code ~data:(Bytes.create 16) () in
  let m = Gp_emu.Machine.create image in
  List.iter (fun (r, v) -> Gp_emu.Machine.set_reg m r v) regs;
  let rec step () =
    match Gp_emu.Machine.step m with
    | () -> if m.Gp_emu.Machine.steps < 1000 then step ()
    | exception Gp_emu.Machine.Halt _ -> ()
    | exception Gp_emu.Memory.Fault _ -> ()
  in
  step ();
  m

let reg = Gp_emu.Machine.reg

let test_mov_and_arith () =
  let m =
    exec_insns
      [ Insn.Mov (Insn.Reg Reg.RAX, Insn.Imm 10L);
        Insn.Mov (Insn.Reg Reg.RBX, Insn.Imm 32L);
        Insn.Add (Insn.Reg Reg.RAX, Insn.Reg Reg.RBX);
        Insn.Movabs (Reg.RCX, 0x100000000L);
        Insn.Sub (Insn.Reg Reg.RCX, Insn.Imm 1L) ]
  in
  Alcotest.(check int64) "add" 42L (reg m Reg.RAX);
  Alcotest.(check int64) "movabs+sub" 0xffffffffL (reg m Reg.RCX)

let test_push_pop_stack () =
  let m =
    exec_insns
      [ Insn.Mov (Insn.Reg Reg.RAX, Insn.Imm 7L);
        Insn.Push Reg.RAX;
        Insn.Pop Reg.RBX ]
  in
  Alcotest.(check int64) "pop" 7L (reg m Reg.RBX)

let test_xchg_lea () =
  let m =
    exec_insns
      [ Insn.Mov (Insn.Reg Reg.RAX, Insn.Imm 1L);
        Insn.Mov (Insn.Reg Reg.RBX, Insn.Imm 2L);
        Insn.Xchg (Reg.RAX, Reg.RBX);
        Insn.Lea (Reg.RCX, Insn.mem ~disp:100 Reg.RAX) ]
  in
  Alcotest.(check int64) "xchg" 2L (reg m Reg.RAX);
  Alcotest.(check int64) "lea" 102L (reg m Reg.RCX)

let test_memory_rw () =
  let mem = Gp_emu.Memory.create () in
  Gp_emu.Memory.map mem 0x1000L 64;
  Gp_emu.Memory.write64 mem 0x1008L 0x0123456789abcdefL;
  Alcotest.(check int64) "rw" 0x0123456789abcdefL (Gp_emu.Memory.read64 mem 0x1008L);
  Alcotest.(check int) "byte" 0xef (Gp_emu.Memory.read8 mem 0x1008L);
  Alcotest.(check bool) "fault" true
    (try ignore (Gp_emu.Memory.read8 mem 0x2000L); false
     with Gp_emu.Memory.Fault _ -> true)

let test_cstring () =
  let mem = Gp_emu.Memory.create () in
  Gp_emu.Memory.map mem 0x1000L 64;
  Gp_emu.Memory.write_bytes mem 0x1000L (Bytes.of_string "/bin/sh\x00junk");
  Alcotest.(check string) "cstring" "/bin/sh" (Gp_emu.Memory.read_cstring mem 0x1000L)

(* differential: each condition code after cmp a, b matches its predicate *)
let cond_predicate (c : Insn.cond) a b =
  let ult x y = Int64.unsigned_compare x y < 0 in
  match c with
  | Insn.E -> a = b
  | Insn.NE -> a <> b
  | Insn.L -> Int64.compare a b < 0
  | Insn.LE -> Int64.compare a b <= 0
  | Insn.G -> Int64.compare a b > 0
  | Insn.GE -> Int64.compare a b >= 0
  | Insn.B -> ult a b
  | Insn.BE -> not (ult b a)
  | Insn.A -> ult b a
  | Insn.AE -> not (ult a b)
  | Insn.S -> Int64.compare (Int64.sub a b) 0L < 0
  | Insn.NS -> Int64.compare (Int64.sub a b) 0L >= 0
  | Insn.O | Insn.NO | Insn.P | Insn.NP -> true   (* not checked here *)

(* Exact differential: drive the condition via a jcc skipping a mov. *)
let jcc_taken c a b =
  (* layout: cmp; jcc +7; mov rcx,1 (7 bytes); hlt.  rcx=1 iff NOT taken *)
  let insns =
    [ Insn.Cmp (Insn.Reg Reg.RAX, Insn.Reg Reg.RBX);
      Insn.Jcc (c, 7);
      Insn.Mov (Insn.Reg Reg.RCX, Insn.Imm 1L) ]
  in
  let m = exec_insns ~regs:[ (Reg.RAX, a); (Reg.RBX, b) ] insns in
  reg m Reg.RCX = 0L

let prop_jcc_matches_predicate (a, b, ci) =
  let c = Insn.cond_of_number ci in
  match c with
  | Insn.O | Insn.NO | Insn.P | Insn.NP -> true
  | _ -> jcc_taken c a b = cond_predicate c a b

let test_call_ret () =
  (* call +1 (skip nothing, lands on next); then inc rax; ret to pushed addr *)
  let m =
    exec_insns
      [ Insn.Mov (Insn.Reg Reg.RAX, Insn.Imm 5L);
        Insn.Call 0;    (* pushes next address and falls through *)
        Insn.Pop Reg.RBX (* the pushed return address *) ]
  in
  Alcotest.(check int64) "return addr points after call"
    (Int64.add 0x400000L 12L) (reg m Reg.RBX)

let test_syscall_exit () =
  let code =
    Encode.insns
      [ Insn.Mov (Insn.Reg Reg.RDI, Insn.Imm 42L);
        Insn.Mov (Insn.Reg Reg.RAX, Insn.Imm 60L);
        Insn.Syscall ]
  in
  let image = Gp_util.Image.create ~entry:0x400000L ~code ~data:(Bytes.create 8) () in
  match Gp_emu.Machine.run_image image with
  | Gp_emu.Machine.Exited 42L, _ -> ()
  | _ -> Alcotest.fail "expected exit 42"

let test_syscall_execve_attack () =
  (* stage "/x" in data, call execve *)
  let code =
    Encode.insns
      [ Insn.Movabs (Reg.RDI, 0x600000L);
        Insn.Mov (Insn.Reg Reg.RSI, Insn.Imm 0L);
        Insn.Mov (Insn.Reg Reg.RDX, Insn.Imm 0L);
        Insn.Mov (Insn.Reg Reg.RAX, Insn.Imm 59L);
        Insn.Syscall ]
  in
  let image =
    Gp_util.Image.create ~entry:0x400000L ~code ~data:(Bytes.of_string "/x\x00") ()
  in
  match Gp_emu.Machine.run_image image with
  | Gp_emu.Machine.Attacked (Gp_emu.Machine.Execve { path; _ }), _ ->
    Alcotest.(check string) "path" "/x" path
  | _ -> Alcotest.fail "expected execve attack"

let test_syscall_execve_bad_path_continues () =
  (* execve of a non-absolute path fails with ENOENT and execution continues *)
  let code =
    Encode.insns
      [ Insn.Movabs (Reg.RDI, 0x600000L);
        Insn.Mov (Insn.Reg Reg.RAX, Insn.Imm 59L);
        Insn.Syscall;
        Insn.Mov (Insn.Reg Reg.RDI, Insn.Imm 9L);
        Insn.Mov (Insn.Reg Reg.RAX, Insn.Imm 60L);
        Insn.Syscall ]
  in
  let image =
    Gp_util.Image.create ~entry:0x400000L ~code ~data:(Bytes.of_string "nope\x00") ()
  in
  match Gp_emu.Machine.run_image image with
  | Gp_emu.Machine.Exited 9L, _ -> ()
  | _ -> Alcotest.fail "expected continuation to exit 9"

let test_syscall_mprotect_requires_alignment () =
  let run addr =
    let code =
      Encode.insns
        [ Insn.Movabs (Reg.RDI, addr);
          Insn.Mov (Insn.Reg Reg.RSI, Insn.Imm 0x1000L);
          Insn.Mov (Insn.Reg Reg.RDX, Insn.Imm 7L);
          Insn.Mov (Insn.Reg Reg.RAX, Insn.Imm 10L);
          Insn.Syscall;
          Insn.Mov (Insn.Reg Reg.RDI, Insn.Imm 1L);
          Insn.Mov (Insn.Reg Reg.RAX, Insn.Imm 60L);
          Insn.Syscall ]
    in
    let image = Gp_util.Image.create ~entry:0x400000L ~code ~data:(Bytes.create 8) () in
    fst (Gp_emu.Machine.run_image image)
  in
  (match run Gp_emu.Machine.stack_base with
   | Gp_emu.Machine.Attacked (Gp_emu.Machine.Mprotect _) -> ()
   | _ -> Alcotest.fail "aligned mapped mprotect should attack");
  match run (Int64.add Gp_emu.Machine.stack_base 3L) with
  | Gp_emu.Machine.Exited 1L -> ()
  | _ -> Alcotest.fail "misaligned mprotect should fail and continue"

(* Code that overwrites 8 of its own HLT bytes with NOPs, runs [extra]
   (with the NOP word in rcx), reaches the patch and exits 3: exiting 3
   means the fetch path saw the write.  The patch sits at code offset
   [at], behind a jmp and HLT fill, or by default right after the
   writing instruction.  Returns the image and the patch address. *)
let self_patch_image ?(extra = []) ?(data = Bytes.create 8) ?at () =
  let base = Gp_util.Image.default_code_base in
  let head patch_addr =
    Encode.insns
      ([ Insn.Movabs (Reg.RBX, patch_addr);
         Insn.Movabs (Reg.RCX, 0x9090909090909090L) ]
      @ extra
      @ [ Insn.Mov (Insn.Mem (Insn.mem Reg.RBX), Insn.Reg Reg.RCX) ])
  in
  let head_len = Bytes.length (head 0L) in
  let at = Option.value at ~default:head_len in
  let patch_addr = Int64.add base (Int64.of_int at) in
  let skip =
    if at = head_len then Bytes.empty
    else
      let fill = at - head_len - 5 (* jmp rel32 *) in
      Bytes.cat (Encode.insns [ Insn.Jmp fill ]) (Bytes.make fill '\xf4')
  in
  let tail =
    Encode.insns
      (List.init 8 (fun _ -> Insn.Hlt)
      @ [ Insn.Mov (Insn.Reg Reg.RDI, Insn.Imm 3L);
          Insn.Mov (Insn.Reg Reg.RAX, Insn.Imm 60L);
          Insn.Syscall ])
  in
  let code = Bytes.concat Bytes.empty [ head patch_addr; skip; tail ] in
  (Gp_util.Image.create ~entry:base ~code ~data (), patch_addr)

let test_self_modifying_fetch () =
  (* the patch is the next instruction; then it straddles the 4 KiB page
     boundary at code offset 0x1000 *)
  List.iter
    (fun at ->
      let image, patch_addr = self_patch_image ?at () in
      match Gp_emu.Machine.run_image image with
      | Gp_emu.Machine.Exited 3L, _ -> ()
      | Gp_emu.Machine.Fault m, _ -> Alcotest.failf "patch at 0x%Lx: fault: %s" patch_addr m
      | _ -> Alcotest.failf "patch at 0x%Lx: expected exit 3 after self-patch" patch_addr)
    [ None; Some (0x1000 - 4) ]

(* A self-patch across the page boundary at code offset 0x1000 that
   also writes the NOP word into data and pushes it on the stack.
   Returns the image, the data address written and the patch address. *)
let isolation_image () =
  let data = Bytes.init 64 (fun i -> Char.chr (0xa0 + i)) in
  let data_addr = Int64.add Gp_util.Image.default_data_base 3L in
  let image, patch_addr =
    self_patch_image ~data ~at:(0x1000 - 4)
      ~extra:
        [ Insn.Movabs (Reg.RDX, data_addr);
          Insn.Mov (Insn.Mem (Insn.mem Reg.RDX), Insn.Reg Reg.RCX);
          Insn.Push Reg.RCX ]
      ()
  in
  (image, data_addr, patch_addr)

(* Machines on one image share its code and data read-only: a machine
   that patches code across a page boundary, writes data and pushes on
   its stack leaves the image's bytes as they were, and a second machine
   on the same image reads the originals at every written address. *)
let test_machines_isolated () =
  let image, data_addr, patch_addr = isolation_image () in
  let code0 = Bytes.copy image.Gp_util.Image.code in
  let data0 = Bytes.copy image.Gp_util.Image.data in
  let m1 = Gp_emu.Machine.create image in
  let stack_addr = Int64.sub (Gp_emu.Machine.rsp m1) 8L in
  (match Gp_emu.Machine.run m1 with
   | Gp_emu.Machine.Exited 3L -> ()
   | _ -> Alcotest.fail "expected exit 3 after self-patch");
  let word bytes base addr = Bytes.get_int64_le bytes (Int64.to_int (Int64.sub addr base)) in
  let written =
    [ ("code", patch_addr, word code0 image.Gp_util.Image.code_base patch_addr);
      ("data", data_addr, word data0 image.Gp_util.Image.data_base data_addr);
      ("stack", stack_addr, 0L) ]
  in
  List.iter
    (fun (what, addr, _) ->
      Alcotest.(check int64) ("first machine wrote " ^ what) 0x9090909090909090L
        (Gp_emu.Memory.read64 m1.Gp_emu.Machine.mem addr))
    written;
  Alcotest.(check bool) "image code unchanged" true (Bytes.equal code0 image.Gp_util.Image.code);
  Alcotest.(check bool) "image data unchanged" true (Bytes.equal data0 image.Gp_util.Image.data);
  let m2 = Gp_emu.Machine.create image in
  List.iter
    (fun (what, addr, orig) ->
      Alcotest.(check int64) ("second machine reads original " ^ what) orig
        (Gp_emu.Memory.read64 m2.Gp_emu.Machine.mem addr))
    written

let jobs_under_test =
  match Sys.getenv_opt "JOBS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

(* The same, with four machines on each of JOBS domains at once reading
   the one image's shared bytes: every run exits 3 and sees its own
   writes, and the image is unchanged after the join. *)
let test_machines_across_domains () =
  let image, data_addr, patch_addr = isolation_image () in
  let code0 = Bytes.copy image.Gp_util.Image.code in
  let data0 = Bytes.copy image.Gp_util.Image.data in
  let run () =
    let outcome, m = Gp_emu.Machine.run_image image in
    ( outcome,
      Gp_emu.Memory.read64 m.Gp_emu.Machine.mem patch_addr,
      Gp_emu.Memory.read64 m.Gp_emu.Machine.mem data_addr )
  in
  List.init jobs_under_test (fun _ ->
      Domain.spawn (fun () -> List.init 4 (fun _ -> run ())))
  |> List.concat_map Domain.join
  |> List.iter (fun (outcome, code_word, data_word) ->
         Alcotest.(check bool) "exit 3" true (outcome = Gp_emu.Machine.Exited 3L);
         Alcotest.(check int64) "own code write" 0x9090909090909090L code_word;
         Alcotest.(check int64) "own data write" 0x9090909090909090L data_word);
  Alcotest.(check bool) "image code unchanged" true (Bytes.equal code0 image.Gp_util.Image.code);
  Alcotest.(check bool) "image data unchanged" true (Bytes.equal data0 image.Gp_util.Image.data)

(* ----- paged memory vs a flat reference ----- *)

(* The flat model Memory replaced: one private Bytes per region, the
   newest region first, every access byte by byte. *)
module Flat = struct
  type t = { mutable regions : (int64 * Bytes.t) list }

  let create () = { regions = [] }
  let map t base size = t.regions <- (base, Bytes.make size '\000') :: t.regions
  let map_bytes t base bytes = t.regions <- (base, Bytes.copy bytes) :: t.regions

  let find t addr =
    List.find_opt
      (fun (base, b) -> addr >= base && addr < Int64.add base (Int64.of_int (Bytes.length b)))
      t.regions

  let read8 t addr =
    match find t addr with
    | Some (base, b) -> Bytes.get_uint8 b (Int64.to_int (Int64.sub addr base))
    | None -> raise (Gp_emu.Memory.Fault (Printf.sprintf "read of unmapped address 0x%Lx" addr))

  let write8 t addr v =
    match find t addr with
    | Some (base, b) -> Bytes.set_uint8 b (Int64.to_int (Int64.sub addr base)) (v land 0xff)
    | None -> raise (Gp_emu.Memory.Fault (Printf.sprintf "write to unmapped address 0x%Lx" addr))

  let read64 t addr =
    let rec go acc k =
      if k = 8 then acc
      else
        let b = Int64.of_int (read8 t (Int64.add addr (Int64.of_int k))) in
        go (Int64.logor acc (Int64.shift_left b (8 * k))) (k + 1)
    in
    go 0L 0

  let write64 t addr v =
    for k = 0 to 7 do
      write8 t
        (Int64.add addr (Int64.of_int k))
        (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * k)) 0xffL))
    done

  let read_cstring t addr =
    let buf = Buffer.create 16 in
    let rec loop a =
      let b = read8 t a in
      if b = 0 then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.chr b);
        loop (Int64.add a 1L)
      end
    in
    loop addr
end

type mem_op =
  | Read8 of int64
  | Write8 of int64 * int
  | Read64 of int64
  | Write64 of int64 * int64
  | Cstring of int64

let show_mem_op = function
  | Read8 a -> Printf.sprintf "read8 0x%Lx" a
  | Write8 (a, v) -> Printf.sprintf "write8 0x%Lx 0x%x" a v
  | Read64 a -> Printf.sprintf "read64 0x%Lx" a
  | Write64 (a, v) -> Printf.sprintf "write64 0x%Lx 0x%Lx" a v
  | Cstring a -> Printf.sprintf "read_cstring 0x%Lx" a

(* Pages are 4 KiB, counted from each region's base.  Neither the zero
   region [z] nor the byte-backed [b] is page-aligned or page-sized; a
   16-byte unmapped gap separates them; [a1] and [a2] are adjacent.  The
   overlay variant also maps [o] last, across [z]'s page edge, so it
   shadows [z] there. *)
let page = 4096
let z_base = 0x100010L
let z_size = page + 300
let gap_base = Int64.add z_base (Int64.of_int z_size)
let b_base = Int64.add gap_base 16L
let b_size = page + 700
let a1_base = 0x300008L
let a1_size = 24
let a2_base = Int64.add a1_base (Int64.of_int a1_size)
let a2_size = 40
let o_base = Int64.add z_base (Int64.of_int (page - 10))
let o_size = 20

let at base off = Int64.add base (Int64.of_int off)

(* Addresses biased to page edges, region ends, the gap and the a1/a2
   boundary, plus some anywhere in the layout. *)
let gen_addr =
  let open QCheck2.Gen in
  let near anchor = map (fun d -> Int64.add anchor (Int64.of_int d)) (int_range (-10) 10) in
  frequency
    [ (3, map (at z_base) (int_range (page - 8) (page + 4)));
      (3, map (at b_base) (int_range (page - 8) (page + 4)));
      (2, near gap_base);
      (2, near (at b_base b_size));
      (2, near a2_base);
      (1, near (at a2_base a2_size));
      (1, near z_base);
      (1, near b_base);
      (1, near a1_base);
      (1, near o_base);
      (1, near (at o_base o_size));
      (2, map (at z_base) (int_range 0 (z_size - 1)));
      (2, map (at b_base) (int_range 0 (b_size - 1))) ]

let gen_mem_op =
  let open QCheck2.Gen in
  frequency
    [ (2, map (fun a -> Read8 a) gen_addr);
      (2, map2 (fun a v -> Write8 (a, v)) gen_addr (int_range 0 255));
      (3, map (fun a -> Read64 a) gen_addr);
      (3, map2 (fun a v -> Write64 (a, v)) gen_addr Gen.imm64);
      (1, map (fun a -> Cstring a) gen_addr) ]

(* (overlay?, seed of the byte-backed contents, ops) *)
let gen_mem_case =
  let open QCheck2.Gen in
  triple (frequency [ (3, return false); (1, return true) ]) nat
    (list_size (int_range 1 30) gen_mem_op)

(* Contents for a byte-backed region: a quarter zeros, so read_cstring
   often ends inside the region. *)
let seeded_bytes rng n =
  Bytes.init n (fun _ ->
      if Random.State.int rng 4 = 0 then '\000' else Char.chr (1 + Random.State.int rng 255))

let print_mem_case (overlay, seed, ops) =
  Printf.sprintf "overlay=%b seed=%d ops=[%s]" overlay seed (String.concat "; " (List.map show_mem_op ops))

let prop_paged_matches_flat (overlay, seed, ops) =
  let rng = Random.State.make [| seed |] in
  let b_bytes = seeded_bytes rng b_size in
  let a1_bytes = seeded_bytes rng a1_size in
  let o_bytes = seeded_bytes rng o_size in
  let bases = [ Bytes.copy b_bytes; Bytes.copy a1_bytes; Bytes.copy o_bytes ] in
  let paged = Gp_emu.Memory.create () and flat = Flat.create () in
  Gp_emu.Memory.map paged z_base z_size;
  Flat.map flat z_base z_size;
  Gp_emu.Memory.map_bytes paged b_base b_bytes;
  Flat.map_bytes flat b_base b_bytes;
  Gp_emu.Memory.map_bytes paged a1_base a1_bytes;
  Flat.map_bytes flat a1_base a1_bytes;
  Gp_emu.Memory.map paged a2_base a2_size;
  Flat.map flat a2_base a2_size;
  if overlay then begin
    Gp_emu.Memory.map_bytes paged o_base o_bytes;
    Flat.map_bytes flat o_base o_bytes
  end;
  let outcome f = match f () with v -> Ok v | exception Gp_emu.Memory.Fault m -> Error m in
  let apply op =
    match op with
    | Read8 a ->
      (outcome (fun () -> string_of_int (Gp_emu.Memory.read8 paged a)),
       outcome (fun () -> string_of_int (Flat.read8 flat a)))
    | Write8 (a, v) ->
      (outcome (fun () -> Gp_emu.Memory.write8 paged a v; ""),
       outcome (fun () -> Flat.write8 flat a v; ""))
    | Read64 a ->
      (outcome (fun () -> Int64.to_string (Gp_emu.Memory.read64 paged a)),
       outcome (fun () -> Int64.to_string (Flat.read64 flat a)))
    | Write64 (a, v) ->
      (outcome (fun () -> Gp_emu.Memory.write64 paged a v; ""),
       outcome (fun () -> Flat.write64 flat a v; ""))
    | Cstring a ->
      (outcome (fun () -> Gp_emu.Memory.read_cstring paged a),
       outcome (fun () -> Flat.read_cstring flat a))
  in
  (* every mapped byte, read through each model's own lookup *)
  let same_bytes () =
    List.for_all
      (fun (base, size) ->
        let rec from k =
          k = size
          || (Gp_emu.Memory.read8 paged (at base k) = Flat.read8 flat (at base k)
              && from (k + 1))
        in
        from 0)
      [ (z_base, z_size); (b_base, b_size); (a1_base, a1_size); (a2_base, a2_size) ]
  in
  (* a write64 from z's last 3 bytes into the gap faults partway *)
  let ops = Write64 (at gap_base (-3), 0x1122334455667788L) :: ops in
  List.for_all
    (fun op ->
      let p, f = apply op in
      if p <> f then QCheck2.Test.fail_reportf "%s: paged and flat disagree" (show_mem_op op);
      if not (same_bytes ()) then
        QCheck2.Test.fail_reportf "%s: paged and flat hold different bytes" (show_mem_op op);
      true)
    ops
  && List.for_all2 Bytes.equal bases [ b_bytes; a1_bytes; o_bytes ]

let suite =
  [ Alcotest.test_case "mov and arith" `Quick test_mov_and_arith;
    Alcotest.test_case "push/pop" `Quick test_push_pop_stack;
    Alcotest.test_case "xchg/lea" `Quick test_xchg_lea;
    Alcotest.test_case "memory rw" `Quick test_memory_rw;
    Alcotest.test_case "cstring" `Quick test_cstring;
    Alcotest.test_case "call pushes return" `Quick test_call_ret;
    Alcotest.test_case "syscall exit" `Quick test_syscall_exit;
    Alcotest.test_case "execve attack" `Quick test_syscall_execve_attack;
    Alcotest.test_case "execve bad path continues" `Quick
      test_syscall_execve_bad_path_continues;
    Alcotest.test_case "mprotect alignment" `Quick
      test_syscall_mprotect_requires_alignment;
    Alcotest.test_case "self-modifying fetch" `Quick test_self_modifying_fetch;
    Alcotest.test_case "machines on one image are isolated" `Quick
      test_machines_isolated;
    Alcotest.test_case "machines on one image across domains" `Quick
      test_machines_across_domains;
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"paged memory matches flat reference" ~count:200
         ~print:print_mem_case gen_mem_case prop_paged_matches_flat);
    Gen.qtest "jcc matches predicate" ~count:800
      QCheck2.Gen.(triple Gen.imm64 Gen.imm64 (int_range 0 15))
      prop_jcc_matches_predicate ]
