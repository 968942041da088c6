(* x86-64 decoder for the encoder's subset.

   [decode] may be pointed at ANY byte offset — including the middle of an
   encoded instruction — and either produces an instruction or rejects the
   bytes.  This is what makes unaligned gadget harvesting possible: bytes
   of immediates and displacements re-decode as different instructions,
   exactly as on real hardware.  Unknown opcodes yield [None] rather than
   an exception so callers can slide a window over raw code. *)

type cursor = { bytes : Bytes.t; limit : int; mutable pos : int }

exception Reject

let u8 c =
  if c.pos >= c.limit then raise Reject;
  let v = Bytes.get_uint8 c.bytes c.pos in
  c.pos <- c.pos + 1;
  v

let i8 c =
  let v = u8 c in
  if v >= 0x80 then v - 0x100 else v

let u16 c =
  let lo = u8 c in
  let hi = u8 c in
  lo lor (hi lsl 8)

let i32 c =
  let b0 = u8 c in
  let b1 = u8 c in
  let b2 = u8 c in
  let b3 = u8 c in
  let v = b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24) in
  if v land 0x80000000 <> 0 then v - (1 lsl 32) else v

let i64 c =
  let rec go acc k =
    if k = 8 then acc
    else
      let b = Int64.of_int (u8 c) in
      go (Int64.logor acc (Int64.shift_left b (8 * k))) (k + 1)
  in
  go 0L 0

type rm = RmReg of Reg.t | RmMem of Insn.mem

(* Decode ModRM (+SIB +disp).  Returns (reg field incl. REX.R, rm). *)
let modrm c ~rexr ~rexb =
  let m = u8 c in
  let md = m lsr 6 in
  let reg = ((m lsr 3) land 7) lor (rexr lsl 3) in
  let rm = m land 7 in
  if md = 3 then (reg, RmReg (Reg.of_number (rm lor (rexb lsl 3))))
  else begin
    let base =
      if rm = 4 then begin
        let sib = u8 c in
        let scale = sib lsr 6 in
        let idx = (sib lsr 3) land 7 in
        let b = sib land 7 in
        (* only "no index" SIB forms are in our subset *)
        if idx <> 4 || scale <> 0 then raise Reject;
        if md = 0 && b = 5 then raise Reject;
        Reg.of_number (b lor (rexb lsl 3))
      end
      else if md = 0 && rm = 5 then raise Reject (* RIP-relative *)
      else Reg.of_number (rm lor (rexb lsl 3))
    in
    let disp = match md with 0 -> 0 | 1 -> i8 c | _ -> i32 c in
    (reg, RmMem { Insn.base; disp })
  end

let rm_operand = function
  | RmReg r -> Insn.Reg r
  | RmMem m -> Insn.Mem m

let rm_reg_exn = function RmReg r -> r | RmMem _ -> raise Reject

let alu_mr c ~rexr ~rexb mk =
  let reg, rm = modrm c ~rexr ~rexb in
  mk (rm_operand rm) (Insn.Reg (Reg.of_number reg))

let alu_rm c ~rexr ~rexb mk =
  let reg, rm = modrm c ~rexr ~rexb in
  mk (Insn.Reg (Reg.of_number reg)) (rm_operand rm)

let decode_at c =
  let open Insn in
  let b0 = u8 c in
  (* REX prefix *)
  let rexw, rexr, rexb, op =
    if b0 >= 0x40 && b0 <= 0x4F then begin
      if b0 land 0x02 <> 0 then raise Reject (* REX.X never emitted *)
      else
        ((b0 lsr 3) land 1, (b0 lsr 2) land 1, b0 land 1, u8 c)
    end
    else (0, 0, 0, b0)
  in
  let need_w () = if rexw = 0 then raise Reject in
  match op with
  | _ when op >= 0x50 && op <= 0x57 ->
    Push (Reg.of_number ((op - 0x50) lor (rexb lsl 3)))
  | _ when op >= 0x58 && op <= 0x5F ->
    Pop (Reg.of_number ((op - 0x58) lor (rexb lsl 3)))
  | 0x68 -> PushImm (i32 c)
  | 0x89 -> need_w (); alu_mr c ~rexr ~rexb (fun d s -> Mov (d, s))
  | 0x8B -> need_w (); alu_rm c ~rexr ~rexb (fun d s -> Mov (d, s))
  | 0xC7 ->
    need_w ();
    let ext, rm = modrm c ~rexr ~rexb in
    if ext land 7 <> 0 then raise Reject;
    let imm = Int64.of_int (i32 c) in
    Mov (rm_operand rm, Imm imm)
  | _ when op >= 0xB8 && op <= 0xBF ->
    need_w ();
    Movabs (Reg.of_number ((op - 0xB8) lor (rexb lsl 3)), i64 c)
  | 0x8D ->
    need_w ();
    let reg, rm = modrm c ~rexr ~rexb in
    (match rm with
     | RmMem m -> Lea (Reg.of_number reg, m)
     | RmReg _ -> raise Reject)
  | 0x01 -> need_w (); alu_mr c ~rexr ~rexb (fun d s -> Add (d, s))
  | 0x03 -> need_w (); alu_rm c ~rexr ~rexb (fun d s -> Add (d, s))
  | 0x09 -> need_w (); alu_mr c ~rexr ~rexb (fun d s -> Or_ (d, s))
  | 0x0B -> need_w (); alu_rm c ~rexr ~rexb (fun d s -> Or_ (d, s))
  | 0x21 -> need_w (); alu_mr c ~rexr ~rexb (fun d s -> And_ (d, s))
  | 0x23 -> need_w (); alu_rm c ~rexr ~rexb (fun d s -> And_ (d, s))
  | 0x29 -> need_w (); alu_mr c ~rexr ~rexb (fun d s -> Sub (d, s))
  | 0x2B -> need_w (); alu_rm c ~rexr ~rexb (fun d s -> Sub (d, s))
  | 0x31 -> need_w (); alu_mr c ~rexr ~rexb (fun d s -> Xor (d, s))
  | 0x33 -> need_w (); alu_rm c ~rexr ~rexb (fun d s -> Xor (d, s))
  | 0x39 -> need_w (); alu_mr c ~rexr ~rexb (fun d s -> Cmp (d, s))
  | 0x3B -> need_w (); alu_rm c ~rexr ~rexb (fun d s -> Cmp (d, s))
  | 0x81 ->
    need_w ();
    let ext, rm = modrm c ~rexr ~rexb in
    let imm = Int64.of_int (i32 c) in
    let d = rm_operand rm in
    (match ext land 7 with
     | 0 -> Add (d, Imm imm)
     | 1 -> Or_ (d, Imm imm)
     | 4 -> And_ (d, Imm imm)
     | 5 -> Sub (d, Imm imm)
     | 6 -> Xor (d, Imm imm)
     | 7 -> Cmp (d, Imm imm)
     | _ -> raise Reject)
  | 0x85 ->
    need_w ();
    let reg, rm = modrm c ~rexr ~rexb in
    Test (rm_reg_exn rm, Reg.of_number reg)
  | 0x87 ->
    need_w ();
    let reg, rm = modrm c ~rexr ~rexb in
    Xchg (rm_reg_exn rm, Reg.of_number reg)
  | 0xC1 ->
    need_w ();
    let ext, rm = modrm c ~rexr ~rexb in
    let n = u8 c in
    let r = rm_reg_exn rm in
    (match ext land 7 with
     | 4 -> Shl (r, n)
     | 5 -> Shr (r, n)
     | 7 -> Sar (r, n)
     | _ -> raise Reject)
  | 0xFF ->
    let ext, rm = modrm c ~rexr ~rexb in
    (match ext land 7, rm with
     | 0, RmReg r -> need_w (); Inc r
     | 1, RmReg r -> need_w (); Dec r
     | 2, RmReg r -> CallReg r
     | 2, RmMem m -> CallMem m
     | 4, RmReg r -> JmpReg r
     | 4, RmMem m -> JmpMem m
     | _ -> raise Reject)
  | 0xF7 ->
    need_w ();
    let ext, rm = modrm c ~rexr ~rexb in
    let r = rm_reg_exn rm in
    (match ext land 7 with
     | 2 -> Not_ r
     | 3 -> Neg r
     | _ -> raise Reject)
  | 0x0F ->
    let op2 = u8 c in
    if op2 = 0x05 then Syscall
    else if op2 >= 0x80 && op2 <= 0x8F then
      Jcc (Insn.cond_of_number (op2 - 0x80), i32 c)
    else if op2 = 0xAF then begin
      need_w ();
      let reg, rm = modrm c ~rexr ~rexb in
      Imul (Reg.of_number reg, rm_reg_exn rm)
    end
    else raise Reject
  | 0xE9 -> Jmp (i32 c)
  | 0xEB -> Jmp (i8 c)
  | 0xE8 -> Call (i32 c)
  | _ when op >= 0x70 && op <= 0x7F -> Jcc (Insn.cond_of_number (op - 0x70), i8 c)
  | 0xC3 -> Ret
  | 0xC2 -> RetImm (u16 c)
  | 0xC9 -> Leave
  | 0x90 -> Nop
  | 0xCC -> Int3
  | 0xF4 -> Hlt
  | _ -> raise Reject

(* Decode one instruction at [pos]; returns the instruction and its length. *)
let decode ?limit bytes pos =
  let limit = match limit with Some l -> l | None -> Bytes.length bytes in
  if pos < 0 || pos >= limit then None
  else
    let c = { bytes; limit; pos } in
    match decode_at c with
    | insn -> Some (insn, c.pos - pos)
    | exception Reject -> None

(* ----- decode-once memo (Galileo-style suffix sharing) -----

   Unaligned harvesting decodes at every byte offset, and the runs
   starting at offsets p and p+1 overlap in all but their first
   instruction — so the same position is decoded many times over as
   scans, prefilters, content-key walks and symbolic execution slide
   across the image.  The memo decodes every position of an image ONCE,
   eagerly, and belongs to the one harvest or census that built it.
   [lookups] minus the array length is the number of decodes the memo
   saved. *)

type memo = {
  insns : (Insn.t * int) option array;
  mutable lookups : int;
}

let memo ?limit bytes =
  let limit = match limit with Some l -> l | None -> Bytes.length bytes in
  { insns = Array.init limit (fun pos -> decode ~limit bytes pos);
    lookups = 0 }

let decode_memo m pos =
  m.lookups <- m.lookups + 1;
  if pos < 0 || pos >= Array.length m.insns then None else m.insns.(pos)

let memo_size m = Array.length m.insns
let memo_lookups m = m.lookups

(* Decode a straight-line run starting at [pos]: consecutive instructions
   up to and including the first terminator.  Returns [(insn, offset)]
   pairs (offset relative to [pos]) or None if any byte fails to decode or
   no terminator is reached within [max_insns]. *)
let decode_run ?(max_insns = 64) ?limit bytes pos =
  let rec go acc p n =
    if n > max_insns then None
    else
      match decode ?limit bytes p with
      | None -> None
      | Some (insn, len) ->
        let acc = (insn, p - pos, len) :: acc in
        if Insn.is_terminator insn then Some (List.rev acc)
        else go acc (p + len) (n + 1)
  in
  go [] pos 0
