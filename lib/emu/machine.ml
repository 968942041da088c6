(* Concrete x86-64 emulator.

   Plays the role of the victim machine: it runs compiled corpus programs
   (so obfuscation passes can be differentially tested for semantic
   preservation) and executes attacker payloads end-to-end (so a
   "payload" only counts if the goal syscall is actually observed with
   the goal arguments — see DESIGN.md "validation-first").

   The syscall model traps the three attack syscalls from the paper
   (execve / mprotect / mmap-family) and halts with an [Attacked]
   outcome carrying the argument registers. *)

open Gp_x86

type attack =
  | Execve of { path : string; argv : int64; envp : int64 }
  | Mprotect of { addr : int64; len : int64; prot : int64 }
  | Mmap of { addr : int64; len : int64; prot : int64 }

type outcome =
  | Exited of int64
  | Attacked of attack
  | Fault of string
  | Timeout

type t = {
  mem : Memory.t;
  regs : int64 array;                  (* indexed by Reg.number *)
  mutable rip : int64;
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable of_ : bool;
  mutable pf : bool;
  mutable output : Buffer.t;           (* bytes written via write(2) *)
  mutable steps : int;
  mutable trace : int64 list;          (* reversed rip trace when tracing *)
  mutable indirects : (int64 * int64) list;
    (* (site, target) of every indirect jump/call taken, reversed *)
  tracing : bool;
}

let stack_base = 0x7ff0000L
let stack_size = 1 lsl 20
let stack_top = Int64.add stack_base (Int64.of_int stack_size)
let scratch_base = 0x700000L
let scratch_size = 1 lsl 16

let reg t r = t.regs.(Reg.number r)
let set_reg t r v = t.regs.(Reg.number r) <- v

let rsp t = reg t Reg.RSP
let set_rsp t v = set_reg t Reg.RSP v

let create ?(tracing = false) (image : Gp_util.Image.t) =
  let mem = Memory.create () in
  Memory.map_bytes mem image.Gp_util.Image.code_base image.Gp_util.Image.code;
  Memory.map_bytes mem image.Gp_util.Image.data_base image.Gp_util.Image.data;
  Memory.map mem stack_base stack_size;
  Memory.map mem scratch_base scratch_size;
  let t =
    { mem;
      regs = Array.make 16 0L;
      rip = image.Gp_util.Image.entry;
      zf = false; sf = false; cf = false; of_ = false; pf = false;
      output = Buffer.create 64;
      steps = 0;
      trace = [];
      indirects = [];
      tracing }
  in
  (* leave generous headroom above rsp: exploit payloads may extend well
     past the smashed frame (pinned-pointer cells) *)
  set_rsp t (Int64.sub stack_top 0x10000L);
  t

let output t = Buffer.contents t.output

(* ----- flags ----- *)

(* unsigned < on int64 *)
let ult a b =
  Int64.compare (Int64.add a Int64.min_int) (Int64.add b Int64.min_int) < 0

let parity_of v =
  let b = Int64.to_int (Int64.logand v 0xffL) in
  let rec go acc b = if b = 0 then acc else go (acc lxor (b land 1)) (b lsr 1) in
  go 1 b = 1   (* PF set when even number of 1 bits *)

let set_logic_flags t r =
  t.zf <- r = 0L;
  t.sf <- Int64.compare r 0L < 0;
  t.cf <- false;
  t.of_ <- false;
  t.pf <- parity_of r

let set_add_flags t a b r =
  t.zf <- r = 0L;
  t.sf <- Int64.compare r 0L < 0;
  t.pf <- parity_of r;
  (* unsigned carry: r <u a  (when b <> 0) *)
  t.cf <- ult r a || (b <> 0L && r = a);
  t.of_ <- Int64.compare a 0L < 0 = (Int64.compare b 0L < 0)
           && Int64.compare r 0L < 0 <> (Int64.compare a 0L < 0)

and set_sub_flags t a b r =
  t.zf <- r = 0L;
  t.sf <- Int64.compare r 0L < 0;
  t.pf <- parity_of r;
  t.cf <- ult a b;
  t.of_ <- Int64.compare a 0L < 0 <> (Int64.compare b 0L < 0)
           && Int64.compare r 0L < 0 <> (Int64.compare a 0L < 0)

let eval_cond t (c : Insn.cond) =
  match c with
  | Insn.O -> t.of_
  | Insn.NO -> not t.of_
  | Insn.B -> t.cf
  | Insn.AE -> not t.cf
  | Insn.E -> t.zf
  | Insn.NE -> not t.zf
  | Insn.BE -> t.cf || t.zf
  | Insn.A -> (not t.cf) && not t.zf
  | Insn.S -> t.sf
  | Insn.NS -> not t.sf
  | Insn.P -> t.pf
  | Insn.NP -> not t.pf
  | Insn.L -> t.sf <> t.of_
  | Insn.GE -> t.sf = t.of_
  | Insn.LE -> t.zf || t.sf <> t.of_
  | Insn.G -> (not t.zf) && t.sf = t.of_

(* ----- operand access ----- *)

let mem_addr t (m : Insn.mem) = Int64.add (reg t m.Insn.base) (Int64.of_int m.Insn.disp)

let read_operand t (op : Insn.operand) =
  match op with
  | Insn.Reg r -> reg t r
  | Insn.Imm i -> i
  | Insn.Mem m -> Memory.read64 t.mem (mem_addr t m)

let write_operand t (op : Insn.operand) v =
  match op with
  | Insn.Reg r -> set_reg t r v
  | Insn.Mem m -> Memory.write64 t.mem (mem_addr t m) v
  | Insn.Imm _ -> raise (Memory.Fault "write to immediate operand")

let push t v =
  set_rsp t (Int64.sub (rsp t) 8L);
  Memory.write64 t.mem (rsp t) v

let pop t =
  let v = Memory.read64 t.mem (rsp t) in
  set_rsp t (Int64.add (rsp t) 8L);
  v

(* ----- syscall model ----- *)

exception Halt of outcome

(* Linux-style behaviour: syscalls with garbage arguments FAIL with a
   negative errno and execution continues (a chain may legitimately pass
   through a syscall instruction with junk registers on its way to the
   goal); only well-formed attack syscalls trigger the Attacked halt. *)
let do_syscall t =
  let nr = reg t Reg.RAX in
  let a1 = reg t Reg.RDI and a2 = reg t Reg.RSI and a3 = reg t Reg.RDX in
  let efault = -14L and einval = -22L and enoent = -2L in
  match Int64.to_int nr with
  | 1 ->
    (* write(fd, buf, len) *)
    let len = Int64.to_int a3 in
    if len < 0 || len > 1 lsl 20 then set_reg t Reg.RAX efault
    else (
      match Memory.read_bytes t.mem a2 len with
      | bytes ->
        Buffer.add_bytes t.output bytes;
        set_reg t Reg.RAX a3
      | exception Memory.Fault _ -> set_reg t Reg.RAX efault)
  | 60 -> raise (Halt (Exited a1))
  | 59 -> (
    match Memory.read_cstring t.mem a1 with
    | path when String.length path > 0 && path.[0] = '/' ->
      (* an executable path: the exec succeeds *)
      raise (Halt (Attacked (Execve { path; argv = a2; envp = a3 })))
    | _ -> set_reg t Reg.RAX enoent
    | exception Memory.Fault _ -> set_reg t Reg.RAX efault)
  | 10 ->
    (* mprotect: requires a page-aligned, mapped address and sane length *)
    if
      Int64.logand a1 0xfffL = 0L
      && Memory.is_mapped t.mem a1
      && a2 > 0L && a2 <= 0x10000000L
    then raise (Halt (Attacked (Mprotect { addr = a1; len = a2; prot = a3 })))
    else set_reg t Reg.RAX einval
  | 9 | 25 ->
    (* mmap/mremap: an attack when mapping executable memory *)
    if a2 > 0L && a2 <= 0x10000000L && Int64.logand a3 4L <> 0L then
      raise (Halt (Attacked (Mmap { addr = a1; len = a2; prot = a3 })))
    else set_reg t Reg.RAX einval
  | _ -> set_reg t Reg.RAX 0L

(* ----- stepping ----- *)

let fetch t =
  (* instructions are at most 15 bytes; read through memory so that
     self-modified code is fetched as written *)
  let window = Bytes.create 15 in
  let avail = ref 0 in
  (try
     for k = 0 to 14 do
       Bytes.set_uint8 window k (Memory.read8 t.mem (Int64.add t.rip (Int64.of_int k)));
       incr avail
     done
   with Memory.Fault _ -> ());
  if !avail = 0 then raise (Halt (Fault (Printf.sprintf "fetch fault at 0x%Lx" t.rip)));
  match Decode.decode ~limit:!avail window 0 with
  | Some (insn, len) -> (insn, len)
  | None ->
    raise
      (Halt
         (Fault
            (Printf.sprintf "undecodable instruction at 0x%Lx: %s" t.rip
               (Gp_util.Hex.of_bytes (Bytes.sub window 0 (min 8 !avail))))))

let exec t insn len =
  let next = Int64.add t.rip (Int64.of_int len) in
  t.rip <- next;
  match insn with
  | Insn.Nop -> ()
  | Insn.Mov (d, s) -> write_operand t d (read_operand t s)
  | Insn.Movabs (r, i) -> set_reg t r i
  | Insn.Lea (r, m) -> set_reg t r (mem_addr t m)
  | Insn.Push r -> push t (reg t r)
  | Insn.PushImm i -> push t (Int64.of_int i)
  | Insn.Pop r -> set_reg t r (pop t)
  | Insn.Add (d, s) ->
    let a = read_operand t d and b = read_operand t s in
    let r = Int64.add a b in
    set_add_flags t a b r;
    write_operand t d r
  | Insn.Sub (d, s) ->
    let a = read_operand t d and b = read_operand t s in
    let r = Int64.sub a b in
    set_sub_flags t a b r;
    write_operand t d r
  | Insn.And_ (d, s) ->
    let r = Int64.logand (read_operand t d) (read_operand t s) in
    set_logic_flags t r;
    write_operand t d r
  | Insn.Or_ (d, s) ->
    let r = Int64.logor (read_operand t d) (read_operand t s) in
    set_logic_flags t r;
    write_operand t d r
  | Insn.Xor (d, s) ->
    let r = Int64.logxor (read_operand t d) (read_operand t s) in
    set_logic_flags t r;
    write_operand t d r
  | Insn.Cmp (d, s) ->
    let a = read_operand t d and b = read_operand t s in
    set_sub_flags t a b (Int64.sub a b)
  | Insn.Test (a, b) -> set_logic_flags t (Int64.logand (reg t a) (reg t b))
  | Insn.Imul (d, s) ->
    let r = Int64.mul (reg t d) (reg t s) in
    set_logic_flags t r;
    set_reg t d r
  | Insn.Shl (r, n) ->
    let v = Int64.shift_left (reg t r) (n land 63) in
    set_logic_flags t v;
    set_reg t r v
  | Insn.Shr (r, n) ->
    let v = Int64.shift_right_logical (reg t r) (n land 63) in
    set_logic_flags t v;
    set_reg t r v
  | Insn.Sar (r, n) ->
    let v = Int64.shift_right (reg t r) (n land 63) in
    set_logic_flags t v;
    set_reg t r v
  | Insn.Inc r ->
    let a = reg t r in
    let v = Int64.add a 1L in
    let cf = t.cf in
    set_add_flags t a 1L v;
    t.cf <- cf;  (* inc leaves CF untouched *)
    set_reg t r v
  | Insn.Dec r ->
    let a = reg t r in
    let v = Int64.sub a 1L in
    let cf = t.cf in
    set_sub_flags t a 1L v;
    t.cf <- cf;
    set_reg t r v
  | Insn.Neg r ->
    let a = reg t r in
    let v = Int64.neg a in
    set_sub_flags t 0L a v;
    set_reg t r v
  | Insn.Not_ r -> set_reg t r (Int64.lognot (reg t r))
  | Insn.Xchg (a, b) ->
    let va = reg t a and vb = reg t b in
    set_reg t a vb;
    set_reg t b va
  | Insn.Jmp rel -> t.rip <- Int64.add next (Int64.of_int rel)
  | Insn.JmpReg r ->
    let site = Int64.sub next (Int64.of_int len) in
    t.rip <- reg t r;
    t.indirects <- (site, t.rip) :: t.indirects
  | Insn.JmpMem m ->
    let site = Int64.sub next (Int64.of_int len) in
    t.rip <- Memory.read64 t.mem (mem_addr t m);
    t.indirects <- (site, t.rip) :: t.indirects
  | Insn.Jcc (c, rel) -> if eval_cond t c then t.rip <- Int64.add next (Int64.of_int rel)
  | Insn.Call rel ->
    push t next;
    t.rip <- Int64.add next (Int64.of_int rel)
  | Insn.CallReg r ->
    let site = Int64.sub next (Int64.of_int len) in
    push t next;
    t.rip <- reg t r;
    t.indirects <- (site, t.rip) :: t.indirects
  | Insn.CallMem m ->
    let site = Int64.sub next (Int64.of_int len) in
    push t next;
    t.rip <- Memory.read64 t.mem (mem_addr t m);
    t.indirects <- (site, t.rip) :: t.indirects
  | Insn.Ret -> t.rip <- pop t
  | Insn.RetImm n ->
    t.rip <- pop t;
    set_rsp t (Int64.add (rsp t) (Int64.of_int n))
  | Insn.Leave ->
    set_rsp t (reg t Reg.RBP);
    set_reg t Reg.RBP (pop t)
  | Insn.Syscall -> do_syscall t
  | Insn.Int3 -> raise (Halt (Fault "int3"))
  | Insn.Hlt -> raise (Halt (Fault "hlt reached"))

let step t =
  if t.tracing then t.trace <- t.rip :: t.trace;
  let insn, len = fetch t in
  exec t insn len;
  t.steps <- t.steps + 1

(* Fault-injection hook: when armed, [run] trips a synthetic memory
   fault after the returned number of steps, simulating a latent
   corruption mid-execution.  The emulator sits below Gp_core, so the
   harness installs the fuse here directly (see Gp_harness.Faultsim).
   Consulted once per [run]; [None] (the default) never fires. *)
let chaos_fuse : (unit -> int option) ref = ref (fun () -> None)

(* Keyed variant for callers that can name the run (payload validation
   keys on the chain): the decision becomes a pure function of the key,
   so an injection schedule is order-independent — identical however
   many requests validate at once on other domains — where the streamed
   [chaos_fuse] depends on how many runs happened before this one. *)
let chaos_fuse_keyed : (int -> int option) ref = ref (fun _ -> None)

let run ?(fuel = 5_000_000) ?fuse_key t =
  let fuse =
    match fuse_key with
    | Some key -> !chaos_fuse_keyed key
    | None -> !chaos_fuse ()
  in
  try
    let k = ref 0 in
    while !k < fuel do
      (match fuse with
       | Some n when !k = n -> raise (Memory.Fault "injected fault")
       | _ -> ());
      step t;
      incr k
    done;
    Timeout
  with
  | Halt o -> o
  | Memory.Fault m -> Fault m

(* Convenience: load an image and run it to completion. *)
let run_image ?fuel ?tracing image =
  let t = create ?tracing image in
  let outcome = run ?fuel t in
  (outcome, t)
