(* Symbolic execution of instruction runs -> gadget summaries.

   Starting from a fully symbolic state at an arbitrary code address, we
   execute until a controllable transfer (ret / indirect jump / indirect
   call / syscall).  Conditional jumps FORK the state, each branch
   assuming the condition (or its negation) as a pre-condition — this is
   the paper's distinctive handling of conditional-jump gadgets (§IV-B,
   Fig. 4).  Direct jumps and direct calls are followed and MERGED into
   the same gadget (§IV-B "Unconditional Direct Jump"). *)

open Gp_x86
open Gp_smt

type jump =
  | Jret of Term.t           (* ret: target is the popped stack value *)
  | Jind of Term.t           (* jmp/call through register or memory *)
  | Jfall of int64           (* gadget ends at a syscall; fall-through *)

type summary = {
  s_addr : int64;
  s_insns : Insn.t list;               (* in execution order *)
  s_state : State.t;                   (* final symbolic state *)
  s_jump : jump;
  s_has_cond : bool;                   (* took at least one Jcc assumption *)
  s_has_merge : bool;                  (* crossed at least one direct jmp/call *)
  s_syscall : bool;                    (* ends at a syscall *)
}

(* ----- condition -> formulas ----- *)

(* Conjunction of formulas equivalent to [cond] holding, or None when the
   flag source can't express it (the fork is then abandoned). *)
let cond_formulas (fl : State.flag_src) (c : Insn.cond) : Formula.t list option =
  let open Formula in
  let open Term in
  match fl with
  | State.Fsub (a, b) -> (
    match c with
    | Insn.E -> Some [ Eq (a, b) ]
    | Insn.NE -> Some [ Ne (a, b) ]
    | Insn.L -> Some [ Slt (a, b) ]
    | Insn.GE -> Some [ Sle (b, a) ]
    | Insn.LE -> Some [ Sle (a, b) ]
    | Insn.G -> Some [ Slt (b, a) ]
    | Insn.B -> Some [ Ult (a, b) ]
    | Insn.AE -> Some [ Ule (b, a) ]
    | Insn.BE -> Some [ Ule (a, b) ]
    | Insn.A -> Some [ Ult (b, a) ]
    | Insn.S -> Some [ Slt (sub a b, const 0L) ]
    | Insn.NS -> Some [ Sle (const 0L, sub a b) ]
    | Insn.O | Insn.NO | Insn.P | Insn.NP -> None)
  | State.Flogic r -> (
    (* CF = OF = 0 after logic ops *)
    match c with
    | Insn.E -> Some [ Eq (r, const 0L) ]
    | Insn.NE -> Some [ Ne (r, const 0L) ]
    | Insn.S | Insn.L -> Some [ Slt (r, const 0L) ]
    | Insn.NS | Insn.GE -> Some [ Sle (const 0L, r) ]
    | Insn.LE -> Some [ Sle (r, const 0L) ]
    | Insn.G -> Some [ Slt (const 0L, r) ]
    | Insn.B | Insn.O -> Some [ False ]
    | Insn.AE | Insn.NO -> Some []
    | Insn.BE -> Some [ Eq (r, const 0L) ]
    | Insn.A -> Some [ Ne (r, const 0L) ]
    | Insn.P | Insn.NP -> None)
  | State.Farith r -> (
    (* only ZF/SF are trustworthy without carry/overflow modeling *)
    match c with
    | Insn.E -> Some [ Eq (r, const 0L) ]
    | Insn.NE -> Some [ Ne (r, const 0L) ]
    | Insn.S -> Some [ Slt (r, const 0L) ]
    | Insn.NS -> Some [ Sle (const 0L, r) ]
    | _ -> None)
  | State.Funknown -> None

let negate_conds fs =
  (* ¬(f1 ∧ ... ∧ fn) is a disjunction; we only keep the single-formula
     case exact and otherwise refuse (returns None). *)
  match fs with
  | [] -> Some [ Formula.False ]
  | [ f ] -> Some [ Formula.negate f ]
  | _ -> None

(* ----- one instruction ----- *)

type step_result =
  | Continue of State.t
  | End of State.t * jump * bool        (* final state, jump, is_syscall *)
  | Direct of State.t * int             (* relative displacement to next *)
  | Cond of Insn.cond * int             (* fork: condition, displacement *)
  | SysStep of State.t                  (* syscall: gadget end AND continuation *)
  | Abort

let read_operand st (op : Insn.operand) : State.t * Term.t =
  match op with
  | Insn.Reg r -> (st, State.reg st r)
  | Insn.Imm i -> (st, Term.const i)
  | Insn.Mem m ->
    let addr =
      Term.add (State.reg st m.Insn.base) (Term.const (Int64.of_int m.Insn.disp))
    in
    State.read_mem st addr

let write_operand st (op : Insn.operand) v : State.t =
  match op with
  | Insn.Reg r -> State.set_reg st r v
  | Insn.Mem m ->
    let addr =
      Term.add (State.reg st m.Insn.base) (Term.const (Int64.of_int m.Insn.disp))
    in
    State.write_mem st addr v
  | Insn.Imm _ -> raise (State.Unsupported "write to immediate")

let alu mk flag st d s =
  let st, a = read_operand st d in
  let st, b = read_operand st s in
  let r = mk a b in
  let st = write_operand st d r in
  { st with State.flags = flag a b r }

let step st (insn : Insn.t) : step_result =
  let open Term in
  let st = { st with State.insns = insn :: st.State.insns } in
  match insn with
  | Insn.Nop -> Continue st
  | Insn.Mov (d, s) ->
    let st, v = read_operand st s in
    Continue (write_operand st d v)
  | Insn.Movabs (r, i) -> Continue (State.set_reg st r (const i))
  | Insn.Lea (r, m) ->
    let addr = add (State.reg st m.Insn.base) (const (Int64.of_int m.Insn.disp)) in
    Continue (State.set_reg st r addr)
  | Insn.Push r ->
    let v = State.reg st r in
    let rsp' = sub (State.reg st Reg.RSP) (const 8L) in
    let st = State.set_reg st Reg.RSP rsp' in
    Continue (State.write_mem st rsp' v)
  | Insn.PushImm i ->
    let rsp' = sub (State.reg st Reg.RSP) (const 8L) in
    let st = State.set_reg st Reg.RSP rsp' in
    Continue (State.write_mem st rsp' (const (Int64.of_int i)))
  | Insn.Pop r ->
    let rsp = State.reg st Reg.RSP in
    let st, v = State.read_mem st rsp in
    let st = State.set_reg st Reg.RSP (add rsp (const 8L)) in
    Continue (State.set_reg st r v)
  | Insn.Add (d, s) -> Continue (alu add (fun _ _ r -> State.Farith r) st d s)
  | Insn.Sub (d, s) -> Continue (alu sub (fun a b _ -> State.Fsub (a, b)) st d s)
  | Insn.And_ (d, s) -> Continue (alu logand (fun _ _ r -> State.Flogic r) st d s)
  | Insn.Or_ (d, s) -> Continue (alu logor (fun _ _ r -> State.Flogic r) st d s)
  | Insn.Xor (d, s) -> Continue (alu logxor (fun _ _ r -> State.Flogic r) st d s)
  | Insn.Cmp (d, s) ->
    let st, a = read_operand st d in
    let st, b = read_operand st s in
    Continue { st with State.flags = State.Fsub (a, b) }
  | Insn.Test (a, b) ->
    let va = State.reg st a and vb = State.reg st b in
    Continue { st with State.flags = State.Flogic (logand va vb) }
  | Insn.Imul (d, s) ->
    let r = mul (State.reg st d) (State.reg st s) in
    Continue { (State.set_reg st d r) with State.flags = State.Farith r }
  | Insn.Shl (r, n) ->
    let v = shl (State.reg st r) (const (Int64.of_int n)) in
    Continue { (State.set_reg st r v) with State.flags = State.Flogic v }
  | Insn.Shr (r, n) ->
    let v = shr (State.reg st r) (const (Int64.of_int n)) in
    Continue { (State.set_reg st r v) with State.flags = State.Flogic v }
  | Insn.Sar (r, n) ->
    let v = sar (State.reg st r) (const (Int64.of_int n)) in
    Continue { (State.set_reg st r v) with State.flags = State.Flogic v }
  | Insn.Inc r ->
    let v = add (State.reg st r) (const 1L) in
    Continue { (State.set_reg st r v) with State.flags = State.Farith v }
  | Insn.Dec r ->
    let v = sub (State.reg st r) (const 1L) in
    Continue { (State.set_reg st r v) with State.flags = State.Farith v }
  | Insn.Neg r ->
    let a = State.reg st r in
    let v = neg a in
    Continue { (State.set_reg st r v) with State.flags = State.Fsub (const 0L, a) }
  | Insn.Not_ r -> Continue (State.set_reg st r (lognot (State.reg st r)))
  | Insn.Xchg (a, b) ->
    let va = State.reg st a and vb = State.reg st b in
    Continue (State.set_reg (State.set_reg st a vb) b va)
  | Insn.Jmp rel -> Direct (st, rel)
  | Insn.JmpReg r -> End (st, Jind (State.reg st r), false)
  | Insn.JmpMem m ->
    let addr = add (State.reg st m.Insn.base) (const (Int64.of_int m.Insn.disp)) in
    let st, v = State.read_mem st addr in
    End (st, Jind v, false)
  | Insn.Jcc (c, rel) -> Cond (c, rel)
  | Insn.Call rel ->
    (* follow the call like a direct jump; the pushed return address is a
       symbolic-state stack write whose value is unknown statically only
       in position — we leave the slot holding an opaque marker *)
    let rsp' = sub (State.reg st Reg.RSP) (const 8L) in
    let st = State.set_reg st Reg.RSP rsp' in
    let st = State.write_mem st rsp' (Term.var "retaddr") in
    Direct (st, rel)
  | Insn.CallReg r ->
    let target = State.reg st r in
    let rsp' = sub (State.reg st Reg.RSP) (const 8L) in
    let st = State.set_reg st Reg.RSP rsp' in
    let st = State.write_mem st rsp' (Term.var "retaddr") in
    End (st, Jind target, false)
  | Insn.CallMem m ->
    let addr = add (State.reg st m.Insn.base) (const (Int64.of_int m.Insn.disp)) in
    let st, target = State.read_mem st addr in
    let rsp' = sub (State.reg st Reg.RSP) (const 8L) in
    let st = State.set_reg st Reg.RSP rsp' in
    let st = State.write_mem st rsp' (Term.var "retaddr") in
    End (st, Jind target, false)
  | Insn.Ret ->
    let rsp = State.reg st Reg.RSP in
    let st, v = State.read_mem st rsp in
    let st = State.set_reg st Reg.RSP (add rsp (const 8L)) in
    End (st, Jret v, false)
  | Insn.RetImm n ->
    let rsp = State.reg st Reg.RSP in
    let st, v = State.read_mem st rsp in
    let st = State.set_reg st Reg.RSP (add rsp (const (Int64.of_int (8 + n)))) in
    End (st, Jret v, false)
  | Insn.Leave ->
    let rbp = State.reg st Reg.RBP in
    let st = State.set_reg st Reg.RSP rbp in
    let st, v = State.read_mem st rbp in
    let st = State.set_reg st Reg.RBP v in
    Continue (State.set_reg st Reg.RSP (add rbp (const 8L)))
  | Insn.Syscall ->
    let regstate =
      List.map (fun r -> (r, State.reg st r)) [ Reg.RAX; Reg.RDI; Reg.RSI; Reg.RDX ]
    in
    let st = { st with State.syscalls = regstate :: st.State.syscalls } in
    SysStep st
  | Insn.Int3 | Insn.Hlt -> Abort

(* ----- driver ----- *)

type config = {
  max_insns : int;       (* per path *)
  max_forks : int;       (* Jcc assumptions per path *)
  max_merges : int;      (* direct jmp/call follow-throughs per path *)
}

let default_config = { max_insns = 16; max_forks = 2; max_merges = 2 }

(* Summarize all paths from [addr], also reporting whether the executor
   refused a path ([State.Unsupported]).  Partial results gathered before
   the refusal are kept — the refusal is a per-start quarantine signal,
   not a loss of the whole harvest. *)
let summarize_r ?(config = default_config) ?decode (image : Gp_util.Image.t)
    (addr : int64) : summary list * string option =
  let decode =
    match decode with
    | Some f -> f
    | None -> fun pos -> Decode.decode image.Gp_util.Image.code pos
  in
  let results = ref [] in
  let base = image.Gp_util.Image.code_base in
  let rec go st cur ninsns nforks nmerges has_cond has_merge =
    if ninsns <= config.max_insns && Gp_util.Image.in_code image cur then begin
      let pos = Int64.to_int (Int64.sub cur base) in
      match decode pos with
      | None -> ()
      | Some (insn, len) -> (
        let next = Int64.add cur (Int64.of_int len) in
        match step st insn with
        | Abort -> ()
        | Continue st -> go st next (ninsns + 1) nforks nmerges has_cond has_merge
        | End (st, j, is_syscall) ->
          let j = if is_syscall then Jfall next else j in
          results :=
            { s_addr = addr;
              s_insns = List.rev st.State.insns;
              s_state = st;
              s_jump = j;
              s_has_cond = has_cond;
              s_has_merge = has_merge;
              s_syscall = is_syscall }
            :: !results
        | SysStep st ->
          (* the run ending here is a syscall gadget... *)
          results :=
            { s_addr = addr;
              s_insns = List.rev st.State.insns;
              s_state = st;
              s_jump = Jfall next;
              s_has_cond = has_cond;
              s_has_merge = has_merge;
              s_syscall = true }
            :: !results;
          (* ...and execution also continues past it (the syscall's return
             value is an uncontrollable fresh unknown) *)
          let ret = Term.var (Printf.sprintf "sysret%d" st.State.fresh) in
          let st' =
            State.set_reg
              { st with State.fresh = st.State.fresh + 1 }
              Reg.RAX ret
          in
          go st' next (ninsns + 1) nforks nmerges has_cond has_merge
        | Direct (st, rel) ->
          if nmerges < config.max_merges then
            go st
              (Int64.add next (Int64.of_int rel))
              (ninsns + 1) nforks (nmerges + 1) has_cond true
        | Cond (c, rel) ->
          if nforks < config.max_forks then begin
            (match cond_formulas st.State.flags c with
             | Some fs ->
               let st_t =
                 List.fold_left State.assume
                   { st with State.insns = Insn.Jcc (c, rel) :: st.State.insns }
                   fs
               in
               if not (List.mem Formula.False st_t.State.path) then
                 go st_t
                   (Int64.add next (Int64.of_int rel))
                   (ninsns + 1) (nforks + 1) (nmerges + 1) true true
             | None -> ());
            match
              Option.bind (cond_formulas st.State.flags c) negate_conds
            with
            | Some fs ->
              let st_f =
                List.fold_left State.assume
                  { st with State.insns = Insn.Jcc (c, rel) :: st.State.insns }
                  fs
              in
              if not (List.mem Formula.False st_f.State.path) then
                go st_f next (ninsns + 1) (nforks + 1) nmerges true has_merge
            | None -> ()
          end)
    end
  in
  let refused =
    try
      go (State.initial ()) addr 0 0 0 false false;
      None
    with State.Unsupported why -> Some why
  in
  (!results, refused)

let summarize ?config image addr = fst (summarize_r ?config image addr)

(* ----- summary (de)serialization (DESIGN.md §11) -----

   Hand-rolled on Store.Bin/Term.Ser rather than Marshal (whose bytes
   depend on sharing, which hash-consing makes history-dependent) or an
   Encode/Decode byte round-trip (which need not be the identity on the
   AST — e.g. [RetImm 0] vs [Ret]).  Summaries are stored BASE-RELATIVE:
   [s_addr] is rewritten to 0 and the only other absolute field, a
   [Jfall] target, to its distance from [s_addr]; every term is already
   position-independent (the executor's variable naming is a function of
   the byte string alone), so {!rebase} can relocate a stored summary to
   any address.  [st.insns] is always [List.rev s_insns] at a terminal
   state, so it is not written twice. *)

module Bin = Gp_util.Store.Bin

let put_reg b r = Bin.u8 b (Reg.number r)

let get_reg s pos =
  match Reg.of_number (Bin.gu8 s pos) with
  | r -> r
  | exception Invalid_argument _ -> raise Bin.Truncated

let put_mem b (m : Insn.mem) =
  put_reg b m.Insn.base;
  Bin.int_ b m.Insn.disp

let get_mem s pos =
  let base = get_reg s pos in
  let disp = Bin.gint s pos in
  { Insn.base; disp }

let put_operand b = function
  | Insn.Reg r -> Bin.u8 b 0; put_reg b r
  | Insn.Imm i -> Bin.u8 b 1; Bin.i64 b i
  | Insn.Mem m -> Bin.u8 b 2; put_mem b m

let get_operand s pos =
  match Bin.gu8 s pos with
  | 0 -> Insn.Reg (get_reg s pos)
  | 1 -> Insn.Imm (Bin.gi64 s pos)
  | 2 -> Insn.Mem (get_mem s pos)
  | _ -> raise Bin.Truncated

let put_insn b (insn : Insn.t) =
  let t n = Bin.u8 b n in
  let opop n d s = t n; put_operand b d; put_operand b s in
  let r1 n r = t n; put_reg b r in
  let rr n a b' = t n; put_reg b a; put_reg b b' in
  let rn n r k = t n; put_reg b r; Bin.int_ b k in
  match insn with
  | Insn.Mov (d, s) -> opop 0 d s
  | Insn.Movabs (r, i) -> t 1; put_reg b r; Bin.i64 b i
  | Insn.Lea (r, m) -> t 2; put_reg b r; put_mem b m
  | Insn.Push r -> r1 3 r
  | Insn.PushImm i -> t 4; Bin.int_ b i
  | Insn.Pop r -> r1 5 r
  | Insn.Add (d, s) -> opop 6 d s
  | Insn.Sub (d, s) -> opop 7 d s
  | Insn.And_ (d, s) -> opop 8 d s
  | Insn.Or_ (d, s) -> opop 9 d s
  | Insn.Xor (d, s) -> opop 10 d s
  | Insn.Cmp (d, s) -> opop 11 d s
  | Insn.Test (a, b') -> rr 12 a b'
  | Insn.Imul (a, b') -> rr 13 a b'
  | Insn.Shl (r, n) -> rn 14 r n
  | Insn.Shr (r, n) -> rn 15 r n
  | Insn.Sar (r, n) -> rn 16 r n
  | Insn.Inc r -> r1 17 r
  | Insn.Dec r -> r1 18 r
  | Insn.Neg r -> r1 19 r
  | Insn.Not_ r -> r1 20 r
  | Insn.Xchg (a, b') -> rr 21 a b'
  | Insn.Jmp rel -> t 22; Bin.int_ b rel
  | Insn.JmpReg r -> r1 23 r
  | Insn.JmpMem m -> t 24; put_mem b m
  | Insn.Jcc (c, rel) -> t 25; Bin.u8 b (Insn.cond_number c); Bin.int_ b rel
  | Insn.Call rel -> t 26; Bin.int_ b rel
  | Insn.CallReg r -> r1 27 r
  | Insn.CallMem m -> t 28; put_mem b m
  | Insn.Ret -> t 29
  | Insn.RetImm n -> t 30; Bin.int_ b n
  | Insn.Leave -> t 31
  | Insn.Syscall -> t 32
  | Insn.Nop -> t 33
  | Insn.Int3 -> t 34
  | Insn.Hlt -> t 35

let get_insn s pos =
  let rr mk = let a = get_reg s pos in let b = get_reg s pos in mk a b in
  let opop mk = let d = get_operand s pos in let s' = get_operand s pos in mk d s' in
  let rn mk = let r = get_reg s pos in let n = Bin.gint s pos in mk r n in
  match Bin.gu8 s pos with
  | 0 -> opop (fun d s -> Insn.Mov (d, s))
  | 1 -> let r = get_reg s pos in Insn.Movabs (r, Bin.gi64 s pos)
  | 2 -> let r = get_reg s pos in Insn.Lea (r, get_mem s pos)
  | 3 -> Insn.Push (get_reg s pos)
  | 4 -> Insn.PushImm (Bin.gint s pos)
  | 5 -> Insn.Pop (get_reg s pos)
  | 6 -> opop (fun d s -> Insn.Add (d, s))
  | 7 -> opop (fun d s -> Insn.Sub (d, s))
  | 8 -> opop (fun d s -> Insn.And_ (d, s))
  | 9 -> opop (fun d s -> Insn.Or_ (d, s))
  | 10 -> opop (fun d s -> Insn.Xor (d, s))
  | 11 -> opop (fun d s -> Insn.Cmp (d, s))
  | 12 -> rr (fun a b -> Insn.Test (a, b))
  | 13 -> rr (fun a b -> Insn.Imul (a, b))
  | 14 -> rn (fun r n -> Insn.Shl (r, n))
  | 15 -> rn (fun r n -> Insn.Shr (r, n))
  | 16 -> rn (fun r n -> Insn.Sar (r, n))
  | 17 -> Insn.Inc (get_reg s pos)
  | 18 -> Insn.Dec (get_reg s pos)
  | 19 -> Insn.Neg (get_reg s pos)
  | 20 -> Insn.Not_ (get_reg s pos)
  | 21 -> rr (fun a b -> Insn.Xchg (a, b))
  | 22 -> Insn.Jmp (Bin.gint s pos)
  | 23 -> Insn.JmpReg (get_reg s pos)
  | 24 -> Insn.JmpMem (get_mem s pos)
  | 25 ->
    let c = Bin.gu8 s pos in
    if c > 15 then raise Bin.Truncated;
    Insn.Jcc (Insn.cond_of_number c, Bin.gint s pos)
  | 26 -> Insn.Call (Bin.gint s pos)
  | 27 -> Insn.CallReg (get_reg s pos)
  | 28 -> Insn.CallMem (get_mem s pos)
  | 29 -> Insn.Ret
  | 30 -> Insn.RetImm (Bin.gint s pos)
  | 31 -> Insn.Leave
  | 32 -> Insn.Syscall
  | 33 -> Insn.Nop
  | 34 -> Insn.Int3
  | 35 -> Insn.Hlt
  | _ -> raise Bin.Truncated

let put_listf b put xs =
  Bin.int_ b (List.length xs);
  List.iter (put b) xs

let get_listf s pos get =
  let n = Bin.gint s pos in
  if n < 0 then raise Bin.Truncated;
  List.init n (fun _ -> get s pos)

let put_flags w b = function
  | State.Fsub (x, y) -> Bin.u8 b 0; Term.Ser.put w b x; Term.Ser.put w b y
  | State.Flogic x -> Bin.u8 b 1; Term.Ser.put w b x
  | State.Farith x -> Bin.u8 b 2; Term.Ser.put w b x
  | State.Funknown -> Bin.u8 b 3

let get_flags r s pos =
  match Bin.gu8 s pos with
  | 0 ->
    let x = Term.Ser.get r s pos in
    let y = Term.Ser.get r s pos in
    State.Fsub (x, y)
  | 1 -> State.Flogic (Term.Ser.get r s pos)
  | 2 -> State.Farith (Term.Ser.get r s pos)
  | 3 -> State.Funknown
  | _ -> raise Bin.Truncated

let put_state w b (st : State.t) =
  let term t = Term.Ser.put w b t in
  let off_term (o, t) = Bin.int_ b o; term t in
  Array.iter term st.State.regs;
  put_listf b (fun _ -> off_term) (State.Imap.bindings st.State.stack);
  put_listf b (fun _ -> off_term) st.State.stack_writes;
  Formula.put_list w b st.State.path;
  put_flags w b st.State.flags;
  Bin.int_ b st.State.fresh;
  put_listf b
    (fun _ regs ->
      put_listf b (fun _ (rg, t) -> put_reg b rg; term t) regs)
    st.State.syscalls;
  put_listf b (fun _ o -> Bin.int_ b o) st.State.consumed;
  put_listf b (fun _ (a, v) -> term a; term v) st.State.ptr_writes;
  put_listf b
    (fun _ (name, a, reliable) ->
      Bin.str b name; term a; Bin.bool_ b reliable)
    st.State.mem_reads;
  Bin.bool_ b st.State.alias_hazard

let get_state r s pos ~insns : State.t =
  let term () = Term.Ser.get r s pos in
  let off_term () =
    let o = Bin.gint s pos in
    (o, term ())
  in
  let regs = Array.init 16 (fun _ -> term ()) in
  let stack =
    List.fold_left
      (fun m (o, t) -> State.Imap.add o t m)
      State.Imap.empty
      (get_listf s pos (fun _ _ -> off_term ()))
  in
  let stack_writes = get_listf s pos (fun _ _ -> off_term ()) in
  let path = Formula.get_list r s pos in
  let flags = get_flags r s pos in
  let fresh = Bin.gint s pos in
  let syscalls =
    get_listf s pos (fun _ _ ->
        get_listf s pos (fun _ _ ->
            let rg = get_reg s pos in
            (rg, term ())))
  in
  let consumed = get_listf s pos (fun s pos -> Bin.gint s pos) in
  let ptr_writes =
    get_listf s pos (fun _ _ ->
        let a = term () in
        let v = term () in
        (a, v))
  in
  let mem_reads =
    get_listf s pos (fun _ _ ->
        let name = Bin.gstr s pos in
        let a = term () in
        let reliable = Bin.gbool s pos in
        (name, a, reliable))
  in
  let alias_hazard = Bin.gbool s pos in
  { State.regs; stack; stack_writes; path; flags; fresh; insns; syscalls;
    consumed; ptr_writes; mem_reads; alias_hazard }

let put_summary w b (s : summary) =
  put_listf b put_insn s.s_insns;
  put_state w b s.s_state;
  (match s.s_jump with
  | Jret t -> Bin.u8 b 0; Term.Ser.put w b t
  | Jind t -> Bin.u8 b 1; Term.Ser.put w b t
  | Jfall a -> Bin.u8 b 2; Bin.i64 b (Int64.sub a s.s_addr));
  Bin.bool_ b s.s_has_cond;
  Bin.bool_ b s.s_has_merge;
  Bin.bool_ b s.s_syscall

let get_summary r s pos : summary =
  let s_insns = get_listf s pos get_insn in
  let s_state = get_state r s pos ~insns:(List.rev s_insns) in
  let s_jump =
    match Bin.gu8 s pos with
    | 0 -> Jret (Term.Ser.get r s pos)
    | 1 -> Jind (Term.Ser.get r s pos)
    | 2 -> Jfall (Bin.gi64 s pos)
    | _ -> raise Bin.Truncated
  in
  let s_has_cond = Bin.gbool s pos in
  let s_has_merge = Bin.gbool s pos in
  let s_syscall = Bin.gbool s pos in
  { s_addr = 0L; s_insns; s_state; s_jump; s_has_cond; s_has_merge; s_syscall }

let write_summaries ((ss : summary list), (refused : string option)) : string =
  let w = Term.Ser.writer () in
  let b = Buffer.create 512 in
  put_listf b (fun b' s -> put_summary w b' s) ss;
  (match refused with
  | None -> Bin.u8 b 0
  | Some why -> Bin.u8 b 1; Bin.str b why);
  Buffer.contents b

let read_summaries (s : string) : summary list * string option =
  let r = Term.Ser.reader () in
  let pos = ref 0 in
  let ss = get_listf s pos (fun s pos -> ignore pos; get_summary r s pos) in
  let refused =
    match Bin.gu8 s pos with
    | 0 -> None
    | 1 -> Some (Bin.gstr s pos)
    | _ -> raise Bin.Truncated
  in
  if !pos <> String.length s then raise Bin.Truncated;
  (ss, refused)

(* Relocate a summary: addresses are the ONLY position-dependent fields
   (deterministic variable naming makes every term a function of the
   byte string alone), so moving a summary is two field updates. *)
let rebase ~addr (s : summary) : summary =
  let delta = Int64.sub addr s.s_addr in
  if delta = 0L then s
  else
    { s with
      s_addr = addr;
      s_jump =
        (match s.s_jump with
        | Jfall a -> Jfall (Int64.add a delta)
        | (Jret _ | Jind _) as j -> j) }
