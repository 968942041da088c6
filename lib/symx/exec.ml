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
  | Insn.Reg r ->
    State.set_reg st r v;
    st
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
  match insn with
  | Insn.Nop -> Continue st
  | Insn.Mov (d, s) ->
    let st, v = read_operand st s in
    Continue (write_operand st d v)
  | Insn.Movabs (r, i) ->
    State.set_reg st r (const i);
    Continue st
  | Insn.Lea (r, m) ->
    let addr = add (State.reg st m.Insn.base) (const (Int64.of_int m.Insn.disp)) in
    State.set_reg st r addr;
    Continue st
  | Insn.Push r ->
    let v = State.reg st r in
    let rsp' = sub (State.reg st Reg.RSP) (const 8L) in
    State.set_reg st Reg.RSP rsp';
    Continue (State.write_mem st rsp' v)
  | Insn.PushImm i ->
    let rsp' = sub (State.reg st Reg.RSP) (const 8L) in
    State.set_reg st Reg.RSP rsp';
    Continue (State.write_mem st rsp' (const (Int64.of_int i)))
  | Insn.Pop r ->
    let rsp = State.reg st Reg.RSP in
    let st, v = State.read_mem st rsp in
    State.set_reg st Reg.RSP (add rsp (const 8L));
    State.set_reg st r v;
    Continue st
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
    State.set_reg st d r;
    Continue { st with State.flags = State.Farith r }
  | Insn.Shl (r, n) ->
    let v = shl (State.reg st r) (const (Int64.of_int n)) in
    State.set_reg st r v;
    Continue { st with State.flags = State.Flogic v }
  | Insn.Shr (r, n) ->
    let v = shr (State.reg st r) (const (Int64.of_int n)) in
    State.set_reg st r v;
    Continue { st with State.flags = State.Flogic v }
  | Insn.Sar (r, n) ->
    let v = sar (State.reg st r) (const (Int64.of_int n)) in
    State.set_reg st r v;
    Continue { st with State.flags = State.Flogic v }
  | Insn.Inc r ->
    let v = add (State.reg st r) (const 1L) in
    State.set_reg st r v;
    Continue { st with State.flags = State.Farith v }
  | Insn.Dec r ->
    let v = sub (State.reg st r) (const 1L) in
    State.set_reg st r v;
    Continue { st with State.flags = State.Farith v }
  | Insn.Neg r ->
    let a = State.reg st r in
    let v = neg a in
    State.set_reg st r v;
    Continue { st with State.flags = State.Fsub (const 0L, a) }
  | Insn.Not_ r ->
    State.set_reg st r (lognot (State.reg st r));
    Continue st
  | Insn.Xchg (a, b) ->
    let va = State.reg st a and vb = State.reg st b in
    State.set_reg st a vb;
    State.set_reg st b va;
    Continue st
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
    State.set_reg st Reg.RSP rsp';
    let st = State.write_mem st rsp' (Term.var "retaddr") in
    Direct (st, rel)
  | Insn.CallReg r ->
    let target = State.reg st r in
    let rsp' = sub (State.reg st Reg.RSP) (const 8L) in
    State.set_reg st Reg.RSP rsp';
    let st = State.write_mem st rsp' (Term.var "retaddr") in
    End (st, Jind target, false)
  | Insn.CallMem m ->
    let addr = add (State.reg st m.Insn.base) (const (Int64.of_int m.Insn.disp)) in
    let st, target = State.read_mem st addr in
    let rsp' = sub (State.reg st Reg.RSP) (const 8L) in
    State.set_reg st Reg.RSP rsp';
    let st = State.write_mem st rsp' (Term.var "retaddr") in
    End (st, Jind target, false)
  | Insn.Ret ->
    let rsp = State.reg st Reg.RSP in
    let st, v = State.read_mem st rsp in
    State.set_reg st Reg.RSP (add rsp (const 8L));
    End (st, Jret v, false)
  | Insn.RetImm n ->
    let rsp = State.reg st Reg.RSP in
    let st, v = State.read_mem st rsp in
    State.set_reg st Reg.RSP (add rsp (const (Int64.of_int (8 + n))));
    End (st, Jret v, false)
  | Insn.Leave ->
    let rbp = State.reg st Reg.RBP in
    State.set_reg st Reg.RSP rbp;
    let st, v = State.read_mem st rbp in
    State.set_reg st Reg.RBP v;
    State.set_reg st Reg.RSP (add rbp (const 8L));
    Continue st
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
  let summary st insns j is_syscall has_cond has_merge =
    { s_addr = addr;
      s_insns = List.rev insns;
      s_state = st;
      s_jump = j;
      s_has_cond = has_cond;
      s_has_merge = has_merge;
      s_syscall = is_syscall }
  in
  (* [insns]: the path's executed instructions, newest first *)
  let rec go st insns cur ninsns nforks nmerges has_cond has_merge =
    if ninsns <= config.max_insns && Gp_util.Image.in_code image cur then begin
      let pos = Int64.to_int (Int64.sub cur base) in
      match decode pos with
      | None -> ()
      | Some (insn, len) -> (
        let next = Int64.add cur (Int64.of_int len) in
        let insns = insn :: insns in
        match step st insn with
        | Abort -> ()
        | Continue st -> go st insns next (ninsns + 1) nforks nmerges has_cond has_merge
        | End (st, j, is_syscall) ->
          let j = if is_syscall then Jfall next else j in
          results := summary st insns j is_syscall has_cond has_merge :: !results
        | SysStep st ->
          (* the run ending here is a syscall gadget... *)
          results := summary st insns (Jfall next) true has_cond has_merge :: !results;
          (* ...and execution also continues past it, on its own register
             file (the summary keeps this one), with the syscall's return
             value an uncontrollable fresh unknown *)
          let ret = Term.var (Printf.sprintf "sysret%d" st.State.fresh) in
          let st' = State.fork { st with State.fresh = st.State.fresh + 1 } in
          State.set_reg st' Reg.RAX ret;
          go st' insns next (ninsns + 1) nforks nmerges has_cond has_merge
        | Direct (st, rel) ->
          if nmerges < config.max_merges then
            go st insns
              (Int64.add next (Int64.of_int rel))
              (ninsns + 1) nforks (nmerges + 1) has_cond true
        | Cond (c, rel) ->
          if nforks < config.max_forks then begin
            let conds = cond_formulas st.State.flags c in
            (match conds with
             | Some fs ->
               let st_t = List.fold_left State.assume st fs in
               (* the taken branch runs first, on its own register file:
                  the fall-through below continues from [st]'s *)
               if not (List.mem Formula.False st_t.State.path) then
                 go (State.fork st_t) insns
                   (Int64.add next (Int64.of_int rel))
                   (ninsns + 1) (nforks + 1) (nmerges + 1) true true
             | None -> ());
            match Option.bind conds negate_conds with
            | Some fs ->
              let st_f = List.fold_left State.assume st fs in
              if not (List.mem Formula.False st_f.State.path) then
                go st_f insns next (ninsns + 1) (nforks + 1) nmerges true has_merge
            | None -> ()
          end)
    end
  in
  let refused =
    try
      go (State.initial ()) [] addr 0 0 0 false false;
      None
    with State.Unsupported why -> Some why
  in
  (!results, refused)

let summarize ?config image addr = fst (summarize_r ?config image addr)
