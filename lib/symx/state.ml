(* Symbolic machine state for gadget summarization.

   Naming is deterministic and canonical (paper Table II / §IV-B):
   - "rax_0", "rbx_0", ... are the register values at gadget entry;
   - "stk_<o>" (or "stk_m<o>" for negative o) is the 8-byte stack slot at
     [rsp0 + o] — the attacker-controlled payload area;
   - "mem<n>" are values read through non-stack pointers, which also add
     a Readable POINTER pre-condition.

   Because two gadgets with the same behaviour produce structurally equal
   terms under this scheme, semantic comparison (subsumption) reduces to
   term comparison plus solver entailment. *)

open Gp_x86
open Gp_smt

module Imap = Map.Make (Int)

(* What the last flag-setting instruction was, for Jcc conditions. *)
type flag_src =
  | Fsub of Term.t * Term.t      (* cmp/sub a, b *)
  | Flogic of Term.t             (* and/or/xor/test/shift result *)
  | Farith of Term.t             (* add/inc/dec/neg result: SF/ZF exact, CF/OF approximated *)
  | Funknown

type t = {
  regs : Term.t array;                   (* 16, indexed by Reg.number *)
  stack : Term.t Imap.t;                 (* offset from rsp0 -> value *)
  stack_writes : (int * Term.t) list;    (* in write order, latest last *)
  path : Formula.t list;                 (* accumulated pre-conditions *)
  flags : flag_src;
  fresh : int;                           (* counter for mem reads *)
  insns : Insn.t list;                   (* executed instructions, reversed *)
  syscalls : (Reg.t * Term.t) list list; (* register state at each syscall *)
  consumed : int list;                   (* stack offsets read before write *)
  ptr_writes : (Term.t * Term.t) list;   (* non-stack writes: (addr, value) *)
  mem_reads : (string * Term.t * bool) list;
    (* mem var name, address term, RELIABLE flag: an unreliable read may
       alias an earlier write of this gadget, so its value cannot be
       treated as attacker-controlled *)
  alias_hazard : bool;                   (* some read was unreliable *)
}

let reg_var r = Term.var (Reg.name r ^ "_0")

let slot_var off =
  if off >= 0 then Term.var (Printf.sprintf "stk_%d" off)
  else Term.var (Printf.sprintf "stk_m%d" (-off))

(* Offset encoded in a slot variable name, if it is one. *)
let slot_of_var name =
  if String.length name > 4 && String.sub name 0 4 = "stk_" then begin
    let rest = String.sub name 4 (String.length name - 4) in
    if String.length rest > 1 && rest.[0] = 'm' then
      int_of_string_opt (String.sub rest 1 (String.length rest - 1))
      |> Option.map (fun n -> -n)
    else int_of_string_opt rest
  end
  else None

(* no field is mutable and [set_reg] copies the register array, so one
   shared initial state serves every run (building the 16 entry
   variables is measurable at harvest scale) *)
let initial_state =
  { regs = Array.init 16 (fun i -> reg_var (Reg.of_number i));
    stack = Imap.empty;
    stack_writes = [];
    path = [];
    flags = Funknown;
    fresh = 0;
    insns = [];
    syscalls = [];
    consumed = [];
    ptr_writes = [];
    mem_reads = [];
    alias_hazard = false }

let initial () = initial_state

let reg t r = t.regs.(Reg.number r)

let set_reg t r v =
  let regs = Array.copy t.regs in
  regs.(Reg.number r) <- Term.simplify v;
  { t with regs }

let assume t f = { t with path = Formula.simplify f :: t.path }

(* The current rsp as a concrete offset from rsp0, when it is one. *)
let rsp_offset t =
  match Term.linearize (reg t Reg.RSP) with
  | Some { Term.lin_const = c; lin_terms = [ (v, 1L) ] } when v = "rsp_0" ->
    Some (Int64.to_int c)
  | _ -> None

(* Classify an address term: a stack slot offset, or an arbitrary pointer. *)
type addr_class = Stack of int | Pointer of Term.t

let classify_addr addr =
  match Term.linearize addr with
  | Some { Term.lin_const = c; lin_terms = [ (v, 1L) ] } when v = "rsp_0" ->
    Stack (Int64.to_int c)
  | _ -> Pointer addr

exception Unsupported of string

(* Read 8 bytes at a symbolic address. *)
let read_mem t addr =
  match classify_addr addr with
  | Stack off -> (
    match Imap.find_opt off t.stack with
    | Some v -> (t, v)
    | None ->
      let v = slot_var off in
      ({ t with stack = Imap.add off v t.stack; consumed = off :: t.consumed }, v))
  | Pointer a -> (
    (* store-forwarding over pointer memory: scan earlier pointer writes,
       newest first.  Two accesses at a CONSTANT address distance >= 8 are
       disjoint (all code uses 8-byte cells); a non-constant distance
       means we cannot decide aliasing — the summary is marked hazardous
       and dropped (validation-first: better to lose a gadget than emit a
       wrong chain).  Stack-class and pointer-class accesses are layout-
       disjoint by the separation argument in Layout. *)
    let rec forward = function
      | [] -> `Fresh
      | (a', v') :: older -> (
        match Term.linearize (Term.sub a a') with
        | Some { Term.lin_const = 0L; lin_terms = [] } -> `Hit v'
        | Some { Term.lin_const = c; lin_terms = [] }
          when Int64.abs c >= 8L -> forward older
        | _ -> `Hazard)
    in
    match forward (List.rev t.ptr_writes) with
    | `Hit v -> (t, v)
    | `Hazard ->
      let name = Printf.sprintf "mem%d" t.fresh in
      let v = Term.var name in
      let t =
        { t with
          fresh = t.fresh + 1;
          mem_reads = (name, a, false) :: t.mem_reads;
          alias_hazard = true }
      in
      (assume t (Formula.Readable a), v)
    | `Fresh ->
      let name = Printf.sprintf "mem%d" t.fresh in
      let v = Term.var name in
      let t =
        { t with fresh = t.fresh + 1; mem_reads = (name, a, true) :: t.mem_reads }
      in
      (assume t (Formula.Readable a), v))

let write_mem t addr value =
  let value = Term.simplify value in
  match classify_addr addr with
  | Stack off ->
    { t with
      stack = Imap.add off value t.stack;
      stack_writes = t.stack_writes @ [ (off, value) ] }
  | Pointer a ->
    (* non-stack write: requires a writable pointer; tracked so the
       planner can use this gadget for write-what-where *)
    let t = { t with ptr_writes = t.ptr_writes @ [ (a, value) ] } in
    assume t (Formula.Writable a)

(* The set of stack offsets whose initial content was READ (i.e. the
   payload cells this gadget consumes). *)
let consumed_slots t = List.sort_uniq compare t.consumed
