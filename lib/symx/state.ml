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
  stack_writes : (int * Term.t) list;    (* newest first *)
  path : Formula.t list;                 (* accumulated pre-conditions *)
  flags : flag_src;
  fresh : int;                           (* counter for mem reads *)
  syscalls : (Reg.t * Term.t) list list; (* register state at each syscall *)
  consumed : int list;                   (* stack offsets read before write *)
  ptr_writes : (Term.t * Term.t) list;   (* non-stack writes (addr, value), newest first *)
  mem_reads : (string * Term.t * bool) list;
    (* mem var name, address term, RELIABLE flag: an unreliable read may
       alias an earlier write of this gadget, so its value cannot be
       treated as attacker-controlled *)
  alias_hazard : bool;                   (* some read was unreliable *)
}

let reg_var r = Term.var (Reg.name r ^ "_0")

let slot_name off =
  if off >= 0 then Printf.sprintf "stk_%d" off else Printf.sprintf "stk_m%d" (-off)

let mem_name n = Printf.sprintf "mem%d" n

(* The variables of the slots at offsets [slot_lo, slot_hi] and of the
   first [mem_count] memory reads, built once: an access looks its
   variable up instead of formatting the name.  Offsets and counts
   beyond the tables format it on each access. *)
let slot_lo = -1024
let slot_hi = 1024
let mem_count = 64

let slot_vars = Array.init (slot_hi - slot_lo + 1) (fun i -> Term.var (slot_name (i + slot_lo)))
let mem_names = Array.init mem_count mem_name
let mem_vars = Array.map Term.var mem_names

let slot_var off =
  if off >= slot_lo && off <= slot_hi then slot_vars.(off - slot_lo)
  else Term.var (slot_name off)

(* Offset encoded in a slot variable name, if it is one. *)
let slot_of_var name =
  if String.length name > 4
     && name.[0] = 's' && name.[1] = 't' && name.[2] = 'k' && name.[3] = '_'
  then begin
    let rest = String.sub name 4 (String.length name - 4) in
    if String.length rest > 1 && rest.[0] = 'm' then
      int_of_string_opt (String.sub rest 1 (String.length rest - 1))
      |> Option.map (fun n -> -n)
    else int_of_string_opt rest
  end
  else None

(* A path owns its register file: [set_reg] writes the array in place,
   so two paths never share one.  [initial] hands each run its own copy
   of the shared entry state, and [fork] is the only other copy, taken
   where two paths diverge.  Every other field is immutable and shared
   freely.  A summary keeps its path's array as its final registers, so
   once emitted no one may write it (building the 16 entry variables is
   measurable at harvest scale; copying them is not) *)
let initial_state =
  { regs = Array.init 16 (fun i -> reg_var (Reg.of_number i));
    stack = Imap.empty;
    stack_writes = [];
    path = [];
    flags = Funknown;
    fresh = 0;
    syscalls = [];
    consumed = [];
    ptr_writes = [];
    mem_reads = [];
    alias_hazard = false }

let fork t = { t with regs = Array.copy t.regs }

let initial () = fork initial_state

let entry_reg r = initial_state.regs.(Reg.number r)

let reg t r = t.regs.(Reg.number r)

let set_reg t r v = t.regs.(Reg.number r) <- Term.simplify v

let assume t f = { t with path = Formula.simplify f :: t.path }

(* Classify an address term: a stack slot offset, or an arbitrary
   pointer.  By the canonical shape (Term.of_linear), [rsp_0 + c] is
   [Var "rsp_0"] or [Add (Var "rsp_0", Const c)]. *)
type addr_class = Stack of int | Pointer of Term.t

let classify_addr addr =
  match Term.simplify addr with
  | Term.Var "rsp_0" -> Stack 0
  | Term.Add (Term.Var "rsp_0", Term.Const c, _) -> Stack (Int64.to_int c)
  | a -> Pointer a

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
        match Term.const_distance a a' with
        | Some 0L -> `Hit v'
        | Some c when Int64.abs c >= 8L -> forward older
        | _ -> `Hazard)
    in
    (* a fresh variable, with [assume t (Readable a)] folded into the
       same record copy *)
    let fresh reliable =
      let n = t.fresh in
      let name = if n < mem_count then mem_names.(n) else mem_name n in
      let v = if n < mem_count then mem_vars.(n) else Term.var name in
      let t =
        { t with
          fresh = n + 1;
          mem_reads = (name, a, reliable) :: t.mem_reads;
          alias_hazard = t.alias_hazard || not reliable;
          path = Formula.simplify (Formula.Readable a) :: t.path }
      in
      (t, v)
    in
    match forward t.ptr_writes with
    | `Hit v -> (t, v)
    | `Hazard -> fresh false
    | `Fresh -> fresh true)

let write_mem t addr value =
  let value = Term.simplify value in
  match classify_addr addr with
  | Stack off ->
    { t with
      stack = Imap.add off value t.stack;
      stack_writes = (off, value) :: t.stack_writes }
  | Pointer a ->
    (* non-stack write: requires a writable pointer (the [assume] is
       folded into the one record copy); tracked so the planner can use
       this gadget for write-what-where *)
    { t with
      ptr_writes = (a, value) :: t.ptr_writes;
      path = Formula.simplify (Formula.Writable a) :: t.path }

(* The set of stack offsets whose initial content was READ (i.e. the
   payload cells this gadget consumes). *)
let consumed_slots t = List.sort_uniq compare t.consumed
