(** Symbolic machine state for gadget summarization.

    Naming is deterministic and canonical (paper Table II / §IV-B):
    ["rax_0"], ... are register values at gadget entry; ["stk_<o>"] (or
    ["stk_m<o>"] for negative o) is the 8-byte stack slot at [rsp0 + o] —
    the attacker-controlled payload area; ["mem<n>"] are values read
    through non-stack pointers (adding a [Readable] POINTER
    pre-condition).  Two gadgets with the same behaviour therefore
    produce structurally equal terms. *)

open Gp_smt

module Imap : Map.S with type key = int

(** What the last flag-setting instruction was, for Jcc conditions. *)
type flag_src =
  | Fsub of Term.t * Term.t      (** cmp/sub a, b *)
  | Flogic of Term.t             (** and/or/xor/test/shift result: CF=OF=0 *)
  | Farith of Term.t             (** add/inc/dec result: only ZF/SF trusted *)
  | Funknown

type t = {
  regs : Term.t array;                   (** 16, indexed by [Reg.number] *)
  stack : Term.t Imap.t;                 (** offset from rsp0 -> value *)
  stack_writes : (int * Term.t) list;    (** in write order *)
  path : Formula.t list;                 (** accumulated pre-conditions *)
  flags : flag_src;
  fresh : int;                           (** counter for memory reads *)
  insns : Gp_x86.Insn.t list;            (** executed, reversed *)
  syscalls : (Gp_x86.Reg.t * Term.t) list list;
      (** register state at each syscall, newest first *)
  consumed : int list;                   (** stack offsets read before write *)
  ptr_writes : (Term.t * Term.t) list;   (** non-stack writes: (addr, value) *)
  mem_reads : (string * Term.t * bool) list;
      (** mem var, address term, RELIABLE flag — an unreliable read may
          alias an earlier write of this gadget, so its value cannot be
          treated as attacker-controlled *)
  alias_hazard : bool;                   (** some read was unreliable *)
}

val reg_var : Gp_x86.Reg.t -> Term.t
(** The entry-value variable of a register, e.g. [Var "rdi_0"]. *)

val slot_var : int -> Term.t
(** The payload-slot variable for a stack offset. *)

val slot_of_var : string -> int option
(** Offset encoded in a slot variable name, if it is one. *)

val initial : unit -> t
(** Fully symbolic state: every register at its entry variable. *)

val reg : t -> Gp_x86.Reg.t -> Term.t
val set_reg : t -> Gp_x86.Reg.t -> Term.t -> t

val assume : t -> Formula.t -> t
(** Add a pre-condition to the path. *)

val rsp_offset : t -> int option
(** Current rsp as a concrete offset from rsp0, when it is one. *)

type addr_class = Stack of int | Pointer of Term.t

val classify_addr : Term.t -> addr_class
(** Stack slot (rsp0-relative with concrete offset) or arbitrary
    pointer. *)

exception Unsupported of string

val read_mem : t -> Term.t -> t * Term.t
(** Read 8 bytes at a symbolic address.  Stack reads return (and
    memoize) the slot variable; pointer reads apply store-forwarding over
    earlier pointer writes (constant distance >= 8 proves disjointness;
    undecidable aliasing marks the read unreliable) and add a [Readable]
    pre-condition. *)

val write_mem : t -> Term.t -> Term.t -> t
(** Write 8 bytes: stack writes update the slot map; pointer writes are
    recorded in [ptr_writes] and add a [Writable] pre-condition. *)

val consumed_slots : t -> int list
(** Payload slots whose initial content this gadget reads, sorted. *)
