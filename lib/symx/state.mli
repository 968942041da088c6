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
  regs : Term.t array;
      (** 16, indexed by [Reg.number]; the path owns it and
          {!set_reg} writes it in place *)
  stack : Term.t Imap.t;                 (** offset from rsp0 -> value *)
  stack_writes : (int * Term.t) list;    (** newest first *)
  path : Formula.t list;                 (** accumulated pre-conditions *)
  flags : flag_src;
  fresh : int;                           (** counter for memory reads *)
  syscalls : (Gp_x86.Reg.t * Term.t) list list;
      (** register state at each syscall, newest first *)
  consumed : int list;                   (** stack offsets read before write *)
  ptr_writes : (Term.t * Term.t) list;
      (** non-stack writes (addr, value), newest first *)
  mem_reads : (string * Term.t * bool) list;
      (** mem var, address term, RELIABLE flag — an unreliable read may
          alias an earlier write of this gadget, so its value cannot be
          treated as attacker-controlled *)
  alias_hazard : bool;                   (** some read was unreliable *)
}
(** Ownership: a path owns its register file.  {!set_reg} writes it in
    place, {!initial} gives each run a fresh copy and {!fork} is the only
    other copy, taken where two paths diverge.  Every other field is
    immutable, so a record update shares them.  An emitted summary keeps
    its path's array as its final registers ([Gadget.post]), so no one
    writes it after emission.

    Both write lists are consed as the writes happen, newest first;
    [Gadget.of_summary] reverses them once into write order.
    The state holds no instruction list: [Exec.summarize_r] keeps the
    executed instructions in its own loop. *)

val reg_var : Gp_x86.Reg.t -> Term.t
(** The entry-value variable of a register, e.g. [Var "rdi_0"]. *)

val slot_var : int -> Term.t
(** The payload-slot variable for a stack offset, ["stk_<o>"] or
    ["stk_m<o>"]: for offsets in [[slot_lo, slot_hi]] one shared
    variable from a table built once, beyond that a formatted one. *)

val slot_lo : int
val slot_hi : int

val mem_count : int
(** The first [mem_count] memory-read variables (["mem0"], ...) come
    from a table too; later reads format their name. *)

val slot_of_var : string -> int option
(** Offset encoded in a slot variable name, if it is one.  A name not
    starting with ["stk_"] is refused without allocating. *)

val initial : unit -> t
(** Fully symbolic state: every register at its entry variable, in a
    register file of its own. *)

val fork : t -> t
(** The same state with a copy of the register file, for a second path
    that continues from here. *)

val entry_reg : Gp_x86.Reg.t -> Term.t
(** The register's entry variable, {!reg_var}, from the shared entry
    state: no allocation. *)

val reg : t -> Gp_x86.Reg.t -> Term.t

val set_reg : t -> Gp_x86.Reg.t -> Term.t -> unit
(** Write the simplified value into the state's own register file.  The
    write is seen by every record that shares the array: {!fork} first
    when another path must keep the old value. *)

val assume : t -> Formula.t -> t
(** Add a pre-condition to the path. *)

type addr_class = Stack of int | Pointer of Term.t

val classify_addr : Term.t -> addr_class
(** Stack slot (rsp0-relative with concrete offset) or arbitrary
    pointer, the address simplified.  It matches the canonical shapes
    [Var "rsp_0"] and [Add (Var "rsp_0", Const c)] directly
    ({!Term.of_linear}). *)

exception Unsupported of string

val read_mem : t -> Term.t -> t * Term.t
(** Read 8 bytes at a symbolic address.  Stack reads return (and
    memoize) the slot variable; pointer reads apply store-forwarding over
    earlier pointer writes, newest first ({!Term.const_distance}: 0 is
    the written value, a constant distance >= 8 proves disjointness,
    anything else marks the read unreliable) and add a [Readable]
    pre-condition. *)

val write_mem : t -> Term.t -> Term.t -> t
(** Write 8 bytes: stack writes update the slot map; pointer writes are
    recorded in [ptr_writes] and add a [Writable] pre-condition. *)

val consumed_slots : t -> int list
(** Payload slots whose initial content this gadget reads, sorted. *)
