(** The gadget record (paper Table II) plus classification (Table I).

    A gadget is a symbolic summary of an instruction run ending in a
    controllable transfer, reduced to the fields the planner consumes:
    which registers it clobbers, which it sets from attacker-controlled
    stack slots, its pre-condition formulas, its post-condition terms,
    and how control leaves it. *)

open Gp_smt

(** Table I taxonomy. *)
type kind =
  | Return   (** ends in ret, unconditional, unmerged *)
  | UDJ      (** crossed a direct jump (merged) *)
  | UIJ      (** ends in an indirect jump/call *)
  | CDJ      (** conditional, ending in a direct transfer *)
  | CIJ      (** conditional, ending in an indirect transfer *)
  | Sys      (** ends at a syscall *)

val kind_name : kind -> string

(** How the gadget leaves the stack pointer. *)
type stack_effect =
  | Sdelta of int      (** rsp_final = rsp_entry + d: normal chain motion *)
  | Spivot of int      (** rsp_final = rbp_entry + d: frame pivot (leave) *)
  | Sunknown

type t = {
  id : int;                              (** unique per process *)
  addr : int64;                          (** location *)
  len : int;                             (** instruction count *)
  insns : Gp_x86.Insn.t list;
  kind : kind;
  jmp : Gp_symx.Exec.jump;
  clobbered : Gp_x86.Reg.t list;         (** clob-reg *)
  controlled : (Gp_x86.Reg.t * int) list;
      (** ctrl-reg: register <- payload slot at offset *)
  pre : Formula.t list;                  (** pre-cond *)
  post : (Gp_x86.Reg.t * Term.t) list;   (** post-cond: every register *)
  stack_delta : stack_effect;
  stack_writes : (int * Term.t) list;
  consumed : int list;                   (** payload slots this gadget reads *)
  ptr_writes : (Term.t * Term.t) list;   (** write-what-where effects *)
  mem_reads : (string * Term.t * bool) list;  (** var, address, reliable *)
  syscall_state : (Gp_x86.Reg.t * Term.t) list option;
      (** register state at the FIRST syscall executed, if any *)
  has_cond : bool;
  has_merge : bool;
  alias_hazard : bool;
}

val classify : Gp_symx.Exec.summary -> kind

val reset_ids : unit -> unit
(** Forget the global id sequence.  Differential tests reset before
    comparing pipelines so both runs draw the same ids (ids seed the
    layout pool's address salt, see [Plan]). *)

val fresh_id : unit -> int
(** Draw the next id from the global sequence.  The parallel harvest
    merge uses this to renumber worker-built gadgets on the main domain,
    reproducing exactly the sequence a sequential harvest assigns. *)

type id_source = unit -> int
(** Where a harvest draws gadget ids from (ids seed the layout pool's
    address salt, so the draw sequence is result-affecting). *)

val global_ids : id_source
(** The process-global sequence ([fresh_id]).  Only safe when harvests
    run one at a time. *)

val local_ids : unit -> id_source
(** A fresh private 0-based sequence.  Scheduler cells use one per cell
    so concurrent harvests never share a counter; it yields exactly the
    ids a sequential [reset_ids (); harvest] would. *)

val of_summary : ?id:int -> Gp_symx.Exec.summary -> t
(** Build the record from a symbolic summary.  Without [id], a fresh id
    is drawn from the global sequence (the sequential path); with it,
    the shared counter is left untouched (parallel workers pass a
    placeholder and the merge renumbers). *)

val post_of : t -> Gp_x86.Reg.t -> Term.t
(** Final value term of a register. *)

val to_string : t -> string
(** One-line rendering: address, kind, instructions. *)

val describe : t -> string
(** Multi-line rendering including pre/post conditions. *)
