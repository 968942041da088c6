(** Plan representation for partial-order planning (paper §IV-D).

    A plan is the 5-tuple (α, β, γ, δ, ε): steps, orderings, causal
    links, open pre-conditions, and (transient) threats.  Steps are
    INSTANTIATED gadgets: at instantiation time the gadget's
    pre-conditions and the required effect are solved together, yielding
    concrete stack-slot bindings (payload cells) and concrete register
    demands on earlier steps.  This concretization keeps the POP
    machinery classical while the symbolic heavy lifting happens in the
    solver at instantiation. *)

(** A condition a step needs at its entry. *)
type cond =
  | Creg of Gp_x86.Reg.t * int64   (** register equals the value *)
  | Cmem of int64 * int64          (** memory cell holds the value *)

val cond_to_string : cond -> string

type step_id = int

(** An instantiated gadget in a plan. *)
type step = {
  sid : step_id;
  gadget : Gadget.t;
  bindings : (int * int64) list;
      (** slot offset (from the step's entry rsp) -> payload value *)
  abs_bindings : (int64 * int64) list;
      (** absolute payload cell -> value (pinned-pointer reads) *)
  mem_cells : (string * int64) list;
      (** memory-read variable -> absolute payload cell it resolved to *)
  effects : (Gp_x86.Reg.t * int64) list;
      (** register effects fully determined by the instantiation *)
  mem_effects : (int64 * int64) list;   (** concrete pointer writes *)
  write_addrs : int64 list;             (** all determined write targets *)
  demands : cond list;                  (** pre-conditions on entry state *)
  is_goal : bool;
}

(** α steps, β orderings, γ causal links, δ open pre-conditions. *)
type t = {
  steps : step list;
  orderings : (step_id * step_id) list;  (** (a, b): a executes before b *)
  links : (step_id * cond * step_id) list;
      (** (producer, condition, consumer) *)
  open_conds : (step_id * cond) list;    (** (consumer, needed condition) *)
  next_sid : int;
}

(** {1 Variable classification} *)

val reg_of_entry_var : string -> Gp_x86.Reg.t option
(** ["rdi_0"] -> [Some RDI]. *)

val is_slot_var : string -> bool
val find_mem_read : Gadget.t -> string -> (string * Gp_smt.Term.t * bool) option
val is_mem_var : Gadget.t -> string -> bool

(** {1 Instantiation} *)

val solve_instantiation :
  ?salt:int ->
  Gadget.t ->
  Gp_smt.Formula.t list ->
  ((int * int64) list
  * (int64 * int64) list
  * (string * int64) list
  * cond list
  * Gp_smt.Solver.model)
  option
(** Solve [require] together with the gadget's own pre-conditions.
    Returns (slot bindings, absolute cell bindings, resolved memory
    cells, register demands, full model) or [None].  Memory values read
    through controlled pointers are handled per the paper: the pointer is
    pinned into the payload region and the value becomes a payload cell;
    a constrained read whose cell is NOT attacker-controlled poisons the
    instantiation. *)

val target_controllable : Gadget.t -> (string * 'a) list -> bool
(** Will the outgoing transfer be solvable to an arbitrary next address
    at payload-build time? *)

val instantiate_for : Gadget.t -> cond -> sid:step_id -> step option
(** Instantiate the gadget to ACHIEVE the condition (rejecting dead-end
    syscall gadgets, pass-through registers, uncontrollable targets, and
    instantiations that fail to deliver). *)

val instantiate_goal : Gadget.t -> Goal.concrete -> sid:step_id -> step option
(** Instantiate a syscall gadget as the plan's GOAL step: its syscall-
    time register state must equal the goal's. *)

(** {1 Plan machinery} *)

val find_step : t -> step_id -> step
val reaches : t -> step_id -> step_id -> bool

val add_ordering : t -> step_id -> step_id -> t option
(** [None] when the ordering would create a cycle. *)

val clobbers : step -> cond -> bool
(** Does the step threaten a causal link carrying the condition?
    (Writing the same value is harmless.) *)

val protect_link : t -> step_id -> cond -> step_id -> t option
(** Resolve all threats to the link (producer, cond, consumer) from
    existing steps, by demotion then promotion; [None] if unresolvable. *)

val protect_from : t -> step -> t option
(** Resolve threats a NEW step poses to existing links. *)

val signature : t -> Digest.t
(** Canonical hash for visited-set deduplication. *)
