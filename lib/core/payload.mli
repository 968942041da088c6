(** Post-processing (paper §IV stage 4): linearize a complete
    partial-order plan and emit the concrete stack payload.

    The payload layout follows the classic stack-smash shape: word 0
    lands on the victim's saved return address (holding the first
    gadget's address); execution consumes subsequent words as each gadget
    pops its slots and transfers to the next gadget's address.  Pinned-
    pointer cells (frame reads, jump-table indirections) live deeper in
    the payload, and frame-pivot gadgets move the cursor to their pinned
    frame.  Plans whose cells conflict are rejected here; every emitted
    payload is finally validated by concrete execution. *)

type chain = {
  c_goal : Goal.concrete;
  c_steps : Plan.step list;     (** execution order; goal step last *)
  c_payload : int64 array;      (** word 0 sits at [Layout.payload_base ()] *)
}

exception Infeasible of string

val filler : int64
(** Cell value for unconstrained payload words (0x41...41). *)

val linearize : Plan.t -> Plan.step list
(** Topological order of the steps with the goal forced last; raises
    {!Infeasible} on an ordering cycle. *)

val solve_target :
  Plan.step ->
  Gp_smt.Term.t ->
  int64 ->
  [ `Trivial | `Slot of int * int64 | `Abs of int64 * int64 | `Unsolvable ]
(** Solve [jump-target term = next address] for a single payload-
    controlled variable: a relative stack slot or a resolved absolute
    memory cell. *)

val build : Plan.t -> Goal.concrete -> chain
(** Assemble the payload; raises {!Infeasible} on conflicting cells,
    runtime writes trampling later reads, uncontrollable transfers, or
    interior syscall dead-ends. *)

val build_opt : Plan.t -> Goal.concrete -> chain option

val validate_run : ?fuel:int -> Gp_util.Image.t -> chain -> Gp_emu.Machine.outcome
(** Execute the payload exactly as a stack smash would (registers zeroed,
    rsp at payload word 1, rip at the first gadget) and return the raw
    outcome — so callers can distinguish a chain that crashed ([Fault])
    from one that ran out of fuel ([Timeout]).  A fault while writing
    the payload itself is folded into [Fault]; no exception escapes.
    The emulator's injection fuse is keyed on the chain's gadget
    sequence, so fault schedules are independent of validation order
    and of requests validating concurrently. *)

val validate : ?fuel:int -> Gp_util.Image.t -> chain -> bool
(** [Goal.satisfied] of {!validate_run}: the run ends in the EXACT goal
    attack. *)

val chain_key : chain -> string
(** Identity by gadget-address sequence. *)

val chain_set_key : chain -> string
(** Coarser identity by gadget-address SET — two linearizations of one
    partial order are one payload (how experiments count). *)

val describe : chain -> string
(** Human-readable rendering: goal, gadget listing, payload prefix. *)
