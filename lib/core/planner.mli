(** The partial-order planner (paper §IV-D, Algorithm 1).

    Greedy best-first search, backward from the attack goal: root plans
    each contain one GOAL step (an instantiated syscall gadget whose
    demands encode the target register state).  Each expansion closes an
    open pre-condition either by REUSING an existing step's effect or by
    INSTANTIATING a new gadget from the register-indexed pool; threatened
    causal links are protected by promotion/demotion.

    Heuristics (the paper's, in priority order): fewest open
    pre-conditions, fewest accumulated constraints, fewest steps — plus a
    diversity pressure that penalizes gadgets already appearing in
    emitted chains (with lazy queue rescoring), so the search keeps
    producing DIFFERENT chains rather than permutations of the first. *)

type config = {
  max_plans : int;            (** accepted complete plans to emit *)
  node_budget : int;          (** expansions before giving up *)
  time_budget : float;        (** seconds before giving up *)
  branch_cap : int;           (** candidate steps tried per open cond *)
  goal_cap : int;             (** syscall gadgets tried as roots *)
  max_steps : int;            (** plan size cap *)
}

val default_config : config

type memo = (int * Plan.cond, Plan.step option) Hashtbl.t
(** Instantiation is plan-independent (only the step id differs), so each
    (gadget, condition) pair is solved at most once per search. *)

val instantiate_memo :
  memo -> Gadget.t -> Plan.cond -> sid:Plan.step_id -> Plan.step option

val candidate_steps :
  memo -> Pool.t -> Plan.t -> Plan.cond -> cap:int -> Plan.step list
(** Algorithm 1's PickIfSatisfy: instantiate candidates, rank by (new
    demands, pre-conditions, length), and reserve part of the cut for
    conditional/merged/indirect/pivot gadgets so the planner's
    distinguishing gadget classes actually get exercised. *)

type result = {
  plans : Plan.t list;     (** accepted complete plans *)
  expanded : int;          (** nodes expanded (visited-distinct pops) *)
  peak_queue : int;        (** high-water mark of the priority queue *)
  inst_memo_hits : int;    (** instantiation-memo hits *)
  cand_memo_hits : int;    (** ranked-candidate-memo hits *)
  discarded : int;         (** complete plans rejected by [accept] *)
  exhausted : bool;        (** the whole space was searched *)
  budget_hit : bool;       (** stopped on deadline/fuel, not space *)
}

val search :
  ?config:config ->
  ?accept:(Plan.t -> bool) ->
  ?budget:Budget.t ->
  Pool.t ->
  Goal.concrete ->
  result
(** Run the search.  [accept] gates completed plans: a complete plan that
    fails it (payload unbuildable, duplicate chain, failed validation) is
    discarded WITHOUT consuming the plan quota and the search continues —
    the paper's "does not stop when finding one gadget chain".

    The config's [time_budget]/[node_budget] become an internal
    {!Budget.t}; passing [budget] additionally clamps the deadline to the
    parent's, so a pipeline-level budget bounds the search no matter what
    the config says. *)

val search_par :
  ?config:config ->
  ?accept_for:(int -> Plan.t -> bool) ->
  ?budget:Budget.t ->
  ?jobs:int ->
  Pool.t ->
  Goal.concrete ->
  result
(** Goal-portfolio search: one independent best-first search per root
    syscall gadget, fanned over [jobs] domains.  Each worker owns its
    queue, memos, usage and visited tables, and a {!Budget.slice} fuel
    prefix ([node_budget / #roots], remainder to the earliest roots)
    sharing the parent deadline; results merge in root order — a pure
    function of (pool, goal, config), independent of the job count.

    [accept_for i] builds the accept gate for root [i], letting the
    caller validate payloads inside each worker with domain-private
    state.  The quota [max_plans] applies PER ROOT here; callers dedupe
    cross-root chains and re-apply the global quota after the merge
    (see {!Api}).  Stats merge associatively ([peak_queue] by max, the
    rest by sum), so they too are job-count-independent. *)
