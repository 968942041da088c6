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

(** Compute-once table, the planner's candidate table: each key's value
    is computed by exactly one caller, whatever the number of domains
    asking.  Callers that find a key being computed wait for its value
    instead of computing it again; an exception raised by the
    computation is stored and re-raised to every caller of that key.
    Distinct keys compute in parallel.  The computation must not ask the
    same table for another key. *)
module Once : sig
  type ('k, 'v) t

  val create : unit -> ('k, 'v) t

  val get : ('k, 'v) t -> 'k -> ('k -> 'v) -> 'v * bool
  (** [get t k f] is the value of [f k], computed at most once per
      table, and whether this call computed it. *)

  val length : ('k, 'v) t -> int
  (** Keys asked for so far. *)
end

type result = {
  plans : Plan.t list;     (** accepted complete plans *)
  expanded : int;          (** nodes expanded (visited-distinct pops) *)
  peak_queue : int;        (** high-water mark of the priority queue *)
  inst_memo_hits : int;
      (** rankings a search took from the request's shared candidate
          table instead of computing them: (sum over searches of the
          distinct conditions each asked for) − [conditions].  The name
          is kept from the per-search instantiation memo it replaced. *)
  cand_memo_hits : int;
      (** repeat asks for a condition within one search *)
  rankings : int;          (** candidate rankings computed *)
  conditions : int;
      (** distinct conditions in the candidate table; equal to
          [rankings], since each is ranked once per call *)
  discarded : int;         (** complete plans rejected by [accept] *)
  exhausted : bool;        (** the whole space was searched *)
  budget_hit : bool;       (** stopped on deadline/fuel, not space *)
}

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
    queue, candidate memo, usage and visited tables, and a
    {!Budget.slice} fuel prefix ([node_budget / #roots], remainder to the
    earliest roots) sharing the parent deadline; results merge in root
    order — a pure function of (pool, goal, config), independent of the
    job count.

    The workers share one {!Once} candidate table created for this call
    only: each condition's ranked candidates (a pure function of the
    pool, the condition, [branch_cap] and the payload base) are computed
    once per call, by whichever worker asks first.

    [accept_for i] builds the accept gate for root [i], letting the
    caller validate payloads inside each worker with domain-private
    state.  The quota [max_plans] applies PER ROOT here; callers dedupe
    cross-root chains and re-apply the global quota after the merge
    (see {!Api}).  Stats merge associatively ([peak_queue] by max, the
    rest by sum), so they too are job-count-independent.

    A complete plan that fails its gate (payload unbuildable, duplicate
    chain, failed validation) is discarded WITHOUT consuming the quota
    and the search continues — the paper's "does not stop when finding
    one gadget chain".  The config's [time_budget]/[node_budget] become
    an internal {!Budget.t}; passing [budget] additionally clamps the
    deadline to the parent's.

    This is the planner's one search: the shipped pipeline ({!Api})
    and the SGC baseline ([Gp_baselines.Sgc], at [jobs:1] with one gate
    shared by every root) both plan with it. *)
