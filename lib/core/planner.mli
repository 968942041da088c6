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
  max_plans : int;
      (** accepted complete plans to emit: the quota of one {!search}
          call, over all its roots *)
  node_budget : int;          (** expansions before giving up *)
  time_budget : float;        (** seconds before giving up *)
  branch_cap : int;           (** candidate steps tried per open cond *)
  goal_cap : int;             (** syscall gadgets tried as roots *)
  max_steps : int;            (** plan size cap *)
}

val default_config : config

type result = {
  plans : Plan.t list;     (** accepted complete plans *)
  expanded : int;          (** nodes expanded (visited-distinct pops) *)
  peak_queue : int;        (** high-water mark of the priority queue *)
  inst_memo_hits : int;
      (** rankings a root's search took from the call's shared
          candidate table instead of computing them: (sum over roots of
          the distinct conditions each asked for) − [conditions].  The
          name is kept from the per-search instantiation memo it
          replaced. *)
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

val search :
  ?config:config ->
  ?accept:(Plan.t -> bool) ->
  ?budget:Budget.t ->
  Pool.t ->
  Goal.concrete ->
  result
(** Goal-portfolio search: one independent best-first search per root
    syscall gadget, run in root order on the calling domain.  Each root
    owns its queue, candidate memo, usage and visited tables, and a
    {!Budget.slice} fuel share ([node_budget / #roots], remainder to the
    earliest roots) sharing the parent deadline; plans concatenate in
    root order — a pure function of (pool, goal, config).

    The roots share one candidate table created for this call only:
    each condition's ranked candidates (a pure function of the pool, the
    condition, [branch_cap] and the payload base) are computed once per
    call, by whichever root asks first.

    [accept] is the one accept gate of the call, shared by every root,
    letting the caller validate payloads inside the search and refuse a
    chain any earlier root already emitted.  The quota [max_plans]
    counts the plans [accept] passed over all roots: once it is full,
    [accept] is not called again, the current root stops, and no later
    root runs (a skipped root leaves [exhausted] false).  [plans] is
    thus at most [max_plans] long.  [peak_queue] is the max over roots,
    the other counters sum.

    A complete plan that fails its gate (payload unbuildable, duplicate
    chain, failed validation) is discarded WITHOUT consuming the quota
    and the search continues — the paper's "does not stop when finding
    one gadget chain".  The config's [time_budget]/[node_budget] become
    an internal {!Budget.t}; passing [budget] additionally clamps the
    deadline to the parent's.

    This is the planner's one search: the shipped pipeline ({!Api})
    and the SGC baseline ([Gp_baselines.Sgc]) both plan with it. *)
