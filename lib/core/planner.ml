(* The partial-order planner (paper §IV-D, Algorithm 1).

   Greedy best-first search, backward from the attack goal: the root
   plans each contain one GOAL step (an instantiated syscall gadget whose
   pre-conditions encode the target register state).  Each expansion pops
   the best partial plan, selects an open pre-condition, and tries to
   close it either by REUSING an existing step's effect (adding a causal
   link) or by INSTANTIATING a new gadget from the register-indexed pool.
   Threatened causal links are protected by promotion/demotion.

   Heuristics (paper's, in priority order): fewest open pre-conditions,
   then fewest accumulated constraints (we use demand+binding count),
   then fewest steps.

   The search does NOT stop at the first complete plan: it keeps going,
   emitting distinct complete plans until the node budget or the plan
   quota is exhausted (paper: "Gadget-Planner does not stop when finding
   one gadget chain").  The quota is the whole call's: once [max_plans]
   plans are accepted, over all portfolio roots, the search stops. *)

type config = {
  max_plans : int;            (* accepted plans to emit, over all roots *)
  node_budget : int;          (* expansions before giving up *)
  time_budget : float;        (* seconds before giving up *)
  branch_cap : int;           (* candidate gadgets tried per open cond *)
  goal_cap : int;             (* syscall gadgets tried as roots *)
  max_steps : int;            (* plan size cap *)
}

let default_config =
  { max_plans = 32; node_budget = 4000; time_budget = 30.; branch_cap = 10;
    goal_cap = 6; max_steps = 14 }

(* Plan cost for the priority queue: fewest open pre-conditions, then
   fewest constraints, then fewest steps (the paper's heuristics) — plus a
   DIVERSITY pressure: gadgets that already appear in emitted chains incur
   a growing penalty, so once the easy chains are exhausted the search
   drifts to unexplored (conditional, merged, pivoting) providers, which
   is how "diverse gadget chains" keep coming (paper §IV-D). *)
let cost ~usage (p : Plan.t) =
  let constraints = ref 0 in
  let penalty = ref 0 in
  List.iter
    (fun (s : Plan.step) ->
      constraints :=
        !constraints + List.length s.Plan.demands + List.length s.Plan.bindings;
      match Hashtbl.find_opt usage s.Plan.gadget.Gadget.addr with
      | Some n -> penalty := !penalty + min n 40
      | None -> ())
    p.Plan.steps;
  (List.length p.Plan.open_conds, !constraints + !penalty, List.length p.Plan.steps)

module Pq = struct
  (* simple pairing-heap-free priority queue over a sorted map of costs *)
  module M = Map.Make (struct
    type t = int * int * int
    let compare = compare
  end)

  type 'a t = { mutable m : 'a list M.t; mutable size : int }

  let create () = { m = M.empty; size = 0 }

  let push q c p =
    let cur = match M.find_opt c q.m with Some l -> l | None -> [] in
    q.m <- M.add c (p :: cur) q.m;
    q.size <- q.size + 1

  let rec pop q =
    match M.min_binding_opt q.m with
    | None -> None
    | Some (c, []) ->
      (* an empty bucket must not end the search while other cost
         buckets may remain — drop it and keep looking *)
      q.m <- M.remove c q.m;
      pop q
    | Some (c, [ p ]) ->
      q.m <- M.remove c q.m;
      q.size <- q.size - 1;
      Some (c, p)
    | Some (c, p :: rest) ->
      q.m <- M.add c rest q.m;
      q.size <- q.size - 1;
      Some (c, p)
end

(* Queue entry: a plan plus its lazily computed, cached signature.
   [Plan.signature] is a Digest-of-Marshal of the whole plan; recomputing
   it on every pop (the seed behavior) made it one of the hottest spots
   in the search.  The memo lives HERE, not on [Plan.t]: plans are
   derived functionally ([{ p with ... }]), so a mutable field on the
   plan record would alias across derived plans and serve stale
   signatures. *)
type entry = { e_plan : Plan.t; mutable e_sig : string option }

let entry_of p = { e_plan = p; e_sig = None }

let entry_sig e =
  match e.e_sig with
  | Some s -> s
  | None ->
    let s = Plan.signature e.e_plan in
    e.e_sig <- Some s;
    s

(* Search counters, surfaced through [result] (and from there
   Api.stage_stats): one record per [search] call, shared by its roots
   in turn — sums, except [s_peak_queue], the max over roots. *)
type stats_acc = {
  mutable s_expanded : int;
  mutable s_peak_queue : int;
  mutable s_inst_hits : int;   (* rankings taken from the shared table *)
  mutable s_cand_hits : int;   (* repeat asks within this search *)
  mutable s_ranked : int;      (* rankings this search computed *)
  mutable s_discarded : int;
  mutable s_accepted : int;    (* plans accepted, against [max_plans] *)
}

let fresh_stats () =
  { s_expanded = 0; s_peak_queue = 0; s_inst_hits = 0; s_cand_hits = 0;
    s_ranked = 0; s_discarded = 0; s_accepted = 0 }

(* Add a step's demands as open conditions. *)
let open_demands (s : Plan.step) =
  List.map (fun d -> (s.Plan.sid, d)) s.Plan.demands

(* Try to close (consumer, cond) by linking from an existing step. *)
let reuse_successors (p : Plan.t) consumer cond : Plan.t list =
  List.filter_map
    (fun (s : Plan.step) ->
      if s.Plan.sid = consumer then None
      else
        let provides =
          match cond with
          | Plan.Creg (r, v) -> List.assoc_opt r s.Plan.effects = Some v
          | Plan.Cmem (a, v) -> List.mem (a, v) s.Plan.mem_effects
        in
        if not provides then None
        else
          let p =
            { p with
              Plan.links = (s.Plan.sid, cond, consumer) :: p.Plan.links;
              open_conds =
                List.filter (fun oc -> oc <> (consumer, cond)) p.Plan.open_conds }
          in
          Option.bind (Plan.add_ordering p s.Plan.sid consumer) (fun p ->
              Plan.protect_link p s.Plan.sid cond consumer))
    p.Plan.steps

(* Candidate gadgets for a condition: instantiate first (this is
   Algorithm 1's PickIfSatisfy), then keep the [cap] cheapest successful
   instantiations — fewest new demands, then fewest pre-conditions and
   shortest gadget.  Dead-end gadgets (ending at a syscall) never apply.

   The whole ranked, quota-applied cut is a function of the pool, the
   condition, [cap] and the payload base (ranking keys and the category
   quota never look at the plan; the step id is stamped on afterwards),
   so one plan request ranks each condition once — see [candidates]
   below.  Each gadget appears once in a pool list, so no
   (gadget, condition) pair is instantiated twice per ranking. *)
let ranked_candidates (pool : Pool.t) cond ~cap : Plan.step list =
  let gs =
    match cond with
    | Plan.Creg (r, _) -> Pool.setting pool r
    | Plan.Cmem _ -> pool.Pool.mem_writers
  in
  let insts =
    List.filter_map (fun g -> Plan.instantiate_for g cond ~sid:(-1)) gs
  in
  let ranked =
    List.sort
      (fun (a : Plan.step) (b : Plan.step) ->
        compare
          ( List.length a.Plan.demands,
            List.length a.Plan.gadget.Gadget.pre,
            a.Plan.gadget.Gadget.len )
          ( List.length b.Plan.demands,
            List.length b.Plan.gadget.Gadget.pre,
            b.Plan.gadget.Gadget.len ))
      insts
  in
  (* Diversity quota: plain ret gadgets are so plentiful that they would
     monopolize the cut; reserve part of it for the gadget kinds that set
     Gadget-Planner apart (conditional, merged, indirect, pivots), so the
     search actually exercises them (paper Table V). *)
  let category (st : Plan.step) =
    let g = st.Plan.gadget in
    if g.Gadget.has_cond || g.Gadget.has_merge then `Branchy
    else if
      g.Gadget.kind = Gadget.Return
      && (match g.Gadget.stack_delta with Gadget.Sdelta _ -> true | _ -> false)
    then `Plain
    else `Other
  in
  let of_cat c = List.filter (fun st -> category st = c) ranked in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let branchy_quota = max 2 (cap / 4) in
  let other_quota = max 2 (cap / 4) in
  let picked =
    take (cap - branchy_quota - other_quota) (of_cat `Plain)
    @ take branchy_quota (of_cat `Branchy)
    @ take other_quota (of_cat `Other)
  in
  if List.length picked < cap then take cap ranked else picked

(* Ranked candidates, shared by every search of one plan request: the
   cap and the payload base are fixed for the request, so the condition
   alone is the key.  Created per [search] call, never process-global —
   concurrent daemon requests must not share it. *)
type cand_table = (Plan.cond, Plan.step list) Hashtbl.t

(* A search's own view of the table: the conditions it has asked for so
   far (a repeat is a [s_cand_hits] hit); a first ask goes to the
   request's table, where it either ranks the condition or takes an
   earlier root's ranking ([s_inst_hits]). *)
type cand_memo = (Plan.cond, Plan.step list) Hashtbl.t

let candidates ~(stats : stats_acc) (table : cand_table) (cmemo : cand_memo)
    (pool : Pool.t) cond ~cap : Plan.step list =
  match Hashtbl.find_opt cmemo cond with
  | Some l ->
    stats.s_cand_hits <- stats.s_cand_hits + 1;
    l
  | None ->
    let l =
      match Hashtbl.find_opt table cond with
      | Some l ->
        stats.s_inst_hits <- stats.s_inst_hits + 1;
        l
      | None ->
        let l = ranked_candidates pool cond ~cap in
        Hashtbl.add table cond l;
        stats.s_ranked <- stats.s_ranked + 1;
        l
    in
    Hashtbl.add cmemo cond l;
    l

(* Close (consumer, cond) with a freshly instantiated gadget. *)
let new_step_successors (cfg : config) ~stats (table : cand_table)
    (cmemo : cand_memo) (pool : Pool.t) (p : Plan.t) consumer cond :
    Plan.t list =
  if List.length p.Plan.steps >= cfg.max_steps then []
  else
    List.filter_map
      (fun (template : Plan.step) ->
        let step = { template with Plan.sid = p.Plan.next_sid } in
        let p' =
          { Plan.steps = step :: p.Plan.steps;
            orderings = p.Plan.orderings;
            links = (step.Plan.sid, cond, consumer) :: p.Plan.links;
            open_conds =
              open_demands step
              @ List.filter (fun oc -> oc <> (consumer, cond)) p.Plan.open_conds;
            next_sid = p.Plan.next_sid + 1 }
        in
        Option.bind (Plan.add_ordering p' step.Plan.sid consumer) (fun p' ->
            Option.bind (Plan.protect_link p' step.Plan.sid cond consumer)
              (fun p' -> Plan.protect_from p' step)))
      (candidates ~stats table cmemo pool cond ~cap:cfg.branch_cap)

type result = {
  plans : Plan.t list;
  expanded : int;
  peak_queue : int;
  inst_memo_hits : int;
  cand_memo_hits : int;
  rankings : int;
  conditions : int;
  discarded : int;
  exhausted : bool;   (* true if the whole space was searched *)
  budget_hit : bool;  (* search stopped on deadline or fuel, not space *)
}

(* The config's own limits become a budget; an inherited budget can only
   tighten the deadline further (fuel = expansions here). *)
let search_budget (config : config) = function
  | Some parent ->
    Budget.sub parent ~label:"plan" ~seconds:config.time_budget
      ~fuel:config.node_budget ()
  | None ->
    Budget.create ~label:"plan" ~seconds:config.time_budget
      ~fuel:config.node_budget ()

(* Root plan for one candidate syscall gadget. *)
let root_plan (goal : Goal.concrete) (g : Gadget.t) : Plan.t option =
  match Plan.instantiate_goal g goal ~sid:0 with
  | None -> None
  | Some step ->
    (* payload-region cells are delivered with the payload itself;
       only cells elsewhere need write-what-where steps *)
    let mem_conds =
      List.filter_map
        (fun (a, v) ->
          if Layout.in_payload a then None else Some (0, Plan.Cmem (a, v)))
        goal.Goal.mem
    in
    Some
      { Plan.steps = [ step ];
        orderings = [];
        links = [];
        open_conds = open_demands step @ mem_conds;
        next_sid = 1 }

(* The best-first loop [search] runs for each portfolio root.  The
   candidate table is the one piece of state the roots share: it holds
   pure values, each computed once (see [cand_table]).
   [accept] gates completed plans: a complete plan that fails it (e.g.
   its payload cannot be assembled, or it duplicates a chain already
   emitted) is discarded WITHOUT consuming the plan quota, and the
   search keeps going.  Everything else a root's search mutates —
   queue, candidate memo, usage/visited tables — it owns; the pool is
   immutable. *)
let run_search (config : config) ~accept ~budget ~(stats : stats_acc)
    (table : cand_table) (pool : Pool.t) (root : Plan.t) :
    Plan.t list * bool * bool =
  let cmemo : cand_memo = Hashtbl.create 64 in
  let q = Pq.create () in
  let usage : (int64, int) Hashtbl.t = Hashtbl.create 64 in
  let push p = Pq.push q (cost ~usage p) (entry_of p) in
  let push_entry e = Pq.push q (cost ~usage e.e_plan) e in
  push root;
  let visited = Hashtbl.create 1024 in
  let complete = ref [] in
  let exhausted = ref true in
  let budget_hit = ref false in
  (try
     while true do
       Budget.check budget;
       if q.Pq.size > stats.s_peak_queue then stats.s_peak_queue <- q.Pq.size;
       match Pq.pop q with
       | None -> raise Exit
       | Some (key, e) when cost ~usage e.e_plan > key ->
         (* the diversity penalty grew since this plan was queued: rescore
            lazily instead of expanding a stale-cheap entry *)
         push_entry e
       | Some (_, e) ->
         let p = e.e_plan in
         let sig_ = entry_sig e in
         if not (Hashtbl.mem visited sig_) then begin
           Hashtbl.add visited sig_ ();
           stats.s_expanded <- stats.s_expanded + 1;
           Budget.spend budget;
           match p.Plan.open_conds with
           | [] ->
             if accept p then begin
               complete := p :: !complete;
               List.iter
                 (fun (s : Plan.step) ->
                   let a = s.Plan.gadget.Gadget.addr in
                   Hashtbl.replace usage a
                     (1 + (match Hashtbl.find_opt usage a with Some n -> n | None -> 0)))
                 p.Plan.steps;
               stats.s_accepted <- stats.s_accepted + 1;
               if stats.s_accepted >= config.max_plans then begin
                 exhausted := false;
                 raise Exit
               end
             end
             else stats.s_discarded <- stats.s_discarded + 1
           | (consumer, cond) :: _ ->
             let succs =
               reuse_successors p consumer cond
               @ new_step_successors config ~stats table cmemo pool p consumer
                   cond
             in
             List.iter push succs
         end
     done
   with
   | Exit -> ()
   | Budget.Exhausted _ ->
     exhausted := false;
     budget_hit := true);
  (List.rev !complete, !exhausted, !budget_hit)

(* Goal-portfolio search: one INDEPENDENT best-first search per root
   syscall gadget, run in root order on the calling domain.  Each root
   owns its queue, candidate memo, usage and visited tables, and a
   [Budget.slice] of the parent — a deterministic fuel share
   (node_budget / #roots, remainder to the earliest roots) plus the
   shared wall-clock deadline.  Results concatenate in root order, so
   the outcome is a pure function of the pool, the goal, and the config.

   The roots share one candidate table, created here for this call
   only.  A ranking is a pure function of (pool, condition, branch_cap,
   payload base), all fixed for the call, so which root computes it
   changes no plan; each condition is ranked once per call.

   This is the planner's one search: the pipeline (Api) and the SGC
   baseline both use it.

   Per-root usage tables preserve the diversity heuristic where it
   matters: usage pressure exists to stop chain k+1 from being a
   permutation of chain k, and chains from the SAME root are exactly the
   ones built from the same gadget neighbourhood.  Cross-root repetition
   is the caller's [accept]: one gate sees every root's plans, so it can
   refuse a chain an earlier root already emitted.

   [max_plans] is the quota of the whole call: once that many plans are
   accepted, the current root stops and no later root runs (a skipped
   root is not exhausted).  The roots run in order, so the plans a full
   call returns are the first [max_plans] its gate accepted. *)
let search ?(config = default_config) ?(accept = fun (_ : Plan.t) -> true)
    ?budget (pool : Pool.t) (goal : Goal.concrete) : result =
  let parent = search_budget config budget in
  let roots =
    List.filteri (fun i _ -> i < config.goal_cap) pool.Pool.syscall_gadgets
    |> List.filter_map (root_plan goal)
  in
  let n = max 1 (List.length roots) in
  let share = config.node_budget / n and rem = config.node_budget mod n in
  let table : cand_table = Hashtbl.create 64 in
  let stats = fresh_stats () in
  let results =
    List.mapi
      (fun i root ->
        if stats.s_accepted >= config.max_plans then ([], false, false)
        else
          let fuel = share + (if i < rem then 1 else 0) in
          let b = Budget.slice parent ~label:"plan-root" ~fuel () in
          run_search config ~accept ~budget:b ~stats table pool root)
      roots
  in
  { plans = List.concat_map (fun (ps, _, _) -> ps) results;
    expanded = stats.s_expanded;
    peak_queue = stats.s_peak_queue;
    inst_memo_hits = stats.s_inst_hits;
    cand_memo_hits = stats.s_cand_hits;
    rankings = stats.s_ranked;
    conditions = Hashtbl.length table;
    discarded = stats.s_discarded;
    exhausted = List.for_all (fun (_, e, _) -> e) results;
    budget_hit = List.exists (fun (_, _, b) -> b) results }
