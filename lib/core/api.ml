(* High-level Gadget-Planner API: the four-stage pipeline of Fig. 3.

     image --(1) gadget extraction--> gadgets
           --(2) subsumption testing--> minimal pool
           --(3) partial-order planning--> plans
           --(4) post-processing + validation--> payloads

   [run] executes all four stages and returns only chains whose payloads
   drive the emulator to the goal syscall (validation-first; DESIGN.md).

   Resilience (DESIGN.md "Failure model & budgets"): every stage
   boundary is Result-typed over the [Fail] taxonomy, faults inside a
   stage are quarantined per gadget and tallied into [stage_stats], a
   [Budget.t] bounds the whole run, and on a zero-chain result [run]
   retries down a degradation ladder with progressively looser
   configurations, recording each rung in the outcome. *)

type stage_stats = {
  extracted : int;
  deduped : int;
  subsume_capped : int;
      (* gadgets the stage-2 bucket cap dropped *)
  pool_size : int;
  plans_found : int;
  chains_built : int;
  chains_validated : int;
  quarantined : (string * int) list;
      (* Fail.label -> count of items quarantined in stages 1-2 *)
  solver_unknowns : int;
      (* solver Unknown verdicts attributable to this run *)
  validate_faults : int;
      (* candidate chains whose payload crashed the machine *)
  validate_timeouts : int;
      (* candidate chains that ran out of emulator fuel — NOT crashes *)
  budget_hits : string list;
      (* stages whose budget ran dry ("extract", "subsume", "plan") *)
  cache_hits : int;
  cache_misses : int;
      (* solver memo traffic (the pool-keyed search memo) during stages
         3-4 (stages 1-2 make no solver query) — hit rate is a property
         of cache temperature, never of verdicts, so it is reported but
         excluded from differential comparisons *)
  plan_expanded : int;
      (* planner nodes expanded (summed over portfolio roots) *)
  plan_peak_queue : int;
      (* high-water mark of the planner priority queue (max over roots) *)
  plan_inst_hits : int;
      (* candidate rankings a portfolio root took from the request's
         shared table instead of computing them *)
  plan_cand_hits : int;
      (* ranked-candidate-memo hits inside the planner *)
  plan_discarded : int;
      (* complete plans rejected by the accept gate (duplicate chain,
         unbuildable payload, failed validation) *)
  screen_decided : int;
      (* Tier A: check queries decided abstractly.  Counted per query
         answered, before the memo (same discipline as
         solver_unknowns) *)
  summary_hits : int;
  summary_misses : int;
      (* image memo traffic during the harvest (DESIGN.md §11): starts
         replayed from the memo vs starts symbolically executed.  Like
         the solver-memo counters, temperature-dependent — excluded
         from differential comparisons *)
  decode_saved : int;
      (* repeat decodes absorbed by the decode-once extraction memo *)
  extract_time : float;
  subsume_time : float;
  plan_time : float;
  validate_time : float;
      (* seconds spent inside Payload.validate_run — part of plan_time
         (validation runs inside the search's accept gate), broken out
         so stage 4 is observable on its own *)
}

(* Tier A's live counter, [screen_decided]. *)
let screen_counter () =
  let _, decided, _, _ = Gp_smt.Solver.screen_stats () in
  decided

(* Solver-memo counters, snapshotted around stages 3-4. *)
let cache_counters () =
  ( Gp_smt.Cache.hits Gp_smt.Solver.pool_memo,
    Gp_smt.Cache.misses Gp_smt.Solver.pool_memo )

type analysis = {
  image : Gp_util.Image.t;
  gadgets : Gadget.t list;      (* the stage-2 pool *)
  pool : Pool.t;
  raw_extracted : int;
  deduped : int;
  subsume_capped : int;
  extract_time : float;
  subsume_time : float;
  quarantined : (string * int) list;
  analysis_budget_hits : string list;
  analysis_summary_hits : int;
  analysis_summary_misses : int;
  analysis_suffix_hits : int;
  analysis_suffix_misses : int;
  analysis_substitutions : int;
      (* always 0: stubs bench/e2e still reads (see api.mli) *)
  analysis_decode_saved : int;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Result-typed stage boundary: refuse to even start [f] when [budget]
   is already dry, converting exhaustion into the taxonomy.  The harvest
   degrades internally past this point (harvest_r absorbs its own
   sub-budget), so an [Error] here means the PIPELINE budget died
   between stages. *)
let stage (label : string) (budget : Budget.t) (f : unit -> 'a) :
    ('a, Fail.t) result =
  match Budget.guard budget f with
  | Ok v -> Ok v
  | Error reason -> Error (Fail.of_budget label reason)

(* ----- the stages, one at a time -----

   Each stage returns the explicit intermediate state the next one
   consumes; [analyze], [run_with_analysis] and [run] are compositions
   of these, so every path runs the same code. *)

type extracted = {
  ex_image : Gp_util.Image.t;
  ex_harvested : Gadget.t list;
  ex_hstats : Extract.harvest_stats;
  ex_extract_time : float;
}

let stage_extract ?budget ?ids (image : Gp_util.Image.t) :
    extracted =
  let root = match budget with Some b -> b | None -> Budget.unlimited () in
  let (harvested, hstats), extract_time =
    match
      stage "extract" root (fun () ->
          timed (fun () ->
              Extract.harvest_r
                ~budget:(Budget.sub root ~label:"extract" ~fraction:0.6 ())
                ?ids image))
    with
    | Ok v -> v
    | Error f ->
      ( ( [],
          { Extract.h_starts = 0;
            h_quarantined = [ (Fail.label f, 1) ];
            h_budget_hit = true;
            h_summary_hits = 0;
            h_summary_misses = 0;
            h_decode_saved = 0 } ),
        0. )
  in
  { ex_image = image;
    ex_harvested = harvested;
    ex_hstats = hstats;
    ex_extract_time = extract_time }

let stage_subsume ?budget (ex : extracted) : analysis * Gadget.t list =
  let root = match budget with Some b -> b | None -> Budget.unlimited () in
  let harvested = ex.ex_harvested in
  let hstats = ex.ex_hstats in
  (* A dry pipeline budget skips the stage: the harvest passes through
     as the pool, and "subsume" is reported as a budget hit. *)
  let (minimal, sstats), subsume_time, subsume_hit =
    match
      stage "subsume" root (fun () ->
          timed (fun () -> Subsume.minimize harvested))
    with
    | Ok (r, t) -> (r, t, false)
    | Error _ ->
      let n = List.length harvested in
      ( (harvested, { Subsume.input = n; after_dedup = n; capped = 0 }),
        0.,
        true )
  in
  ( { image = ex.ex_image;
      gadgets = minimal;
      pool = Pool.build minimal;
      raw_extracted = List.length harvested;
      deduped = sstats.Subsume.after_dedup;
      subsume_capped = sstats.Subsume.capped;
      extract_time = ex.ex_extract_time;
      subsume_time;
      quarantined = hstats.Extract.h_quarantined;
      analysis_budget_hits =
        (if hstats.Extract.h_budget_hit then [ "extract" ] else [])
        @ (if subsume_hit then [ "subsume" ] else []);
      analysis_summary_hits = hstats.Extract.h_summary_hits;
      analysis_summary_misses = hstats.Extract.h_summary_misses;
      analysis_suffix_hits = 0;
      analysis_suffix_misses = 0;
      analysis_substitutions = 0;
      analysis_decode_saved = hstats.Extract.h_decode_saved },
    harvested )

let analyze ?budget ?ids (image : Gp_util.Image.t) : analysis =
  fst (stage_subsume ?budget (stage_extract ?budget ?ids image))

(* ----- degradation ladder ----- *)

type rung = Full | Dedup_only | Wider_branch | Relaxed_steps

let rung_name = function
  | Full -> "full"
  | Dedup_only -> "dedup-only"
  | Wider_branch -> "wider-branch"
  | Relaxed_steps -> "relaxed-steps"

type outcome = {
  goal : Goal.concrete;
  chains : Payload.chain list;   (* validated only *)
  stats : stage_stats;
  rungs : rung list;             (* ladder rungs attempted, in order *)
}

(* Stage-3 output: everything stage 4 needs to merge, dedup, re-quota,
   and assemble the outcome. *)
type planned = {
  pl_analysis : analysis;
  pl_goal : Goal.concrete;
  pl_config : Planner.config;
  pl_result : Planner.result;
  pl_chains : Payload.chain list;
      (* newest first; the roots search in order, so reversed it is
         root 0's chains, then root 1's, ... *)
  pl_vfaults : int;
  pl_vtimeouts : int;
  pl_vtime : float;
  pl_plan_time : float;
  pl_unknowns : int;                (* deltas over stages 3+4 *)
  pl_cache_hits : int;
  pl_cache_misses : int;
  pl_screen : int;
}

let stage_plan ?(planner_config = Planner.default_config) ?budget
    (a : analysis) (goal : Goal.t) : planned =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let concrete = Goal.concretize a.image goal in
  let u0 = Atomic.get Gp_smt.Solver.unknowns in
  let ch0, cm0 = cache_counters () in
  let sc0 = screen_counter () in
  (* Stages 3+4 run as a goal portfolio (Planner.search): accepted
     chains, fault and timeout tallies and validation seconds accumulate
     here across the roots. *)
  let chains = ref [] in
  let vfaults = ref 0 in
  let vtimeouts = ref 0 in
  let vtime = ref 0. in
  (* a completed plan only counts if its payload assembles, is a chain
     this root has not already emitted, and survives end-to-end
     execution in the emulator.  Validation happens HERE, inside the
     root's search — the accept gate needs the verdict. *)
  let accept_for _root =
    let seen = Hashtbl.create 16 in
    fun p ->
      match Payload.build_opt p concrete with
      | None -> false
      | Some c ->
        let k = Payload.chain_set_key c in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          let fuel = Budget.emu_fuel ~cap:1_000_000 budget in
          let t0 = Unix.gettimeofday () in
          let o = Payload.validate_run ~fuel a.image c in
          vtime := !vtime +. (Unix.gettimeofday () -. t0);
          match o with
          | o when Goal.satisfied concrete o ->
            chains := c :: !chains;
            true
          | Gp_emu.Machine.Fault _ ->
            incr vfaults;
            false
          | Gp_emu.Machine.Timeout ->
            (* budget starvation, not a broken chain; count it apart *)
            incr vtimeouts;
            false
          | _ -> false
        end
  in
  (* stage 3+4: portfolio search with validation inside each root *)
  let result, plan_time =
    match
      stage "plan" budget (fun () ->
          timed (fun () ->
              Planner.search ~config:planner_config ~accept_for ~budget
                a.pool concrete))
    with
    | Ok v -> v
    | Error _ ->
      ( { Planner.plans = []; expanded = 0; peak_queue = 0;
          inst_memo_hits = 0; cand_memo_hits = 0; rankings = 0;
          conditions = 0; discarded = 0;
          exhausted = false; budget_hit = true },
        0. )
  in
  { pl_analysis = a;
    pl_goal = concrete;
    pl_config = planner_config;
    pl_result = result;
    pl_chains = !chains;
    pl_vfaults = !vfaults;
    pl_vtimeouts = !vtimeouts;
    pl_vtime = !vtime;
    pl_plan_time = plan_time;
    pl_unknowns = Atomic.get Gp_smt.Solver.unknowns - u0;
    pl_cache_hits = fst (cache_counters ()) - ch0;
    pl_cache_misses = snd (cache_counters ()) - cm0;
    pl_screen = screen_counter () - sc0 }

(* Stage 4 proper: the deterministic post-processing that turns raw
   per-root search output into the final outcome.  Candidate VALIDATION
   already ran inside the stage-3 searches (the accept gate needs the
   verdicts; moving it would change results) — what remains here is the
   cross-root merge, global dedup, plan re-quota, and stats assembly.
   Pure: no solver, no emulator, no global counters. *)
let stage_finalize (p : planned) : outcome =
  let a = p.pl_analysis in
  let result = p.pl_result in
  (* Deterministic merge: the chains in root order, deduped across
     roots by chain_set_key (each root already deduped locally), then
     the global plan quota re-applied. *)
  let built = List.rev p.pl_chains in
  let validated =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun c ->
        let k = Payload.chain_set_key c in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      built
    |> List.filteri (fun i _ -> i < p.pl_config.Planner.max_plans)
  in
  { goal = p.pl_goal;
    chains = validated;
    rungs = [ Full ];
    stats =
      { extracted = a.raw_extracted;
        deduped = a.deduped;
        subsume_capped = a.subsume_capped;
        pool_size = Pool.size a.pool;
        plans_found = List.length result.Planner.plans;
        chains_built = List.length built;
        chains_validated = List.length validated;
        quarantined = a.quarantined;
        solver_unknowns = p.pl_unknowns;
        validate_faults = p.pl_vfaults;
        validate_timeouts = p.pl_vtimeouts;
        budget_hits =
          a.analysis_budget_hits
          @ (if result.Planner.budget_hit then [ "plan" ] else []);
        cache_hits = p.pl_cache_hits;
        cache_misses = p.pl_cache_misses;
        plan_expanded = result.Planner.expanded;
        plan_peak_queue = result.Planner.peak_queue;
        plan_inst_hits = result.Planner.inst_memo_hits;
        plan_cand_hits = result.Planner.cand_memo_hits;
        plan_discarded = result.Planner.discarded;
        screen_decided = p.pl_screen;
        summary_hits = a.analysis_summary_hits;
        summary_misses = a.analysis_summary_misses;
        decode_saved = a.analysis_decode_saved;
        extract_time = a.extract_time;
        subsume_time = a.subsume_time;
        plan_time = p.pl_plan_time;
        validate_time = p.pl_vtime } }

(* The temperature-invariant tallies of an outcome, by name:
   what the sweep's resume payloads and the daemon's replies carry, and
   what differential tests compare.  Cache and image memo hit
   counters are temperature and stay out. *)
let invariant_counters (o : outcome) =
  let st = o.stats in
  [ ("plans_found", st.plans_found);
    ("chains_built", st.chains_built);
    ("chains_validated", st.chains_validated);
    ("plan_expanded", st.plan_expanded);
    ("plan_peak_queue", st.plan_peak_queue);
    ("plan_inst_hits", st.plan_inst_hits);
    ("plan_cand_hits", st.plan_cand_hits);
    ("plan_discarded", st.plan_discarded);
    ("subsume_capped", st.subsume_capped);
    ("validate_faults", st.validate_faults);
    ("validate_timeouts", st.validate_timeouts) ]
  @ List.map (fun (l, n) -> ("q:" ^ l, n)) st.quarantined

let run_with_analysis ?planner_config ?budget (a : analysis)
    (goal : Goal.t) : outcome =
  stage_finalize (stage_plan ?planner_config ?budget a goal)

(* Loosen the planner config one rung at a time.  Degradation is
   cumulative: the last rung is also the widest. *)
let rung_planner_config (c : Planner.config) = function
  | Full | Dedup_only -> c
  | Wider_branch -> { c with Planner.branch_cap = c.Planner.branch_cap * 2 }
  | Relaxed_steps ->
    { c with
      Planner.branch_cap = c.Planner.branch_cap * 2;
      max_steps = c.Planner.max_steps + (c.Planner.max_steps / 2) }

(* The Dedup_only rung's analysis: the degraded stage 2 re-pools the
   raw harvest with exact duplicates removed and no bucket cap, so it
   restores the long gadgets the cap dropped — a superset of the Full
   pool, at the price of a bigger search space. *)
let dedup_analysis (a : analysis) (harvested : Gadget.t list) : analysis =
  let m = Subsume.dedup harvested in
  { a with
    gadgets = m;
    pool = Pool.build m;
    deduped = List.length m;
    subsume_capped = 0 }

(* ----- one plan request -----

   Stage 1, stage 2 (and the "mid-stage" crash point), then the
   degradation ladder.  Stages 1-2 run ONCE and every rung shares their
   result: the degraded rungs re-pool from the same gadget records (ids
   stay stable), and the dedup-only pool is built only if a degraded
   rung runs.  Each rung gets a 0.6 slice of whatever root time remains,
   so early rungs cannot starve later ones outright.  The ladder stops
   at the first rung with a chain, when the root budget is dry, or after
   the last rung. *)
let run ?(planner_config = Planner.default_config) ?budget ?ids
    (image : Gp_util.Image.t) (goal : Goal.t) : outcome =
  let root = match budget with Some b -> b | None -> Budget.unlimited () in
  let ex = stage_extract ~budget:root ?ids image in
  let a_full, harvested = stage_subsume ~budget:root ex in
  Gp_util.Store.crash_point "mid-stage";
  let degraded = lazy (dedup_analysis a_full harvested) in
  let rec climb tried rung rest =
    let a = if rung = Full then a_full else Lazy.force degraded in
    let o =
      run_with_analysis
        ~planner_config:(rung_planner_config planner_config rung)
        ~budget:(Budget.sub root ~label:(rung_name rung) ~fraction:0.6 ())
        a goal
    in
    let tried = rung :: tried in
    match rest with
    | next :: rest when o.chains = [] && not (Budget.exhausted root) ->
      climb tried next rest
    | _ -> { o with rungs = List.rev tried }
  in
  climb [] Full [ Dedup_only; Wider_branch; Relaxed_steps ]
