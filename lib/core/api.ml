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
         answered and job-count-invariant (same discipline as
         solver_unknowns) *)
  summary_hits : int;
  summary_misses : int;
      (* image memo traffic during the harvest (DESIGN.md §11): starts
         replayed from the memo vs starts symbolically executed.  Like
         the solver-memo counters, temperature-dependent — excluded
         from differential comparisons *)
  decode_saved : int;
      (* repeat decodes absorbed by the decode-once extraction memo *)
  store_loaded : int;
      (* entries imported from the on-disk store (0 when cold) *)
  store_stale : int;
      (* 1 when a store file was found but rejected (corrupt/stale) and
         the run was demoted to cold *)
  wal_replayed : int;
      (* entries recovered from the store's write-ahead journal *)
  wal_truncated : int;
      (* bytes dropped from a torn journal tail (crash mid-append) *)
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
  analysis_store_loaded : int;
  analysis_store_stale : int;
  analysis_wal_replayed : int;
  analysis_wal_truncated : int;
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

(* ----- on-disk incremental store (DESIGN.md §11) ----- *)

(* Open the store before stage 1.  Every failure mode demotes to a cold
   run: [Rejected] (corrupt bytes, stale versions) is quarantined under
   the "store" label and counted in [store_stale], never raised. *)
let store_open = function
  | None -> (0, 0, 0, 0, [])
  | Some _ when Incr.journaling () ->
    (* a corpus-runner journal is open: [Incr.journal_open] already
       merged base + WAL, and re-reading the files mid-run would race
       our own writer.  The runner carries the open's WAL counters. *)
    (0, 0, 0, 0, [])
  | Some dir -> (
    match Incr.load ~dir with
    | Incr.Loaded li ->
      (* WAL-recovered entries count toward the warm start; a torn tail
         is quarantined (the work it held is simply recomputed) *)
      let quar =
        if li.Incr.li_wal_truncated > 0 then
          [ (Fail.label (Fail.Wal_torn ""), 1) ]
        else []
      in
      ( li.Incr.li_entries + li.Incr.li_wal_replayed,
        0,
        li.Incr.li_wal_replayed,
        li.Incr.li_wal_truncated,
        quar )
    | Incr.Absent -> (0, 0, 0, 0, [])
    | Incr.Rejected why ->
      (0, 1, 0, 0, [ (Fail.label (Fail.Store_rejected why), 1) ]))

(* Persist the store after the run.  A write failure costs only the
   warm start of the NEXT run, so it too is a quarantine entry. *)
let store_save quarantined = function
  | None -> quarantined
  | Some _ when Incr.journaling () ->
    (* journal checkpoints own durability; a per-cell whole-store save
       would just duplicate the WAL's contents *)
    quarantined
  | Some dir -> (
    match Incr.save ~dir with
    | Ok () -> quarantined
    | Error why when Incr.save_locked why ->
      (* another writer (a resident daemon) holds the dir: demote to
         read-only — this run's results stand, only the warm start of
         the next cold run is lost *)
      Fail.merge_counts quarantined
        [ (Fail.label (Fail.Store_locked why), 1) ]
    | Error why ->
      Fail.merge_counts quarantined
        [ (Fail.label (Fail.Store_rejected why), 1) ])

(* ----- per-stage continuations (DESIGN.md §14) -----

   The four stages are also exposed one at a time, each returning the
   explicit intermediate state the next one consumes, so a corpus
   scheduler (Sched) can interleave stages of DIFFERENT cells on one
   domain pool.  [analyze], [run_with_analysis] and [steps] are
   compositions of these, so every path runs the same code. *)

type extracted = {
  ex_image : Gp_util.Image.t;
  ex_harvested : Gadget.t list;
  ex_hstats : Extract.harvest_stats;
  ex_extract_time : float;
  ex_store_loaded : int;
  ex_store_stale : int;
  ex_wal_replayed : int;
  ex_wal_truncated : int;
  ex_store_quar : (string * int) list;
}

let stage_extract ?(extract_config = Extract.default_config) ?cache_dir
    ?budget ?(jobs = 1) ?ids (image : Gp_util.Image.t) : extracted =
  let root = match budget with Some b -> b | None -> Budget.unlimited () in
  let store_loaded, store_stale, wal_replayed, wal_truncated, store_quar =
    store_open cache_dir
  in
  let (harvested, hstats), extract_time =
    match
      stage "extract" root (fun () ->
          timed (fun () ->
              Extract.harvest_r ~config:extract_config
                ~budget:(Budget.sub root ~label:"extract" ~fraction:0.6 ())
                ~jobs ?ids image))
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
    ex_extract_time = extract_time;
    ex_store_loaded = store_loaded;
    ex_store_stale = store_stale;
    ex_wal_replayed = wal_replayed;
    ex_wal_truncated = wal_truncated;
    ex_store_quar = store_quar }

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
      quarantined =
        Fail.merge_counts ex.ex_store_quar hstats.Extract.h_quarantined;
      analysis_budget_hits =
        (if hstats.Extract.h_budget_hit then [ "extract" ] else [])
        @ (if subsume_hit then [ "subsume" ] else []);
      analysis_summary_hits = hstats.Extract.h_summary_hits;
      analysis_summary_misses = hstats.Extract.h_summary_misses;
      analysis_suffix_hits = 0;
      analysis_suffix_misses = 0;
      analysis_substitutions = 0;
      analysis_decode_saved = hstats.Extract.h_decode_saved;
      analysis_store_loaded = ex.ex_store_loaded;
      analysis_store_stale = ex.ex_store_stale;
      analysis_wal_replayed = ex.ex_wal_replayed;
      analysis_wal_truncated = ex.ex_wal_truncated },
    harvested )

let analyze ?(extract_config = Extract.default_config) ?budget ?(jobs = 1)
    ?cache_dir ?ids (image : Gp_util.Image.t) : analysis =
  let ex = stage_extract ~extract_config ?cache_dir ?budget ~jobs ?ids image in
  let a, _ = stage_subsume ?budget ex in
  { a with quarantined = store_save a.quarantined cache_dir }

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
   and assemble the outcome — per-root chain lists still separate so
   the deterministic root-order merge happens in [stage_finalize]. *)
type planned = {
  pl_analysis : analysis;
  pl_goal : Goal.concrete;
  pl_config : Planner.config;
  pl_result : Planner.result;
  pl_chains_by_root : Payload.chain list array;  (* newest-first per root *)
  pl_vfaults : int;
  pl_vtimeouts : int;
  pl_vtime : float;
  pl_plan_time : float;
  pl_unknowns : int;                (* deltas over stages 3+4 *)
  pl_cache_hits : int;
  pl_cache_misses : int;
  pl_screen : int;
}

let stage_plan ?(planner_config = Planner.default_config)
    ?(validate = true) ?budget ?(jobs = 1) (a : analysis) (goal : Goal.t) :
    planned =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let concrete = Goal.concretize a.image goal in
  let u0 = Atomic.get Gp_smt.Solver.unknowns in
  let ch0, cm0 = cache_counters () in
  let sc0 = screen_counter () in
  (* Stages 3+4 run as a goal portfolio (Planner.search_par) at EVERY
     job count, so the result is job-count-independent by construction.
     Each portfolio root owns a result slot: accepted chains, fault and
     timeout tallies, validation seconds.  Workers only ever touch their
     own index, and the merge below is a pure fold in root order. *)
  let nroots =
    max 1
      (min planner_config.Planner.goal_cap
         (List.length a.pool.Pool.syscall_gadgets))
  in
  let chains_by_root = Array.make nroots [] in
  let vfaults = Array.make nroots 0 in
  let vtimeouts = Array.make nroots 0 in
  let vtime = Array.make nroots 0. in
  (* a completed plan only counts if its payload assembles, is a chain
     this root has not already emitted, and (when requested) survives
     end-to-end execution in the emulator.  Validation happens HERE,
     inside the worker — stage 4 rides the same domains as stage 3. *)
  let accept_for i =
    let seen = Hashtbl.create 16 in
    fun p ->
      match Payload.build_opt p concrete with
      | None -> false
      | Some c ->
        let k = Payload.chain_set_key c in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          if not validate then begin
            chains_by_root.(i) <- c :: chains_by_root.(i);
            true
          end
          else begin
            let fuel = Budget.emu_fuel ~cap:1_000_000 budget in
            let t0 = Unix.gettimeofday () in
            let o = Payload.validate_run ~fuel a.image c in
            vtime.(i) <- vtime.(i) +. (Unix.gettimeofday () -. t0);
            match o with
            | o when Goal.satisfied concrete o ->
              chains_by_root.(i) <- c :: chains_by_root.(i);
              true
            | Gp_emu.Machine.Fault _ ->
              vfaults.(i) <- vfaults.(i) + 1;
              false
            | Gp_emu.Machine.Timeout ->
              (* budget starvation, not a broken chain; count it apart *)
              vtimeouts.(i) <- vtimeouts.(i) + 1;
              false
            | _ -> false
          end
        end
  in
  (* stage 3+4: portfolio search with validation inside each worker *)
  let result, plan_time =
    match
      stage "plan" budget (fun () ->
          timed (fun () ->
              Planner.search_par ~config:planner_config ~accept_for ~budget
                ~jobs a.pool concrete))
    with
    | Ok v -> v
    | Error _ ->
      ( { Planner.plans = []; expanded = 0; peak_queue = 0;
          inst_memo_hits = 0; cand_memo_hits = 0; rankings = 0;
          conditions = 0; discarded = 0;
          exhausted = false; budget_hit = true },
        0. )
  in
  let sum_i arr = Array.fold_left ( + ) 0 arr in
  { pl_analysis = a;
    pl_goal = concrete;
    pl_config = planner_config;
    pl_result = result;
    pl_chains_by_root = chains_by_root;
    pl_vfaults = sum_i vfaults;
    pl_vtimeouts = sum_i vtimeouts;
    pl_vtime = Array.fold_left ( +. ) 0. vtime;
    pl_plan_time = plan_time;
    pl_unknowns = Atomic.get Gp_smt.Solver.unknowns - u0;
    pl_cache_hits = fst (cache_counters ()) - ch0;
    pl_cache_misses = snd (cache_counters ()) - cm0;
    pl_screen = screen_counter () - sc0 }

(* Stage 4 proper: the deterministic post-processing that turns raw
   per-root search output into the final outcome.  Candidate VALIDATION
   already ran inside the stage-3 workers (the accept gate needs the
   verdicts; moving it would change results) — what remains here is the
   cross-root merge, global dedup, plan re-quota, and stats assembly.
   Pure: no solver, no emulator, no global counters. *)
let stage_finalize (p : planned) : outcome =
  let a = p.pl_analysis in
  let result = p.pl_result in
  (* Deterministic merge: concatenate per-root chains in root order,
     dedupe across roots by chain_set_key (each root already deduped
     locally), then re-apply the global plan quota. *)
  let built =
    List.concat_map List.rev (Array.to_list p.pl_chains_by_root)
  in
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
        store_loaded = a.analysis_store_loaded;
        store_stale = a.analysis_store_stale;
        wal_replayed = a.analysis_wal_replayed;
        wal_truncated = a.analysis_wal_truncated;
        extract_time = a.extract_time;
        subsume_time = a.subsume_time;
        plan_time = p.pl_plan_time;
        validate_time = p.pl_vtime } }

(* The jobs- and temperature-invariant tallies of an outcome, by name:
   what the sweep's resume payloads and the daemon's replies carry, and
   what differential tests compare.  Cache and image memo hit
   counters are temperature and stay out, as do the store
   quarantine labels (a resident, resumed or warm run legitimately
   differs there). *)
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
  @ List.filter_map
      (fun (l, n) ->
        if l = "store" || l = "store-locked" || l = "wal-torn" then None
        else Some ("q:" ^ l, n))
      st.quarantined

let run_with_analysis ?planner_config ?validate ?budget ?jobs (a : analysis)
    (goal : Goal.t) : outcome =
  stage_finalize (stage_plan ?planner_config ?validate ?budget ?jobs a goal)

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

(* ----- one request as a step chain (DESIGN.md §14) ----- *)

type 'a step = Finished of 'a | Next of (unit -> 'a step)

let rec map_step f = function
  | Finished v -> Finished (f v)
  | Next k -> Next (fun () -> map_step f (k ()))

let rec finish = function Finished v -> v | Next k -> finish (k ())

(* The one assembly of a plan request: stage 1, then stage 2 (and the
   "mid-stage" crash point), then one degradation-ladder rung per step.
   [run] drives it inline; the daemon and the survey's cells drive it on
   the scheduler's pool, so all three degrade identically.  Stages 1-2
   run ONCE and every rung shares their result: the degraded rungs
   re-pool from the same gadget records (ids stay stable), and the
   dedup-only pool is built only if a degraded rung runs.  Each rung
   gets a 0.6 slice of whatever root time remains, so early rungs cannot
   starve later ones outright.  The ladder stops at the first rung with
   a chain, when the root budget is dry, or after the last rung. *)
let steps ?(extract_config = Extract.default_config)
    ?(planner_config = Planner.default_config) ?(validate = true) ?budget
    ?(jobs = 1) ?cache_dir ?ids (image : Gp_util.Image.t) (goal : Goal.t) :
    outcome step =
  let root = match budget with Some b -> b | None -> Budget.unlimited () in
  Next
    (fun () ->
      let ex =
        stage_extract ~extract_config ?cache_dir ~budget:root ~jobs ?ids image
      in
      Next
        (fun () ->
          let a_full, harvested = stage_subsume ~budget:root ex in
          Gp_util.Store.crash_point "mid-stage";
          let degraded = lazy (dedup_analysis a_full harvested) in
          let rec climb tried rung rest =
            Next
              (fun () ->
                let a = if rung = Full then a_full else Lazy.force degraded in
                let o =
                  run_with_analysis
                    ~planner_config:(rung_planner_config planner_config rung)
                    ~validate
                    ~budget:(Budget.sub root ~label:(rung_name rung)
                               ~fraction:0.6 ())
                    ~jobs a goal
                in
                let tried = tried @ [ rung ] in
                match rest with
                | next :: rest
                  when o.chains = [] && not (Budget.exhausted root) ->
                  climb tried next rest
                | _ ->
                  (* Persist the store last, so planner/validation solver
                     verdicts are captured alongside the image's
                     harvest. *)
                  Finished
                    { o with
                      rungs = tried;
                      stats =
                        { o.stats with
                          quarantined =
                            store_save o.stats.quarantined cache_dir } })
          in
          climb [] Full [ Dedup_only; Wider_branch; Relaxed_steps ]))

let run ?extract_config ?planner_config ?validate ?budget ?jobs ?cache_dir ?ids
    (image : Gp_util.Image.t) (goal : Goal.t) : outcome =
  finish
    (steps ?extract_config ?planner_config ?validate ?budget ?jobs ?cache_dir
       ?ids image goal)
