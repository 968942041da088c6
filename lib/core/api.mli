(** High-level Gadget-Planner API: the four-stage pipeline of Fig. 3.

    {v
    image --(1) gadget extraction----> gadgets
          --(2) subsumption testing--> minimal pool
          --(3) partial-order planning-> plans
          --(4) post-processing + validation-> payloads
    v}

    {!run} executes all four stages and returns only chains whose
    payloads drive the emulator to the goal syscall.

    Resilience (DESIGN.md "Failure model & budgets"): stage boundaries
    are Result-typed over {!Fail}, per-gadget faults are quarantined and
    tallied into {!stage_stats}, an optional {!Budget.t} bounds the
    whole run, and on a zero-chain result {!run} retries down a
    degradation ladder, recording each {!rung} in the outcome.  With no
    budget and no fault injection, behavior is identical to the
    pre-resilience pipeline. *)

type stage_stats = {
  extracted : int;          (** summaries before minimization *)
  deduped : int;
      (** summaries left after exact-duplicate removal
          ({!Subsume.stats}[.after_dedup]); the dedup-only rung's pool
          size on that rung *)
  subsume_capped : int;
      (** gadgets stage 2 dropped because their signature bucket was over
          the cap ({!Subsume.stats}[.capped]); 0 on the dedup-only rung,
          whose pool skips the cap.  [deduped - subsume_capped =
          pool_size] on every rung. *)
  pool_size : int;
  plans_found : int;        (** accepted complete plans *)
  chains_built : int;
      (** always equal to [chains_validated]: the request's one accept
          gate already dedups and the planner applies the quota.  Kept
          only because bench/e2e reads it; drop it with the next change
          to the benchmark. *)
  chains_validated : int;
  quarantined : (string * int) list;
      (** {!Fail.label} -> count of items quarantined in stages 1-2 *)
  solver_unknowns : int;
      (** solver [Unknown] verdicts attributable to this run: every
          [Unknown] [Solver.check] answered during stages 3-4 (stages 1-2
          make no solver query) *)
  validate_faults : int;
      (** candidate chains whose payload crashed the machine *)
  validate_timeouts : int;
      (** candidate chains that ran out of emulator fuel — budget
          starvation, deliberately counted apart from faults *)
  budget_hits : string list;
      (** stages whose budget ran dry ("extract", "subsume", "plan") *)
  cache_hits : int;
  cache_misses : int;
      (** solver memo traffic ({!Gp_smt.Solver.pool_memo}) during
          stages 3-4.  Hit rate is a property of cache temperature,
          never of verdicts — reported, but excluded from differential
          comparisons. *)
  plan_expanded : int;
      (** planner nodes expanded (summed over portfolio roots) *)
  plan_peak_queue : int;
      (** high-water mark of the planner queue (max over roots) *)
  plan_inst_hits : int;
      (** candidate rankings a portfolio root took from the request's
          shared table instead of computing them
          ({!Planner.result}[.inst_memo_hits]) *)
  plan_cand_hits : int;    (** planner ranked-candidate-memo hits *)
  plan_discarded : int;
      (** complete plans rejected by the accept gate (duplicate chain,
          unbuildable payload, failed validation) *)
  summary_hits : int;
  summary_misses : int;
      (** image memo traffic during the harvest (DESIGN.md §11):
          [summary_hits] counts starts replayed from a stored harvest of
          the same image (every start that passed the prefilter, on a
          hit), [summary_misses] starts symbolically executed (0 on a
          hit).  The names predate the image memo, when they counted
          per-start summary-table lookups.  Temperature-dependent, like the
          solver-memo counters — reported but excluded from
          differential comparisons. *)
  decode_saved : int;
      (** repeat decodes absorbed by the decode-once extraction memo *)
  extract_time : float;
  subsume_time : float;
  plan_time : float;
  validate_time : float;
      (** seconds inside [Payload.validate_run] — included in
          [plan_time] (validation runs inside the search's accept
          gate), broken out so stage 4 is observable on its own *)
}

(** Stages 1–2, reusable across goals and planner configurations. *)
type analysis = {
  image : Gp_util.Image.t;
  gadgets : Gadget.t list;      (** the stage-2 pool *)
  pool : Pool.t;
  raw_extracted : int;
  deduped : int;                       (** {!Subsume.stats}[.after_dedup] *)
  subsume_capped : int;                (** {!Subsume.stats}[.capped] *)
  extract_time : float;
  subsume_time : float;
  quarantined : (string * int) list;   (** harvest quarantine ledger *)
  analysis_budget_hits : string list;  (** of stages 1-2 *)
  analysis_summary_hits : int;
      (** starts replayed from the image memo (stage 1; see
          [summary_hits]) *)
  analysis_summary_misses : int;       (** starts symbolically executed *)
  analysis_suffix_hits : int;
      (** Always 0: the suffix-compositional summarizer is gone
          (DESIGN.md §16).  Kept only because bench/e2e reads it; drop
          it with the next change to the benchmark. *)
  analysis_suffix_misses : int;
      (** Always 0; kept because bench/e2e reads it (see above). *)
  analysis_substitutions : int;
      (** Always 0; kept because bench/e2e reads it (see above). *)
  analysis_decode_saved : int;         (** decode-once memo savings *)
}

val timed : (unit -> 'a) -> 'a * float

(** {1 The stages, one at a time}

    Each stage returns the explicit intermediate state the next
    consumes.  {!analyze}, {!run_with_analysis} and {!run} are
    compositions of these, so every path runs the same code.

    {!stage_plan}'s solver counters ([solver_unknowns], solver-memo
    traffic) are deltas of process-wide counters, so a concurrent
    request's stage 3 can land in another request's deltas.  Stages 1-2
    make no solver query and take no such snapshot.  Every such counter
    is temperature-class and excluded from the differential payload. *)

type extracted
(** Stage-1 output: the raw harvest and its meters, consumed by
    {!stage_subsume}. *)

type planned
(** Stage-3 output: the search result and its validated chains,
    awaiting stats assembly in {!stage_finalize}. *)

val stage_extract :
  ?budget:Budget.t -> ?ids:Gadget.id_source -> Gp_util.Image.t ->
  extracted
(** Stage 1 alone.  [budget] is the ROOT pipeline budget: the harvest
    draws its usual 0.6-fraction slice from it, so passing the same
    root to {!stage_subsume} reproduces {!analyze} exactly.  [ids] is
    where gadget ids are drawn (default: the process-global sequence);
    concurrently running cells each pass [Gadget.local_ids ()]. *)

val stage_subsume : ?budget:Budget.t -> extracted -> analysis * Gadget.t list
(** Stage 2 alone: minimize the harvested pool ({!Subsume.minimize}) and
    assemble the {!analysis}.  When the root [budget] is already dry at
    stage entry, the harvest passes through as the pool and ["subsume"]
    is recorded in [analysis_budget_hits].  Also returns the raw harvest
    for the degradation ladder's dedup-only re-pool. *)

val analyze :
  ?budget:Budget.t -> ?ids:Gadget.id_source -> Gp_util.Image.t ->
  analysis
(** Stages 1–2.  [budget] bounds both stages (extract gets a 0.6
    slice); exhaustion degrades — a partial harvest, or the harvest
    passed through as the pool — and is recorded, never raised.
    Runs on the calling domain.  When the image memo (DESIGN.md §11)
    already holds this image, stage 1 replays the stored harvest; the
    analysis is bit-identical either way. *)

(** {1 Degradation ladder}

    When a run yields zero validated chains, {!run} retries with
    progressively looser configurations.  Each rung is recorded so
    experiments can report {e how} a result was obtained. *)

type rung =
  | Full           (** the normal pipeline *)
  | Dedup_only     (** stage 2 degraded to exact-duplicate removal *)
  | Wider_branch   (** dedup-only pool + doubled planner [branch_cap] *)
  | Relaxed_steps  (** previous + relaxed plan-size cap *)

val rung_name : rung -> string

val rung_planner_config : Planner.config -> rung -> Planner.config
(** Loosen the planner config for a ladder rung (cumulative: the last
    rung is also the widest).  {!run} applies it; exposed for
    callers that time the ladder stage by stage (bench/e2e). *)

val dedup_analysis : analysis -> Gadget.t list -> analysis
(** The [Dedup_only] rung's analysis: re-pool the raw harvest (the
    second component {!stage_subsume} returns) with {!Subsume.dedup}
    alone — the Full pool plus the gadgets the bucket cap dropped.
    {!run} builds it lazily; exposed for the same reason as
    {!rung_planner_config}. *)

type outcome = {
  goal : Goal.concrete;
  chains : Payload.chain list;   (** validated only *)
  stats : stage_stats;           (** of the final rung attempted *)
  rungs : rung list;             (** ladder rungs attempted, in order *)
}

val invariant_counters : outcome -> (string * int) list
(** The temperature-invariant tallies of an outcome, by name
    (planner and validation counters and the quarantine ledger).  The
    one list the sweep's resume payloads, the daemon's replies and the
    differential tests share. *)

val stage_plan :
  ?planner_config:Planner.config -> ?budget:Budget.t ->
  analysis -> Goal.t -> planned
(** Stage 3 alone, with candidate validation riding inside the search:
    one accept gate for every root builds each payload, refuses a
    gadget set any root already emitted, and validates the rest in the
    emulator.  The search stops when [max_plans] chains pass. *)

val stage_finalize : planned -> outcome
(** Stage 4 proper: the validated chains in root order, plus stats
    assembly.  Pure — no solver, no emulator, no global counters — so
    it can run on any domain. *)

val run_with_analysis :
  ?planner_config:Planner.config ->
  ?budget:Budget.t ->
  analysis ->
  Goal.t ->
  outcome
(** Stages 3–4 over a prepared analysis (a single ladder rung; [rungs]
    is always [[Full]] here).  Runs the goal-portfolio search
    ({!Planner.search}): one search per root syscall gadget, in root
    order, behind one accept gate that dedups by gadget set and
    validates payloads, until [max_plans] chains pass or the roots run
    out.  Every chain is confirmed by concrete execution before being
    counted; validation fuel is derived from the remaining budget.  No
    exception escapes: budget death yields an outcome with the hit
    recorded. *)

val run :
  ?planner_config:Planner.config ->
  ?budget:Budget.t ->
  ?ids:Gadget.id_source ->
  Gp_util.Image.t ->
  Goal.t ->
  outcome
(** The one assembly of a plan request, which the CLI, the analysis
    daemon and the survey's cells all run: stage 1; then stage 2, after
    which the ["mid-stage"] crash point fires
    ({!Gp_util.Store.crash_point}; the only other point is
    ["wal-append"], at each record the runner's manifest appends); then
    the degradation ladder Full → Dedup_only → Wider_branch →
    Relaxed_steps.  Each rung plans over its pool ([Full]: the stage-2
    pool; later rungs: {!dedup_analysis}, built once) with
    {!rung_planner_config} and a 0.6 slice of the root budget's
    remaining time.  The ladder stops at the first rung with a chain,
    when the root budget is dry, or after [Relaxed_steps].  A request is
    a sequential computation on the calling domain; concurrency lives
    across requests ([Gp_harness.Sched]).  The outcome (pool, plans,
    chains, tallies) is the same whether the image memo and solver memo
    are warm or cold (DESIGN.md §11). *)
