(** Constraint solver for gadget chaining.

    Replaces Z3 for the fragment that actually arises (DESIGN.md §2):
    conjunctions of equalities over 64-bit linear terms (decided exactly
    by Gaussian elimination over Z/2{^64}), POINTER atoms (discharged by
    pinning free pointer variables into controlled memory — including
    through power-of-two coefficients, the [table + 8*index] jump-table
    pattern), and a randomized/special-value model search for the rest.

    Soundness contract: [Unsat] is only reported when the linear core is
    provably inconsistent with no pinning choices involved; [Sat] always
    carries a model re-checked against every atom.  The incomplete answer
    is [Unknown]. *)

module Smap : Map.S with type key = string

type model = int64 Smap.t

val model_fn : model -> string -> int64
(** Valuation function of a model; unmapped variables read as 0. *)

type result = Sat of model | Unsat | Unknown

(** Pointer-atom discharge pool: [pins] are candidate addresses a free
    pointer variable may be bound to; [readable]/[writable] are the
    (wider) predicates any concrete address must satisfy. *)
type pointer_pool = {
  pins : int64 list;
  readable : int64 -> bool;
  writable : int64 -> bool;
}

val default_pool : pointer_pool
(** Points into the emulator's scratch region. *)

val inv64 : int64 -> int64
(** Inverse of an odd number mod 2{^64} (Newton iteration); raises
    [Invalid_argument] on even input. *)

val chaos_unknown : (Formula.t list -> bool) ref
(** Fault-injection hook: when the predicate answers true for a query,
    {!check} abandons it as [Unknown] before any reasoning — and before
    the memo cache, so injected verdicts are never cached.  The
    predicate receives the raw formula list, letting the harness key
    the decision on the query itself (order-independent under
    parallelism).  [Unknown] is always sound, so injection can only
    degrade results, never corrupt them.  Installed/removed by the
    harness ([Gp_harness.Faultsim]); defaults to never firing. *)

val unknowns : int Atomic.t
(** Running count of [Unknown] verdicts, injected or genuine — counted
    per query ANSWERED (memo hits included), so the tally depends only
    on the query sequence, not on cache temperature.  Atomic because
    worker domains answer queries concurrently.  The pipeline snapshots
    it around each stage to attribute solver indecision in its stats. *)

(** {1 Screening front-end (DESIGN.md §12)}

    Three cheap tiers in front of the solver proper: abstract screening
    over {!Absdom} (Tier A), concrete refutation under a fixed vector
    of adversarial valuations (Tier B), and shared-prefix reuse of the
    Gaussian-elimination fold plus residual-search outcomes (Tier C).  Every tier only short-circuits
    a query when the verdict it returns is the one the fall-through
    path would produce at the consuming call site, so results are
    bit-identical with screening on or off at any job count.  Counters
    are bumped per query answered, before any memo lookup — the same
    discipline as {!unknowns} — so the tallies depend only on the query
    sequence (the exception is {!screen_stats}' [elim_reused], which
    like cache hit counts depends on cache temperature). *)

type point = Fill of int64 | Mix of int64
(** A Tier B valuation: [Fill c] assigns [c] to every variable, [Mix s]
    a deterministic pseudo-random value per variable name. *)

val screen_points : point array
(** The fixed Tier B valuations.  Points 0 and 1 are the all-zeros and
    all-ones assignments, the real prover's first two trials. *)

val point_model : point -> string -> int64
(** The concrete model a screen point induces. *)

val screen_enabled : unit -> bool

val set_screen_enabled : bool -> unit
(** Ablation toggle for the [screen] experiment and the screening
    differential suite, mirroring {!Term.set_memo_enabled}: disabling
    restores the seed's uncached, unscreened behavior exactly. *)

val screen_stats : unit -> int * int * int * int
(** [(screen_refuted, screen_decided, concrete_refuted, elim_reused)]:
    Tier A [prove_equal] refutations, Tier A decided [check]/[entails]
    queries, Tier B concrete refutations, and Tier C queries that
    reused at least one memoized elimination step or a memoized
    residual-search outcome. *)

val reset_screen : unit -> unit
(** Clear the elimination trie, the residual-search memo, the
    abstract-value memo, and the four screening counters (benchmarks'
    cold-path resets). *)

val memo : (Formula.t list, result) Cache.t
(** Memo store for {!check} verdicts on default-environment queries
    (no caller rng/pool/trial overrides), keyed on the canonicalized
    conjunction.  Exposed for cache statistics and for benchmarks that
    need cold-cache timings ({!Cache.reset}/{!Cache.set_enabled}). *)

val equal_memo : (Term.t * Term.t, bool) Cache.t
(** Memo store for {!prove_equal} on default-environment queries, keyed
    on the (structurally ordered) simplified term pair. *)

val pool_memo : ((int64 * int) * Formula.t list, result) Cache.t
(** Memo store for {!check} queries against caller-keyed pointer pools
    (see the [pool_key] argument of {!check}); keyed on
    [(pool_key, canonicalized conjunction)]. *)

val check :
  ?rng:Gp_util.Rng.t ->
  ?pool:pointer_pool ->
  ?pool_key:int64 * int ->
  ?max_trials:int ->
  Formula.t list ->
  result
(** Satisfiability of the conjunction.  The model prefers zeros for
    otherwise-unconstrained variables (keeping payloads and register
    demands simple).

    [pool_key] is the caller's promise that the supplied [pool] is a
    pure function of that key (e.g. {!Gp_core.Layout.pool_key}): when
    given — and no rng/trial override is in play — the verdict is
    memoized in {!pool_memo} under [(pool_key, canonical formulas)].
    Pools carry closures the solver cannot key on itself, which is why
    the key comes from outside. *)

(** {1 Memo persistence}

    The three memos above are the caches whose keys are pure structural
    data, so they can round-trip through the on-disk store
    ({!Gp_util.Store}, DESIGN.md §11).  A stored verdict is a pure
    function of its canonical key, so importing can only skip solves,
    never change one. *)

val memo_section_names : string list
(** Store-section names owned by this module. *)

val memo_count : unit -> int
(** Total entries across the check/equal/pool memos.  O(1); memos are
    add-only within a run, so an unchanged count means no delta to
    export — checkpointing uses this to skip the serializing scan. *)

val export_memos : unit -> Gp_util.Store.section list
(** Serialize the check/equal/pool memos, entries sorted by serialized
    key (deterministic file bytes). *)

val import_memos : Gp_util.Store.section list -> int
(** Pre-seed the memos from store sections (unknown section names are
    ignored, existing entries win); returns the number of entries
    consumed.  Raises [Gp_util.Store.Bin.Truncated] on malformed entry
    bytes — unreachable for files that passed the store's checksums, and
    callers demote it to a cold run regardless. *)

val put_result : Term.Ser.writer -> Buffer.t -> result -> unit
val get_result : Term.Ser.reader -> string -> int ref -> result
(** Verdict (de)serialization, exposed for the property tests. *)

val entails : ?rng:Gp_util.Rng.t -> ?pool:pointer_pool -> Formula.t list -> Formula.t -> bool
(** [entails hyps concl]: true only when [hyps ∧ ¬concl] is provably
    unsat.  [Unknown] counts as "not entailed" — conservative for
    subsumption, which then merely keeps more gadgets. *)

val prove_equal : ?rng:Gp_util.Rng.t -> ?trials:int -> Term.t -> Term.t -> bool
(** Probabilistic semantic equality: canonical forms equal, or no
    counterexample in [trials] random evaluations.  Unsoundness here only
    costs pool diversity and is caught downstream by emulator validation
    of payloads. *)
