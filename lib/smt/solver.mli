(** Constraint solver for gadget chaining.

    Replaces Z3 for the fragment that actually arises (DESIGN.md §2):
    conjunctions of equalities over 64-bit linear terms (decided exactly
    by Gaussian elimination over Z/2{^64}), POINTER atoms (discharged by
    pinning free pointer variables into controlled memory — including
    through power-of-two coefficients, the [table + 8*index] jump-table
    pattern), and for the rest a bounded model search: the all-zeros
    assignment, then a fixed table of trial assignments (random and
    special values, shared by every query with as many free
    variables), judged by the residual atoms compiled over an
    [int64 array].

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
    predicate receives the raw formula list, letting the harness key the
    decision on the query itself (order-independent under parallelism).
    [Unknown] is always sound, so injection can only degrade results,
    never corrupt them.  Installed/removed by the harness
    ([Gp_harness.Faultsim]); defaults to never firing. *)

val unknowns : int Atomic.t
(** Running count of [Unknown] verdicts {!check} answered, injected or
    genuine.  Counted per query ANSWERED (memo hits included), so the tally
    depends only on the query sequence, not on cache temperature.
    Atomic because worker domains answer queries concurrently.  The
    pipeline snapshots it around each stage to attribute solver
    indecision in its stats. *)

(** {1 The trial table}

    After the all-zeros assignment, the model search tries a fixed
    sequence of [200] assignments, the same for every query with the
    same number of free variables. *)

val trial_table : int -> int64 array
(** [trial_table n]: a fresh copy of the trial table for [n] free
    variables, [200 * n] values in trial-major order: element [k*n + i]
    is the value trial [k] gives the [i]-th free variable (in name
    order).  They are the values [Gp_util.Rng.create 0x5eed] yields
    when, trial by trial and variable by variable, an [int 4] draw of 0
    picks a special value by an [int 10] draw and any other draw takes
    one [next_int64].  The search itself reads a table shared
    read-only across domains (built at module initialization for up to
    16 free variables; a search over more builds its own). *)

(** {1 Screening front-end (DESIGN.md §12)}

    Two cheap tiers in front of {!check}'s solver proper: abstract
    screening over {!Absdom} (Tier A), and a memo of residual-search
    outcomes for pool-keyed queries (Tier C).  Each tier only
    short-circuits a query when the verdict it returns is the one the
    fall-through path would produce at the consuming call site, so
    results are bit-identical whichever tables are warm, at any job
    count.  [screen_decided] is bumped per query answered, before any
    memo lookup — the same discipline as {!unknowns} — so it depends
    only on the query sequence; [elim_reused], like cache hit counts,
    depends on cache temperature. *)

val screen_stats : unit -> int * int * int * int
(** [(0, screen_decided, 0, elim_reused)]: Tier A decided {!check}
    queries, and Tier C residual-memo hits.  The first and third slots
    (the deleted [prove_equal] and concrete-refutation tiers) always
    read 0; the shape, and the name [elim_reused], are kept for
    bench/e2e — delete in the benchmark PR. *)

val reset_screen : unit -> unit
(** Clear the calling domain's residual-search memo, the abstract-value
    memo, and the screening counters (benchmarks' cold-path resets). *)

val pool_memo : ((int64 * int) * Formula.t list, result) Cache.t
(** Memo store for {!check} queries against caller-keyed pointer pools
    (see the [pool_key] argument of {!check}); keyed on
    [(pool_key, canonicalized conjunction)]. *)

val memo : (Formula.t list, result) Cache.t
(** Never written: {!check} memoizes only keyed queries, in
    {!pool_memo}.  Kept for bench/e2e, which reads its counters; delete
    in the benchmark PR. *)

val equal_memo : (Term.t * Term.t, bool) Cache.t
(** Never written: term equality is {!Term.equal}, never a solver
    query.  Kept for bench/e2e; delete in the benchmark PR. *)

val check :
  ?pool:pointer_pool -> ?pool_key:int64 * int -> Formula.t list -> result
(** Satisfiability of the conjunction: the reduction (simplification,
    Gaussian elimination, pointer pinning), then the model search over
    what remains — the all-zeros assignment, then the rows of the trial
    table (see {!trial_table}) in order, each judged by the residual
    atoms compiled once per search; the first row that passes and
    survives a re-check against every atom is the model.  The model
    prefers zeros for otherwise-unconstrained variables (keeping
    payloads and register demands simple).

    [pool_key] is the caller's promise that the supplied [pool] is a
    pure function of that key (e.g. {!Gp_core.Layout.pool_key}): when
    given, the verdict is memoized in {!pool_memo} under
    [(pool_key, canonical formulas)].  Pools carry closures the solver
    cannot key on itself, which is why the key comes from outside. *)

(** {1 Memo persistence}

    {!pool_memo}'s keys are pure structural data, so it can round-trip
    through the on-disk store ({!Gp_util.Store}, DESIGN.md §11) as the
    ["solver.pool"] section.  A stored verdict is a pure function of its
    canonical key, so importing can only skip solves, never change
    one. *)

val memo_count : unit -> int
(** Entries in {!pool_memo}.  O(1); the memo is add-only within a run,
    so an unchanged count means no delta to export — checkpointing uses
    this to skip the serializing scan. *)

val export_memos : unit -> Gp_util.Store.section list
(** Serialize {!pool_memo} as the one ["solver.pool"] section, entries
    sorted by serialized key (deterministic file bytes). *)

val import_memos : Gp_util.Store.section list -> int
(** Pre-seed {!pool_memo} from a ["solver.pool"] section (other section
    names are ignored, existing entries win); returns the number of
    entries consumed.  Raises [Gp_util.Store.Bin.Truncated] on malformed
    entry bytes — unreachable for files that passed the store's
    checksums, and callers demote it to a cold run regardless. *)
