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

(** {1 The solver memo (DESIGN.md §12)}

    The one tier in front of {!check}'s model search: the outcomes of
    residual searches for pool-keyed queries ({!pool_memo}).  A hit
    answers what the fall-through search would, so results are
    bit-identical whichever tables are warm, at any job count.  The
    memo's hit count depends on cache temperature. *)

type search_outcome =
  | No_assignment  (** no trial passed: the query answers [Unknown] *)
  | Found of int64 Smap.t
      (** the first passing assignment of the free variables *)
(** Outcome of the model search over an open residual. *)

val pool_memo :
  ((int64 * int) * Formula.t list * string list, search_outcome) Cache.t
(** The one solver memo, shared by every domain: model-search outcomes
    of pool-keyed {!check} queries, keyed on [(pool_key, open residual,
    free variables)] — the atoms left after the reduction substituted
    every bound variable away, and the variables they range over in
    name order.  The search tries a fixed table, so its outcome is a
    pure function of that key.  A [Found] hit is replayed through the
    query's own substitution and re-checked against the query's own
    formulas, falling back to a fresh search if that check fails, so a
    hit answers exactly what a fresh search does. *)

val screen_stats : unit -> int * int * int * int
(** [(0, 0, 0, memo hits)]: {!pool_memo}'s hits.  The first three
    slots (the deleted [prove_equal], abstract and concrete-refutation
    tiers) always read 0; the shape is kept for bench/e2e — delete in
    the benchmark PR. *)

val memo : (Formula.t list, result) Cache.t
(** Never written: {!check} memoizes only keyed searches, in
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
    given, the model search's outcome is memoized in {!pool_memo}.
    Pools carry closures the solver cannot key on itself, which is why
    the key comes from outside. *)

val memo_count : unit -> int
(** Entries in {!pool_memo}. *)
