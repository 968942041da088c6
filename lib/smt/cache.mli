(** Solver verdict memoization (DESIGN.md "Parallel execution &
    determinism").

    Plan instantiation re-asks the solver structurally identical
    questions thousands of times; the solver's memo of model-search
    outcomes ({!Solver.pool_memo}) turns that repetition into hits.
    Keys are compared and hashed structurally, so they must be pure
    data (pool keys, formula lists, names — no functions, no cyclic
    values).

    Correctness contract: a stored value is a pure function of the key
    — a cache hit can never change a verdict (the property suite checks
    this).  Safe to
    share across domains: the table is sharded by key hash behind
    per-shard mutexes (DESIGN.md §15), computation runs outside the
    lock, and a race on a fresh key at worst computes the same value
    twice.  Sharding is invisible here — first-write-wins, size/reset
    and the counters behave exactly like a single-lock table. *)

type ('k, 'v) t

val create : ?size:int -> unit -> ('k, 'v) t

val hits : ('k, 'v) t -> int

val misses : ('k, 'v) t -> int

val length : ('k, 'v) t -> int

val max_chain : ('k, 'v) t -> int
(** Longest bucket chain over all shards (diagnostic: keys should spread
    over each shard's buckets, not pile into a few). *)

val reset : ('k, 'v) t -> unit
(** Drop all entries and zero the counters. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** Look up the key; on a miss compute (outside the lock) and publish
    first-write-wins. *)

val canon : Formula.t list -> Formula.t list
(** Canonical form of a query: simplify every atom, then sort and dedup
    (a conjunction is a set).  Idempotent; permutations of the same
    query share a canonical form.  {!Solver.check} reduces the canonical
    form, so a verdict never depends on conjunct order; the memo key is
    built after that reduction, not from this list. *)
