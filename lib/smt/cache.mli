(** Solver verdict memoization (DESIGN.md "Parallel execution &
    determinism").

    Plan instantiation re-asks the solver structurally identical
    questions thousands of times; a verdict store keyed on the
    canonicalized formula list turns that repetition into hits.  Keys
    are compared and hashed structurally, so they must be pure data
    (pool keys, formula lists — no functions, no cyclic values).

    Correctness contract: the solver answers the canonical form itself,
    so a stored verdict is a pure function of the key — a cache hit can
    never change a verdict (the property suite checks this).  Safe to
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

val clear : ('k, 'v) t -> unit
(** Drop all entries, keeping the hit/miss counters. *)

val reset : ('k, 'v) t -> unit
(** Drop all entries and zero the counters. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** Look up the key; on a miss compute (outside the lock) and publish
    first-write-wins. *)

val export : ('k, 'v) t -> ('k * 'v) list
(** Snapshot the table (unspecified order — sort serialized entries for
    deterministic store bytes). *)

val import : ('k, 'v) t -> ('k * 'v) list -> unit
(** Merge entries, keeping existing bindings (first-write-wins).  Values
    are pure functions of their keys, so importing a store can never
    change a verdict, only skip recomputing it.  Counters untouched. *)

val canon : Formula.t list -> Formula.t list
(** Canonical form of a query: simplify every atom, then sort and dedup
    (a conjunction is a set).  Idempotent; permutations of the same
    query share a canonical form.  The canonical list itself, paired
    with the pool key, is the memo key of {!Solver.check}. *)
