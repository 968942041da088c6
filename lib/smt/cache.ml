(* Solver memoization (DESIGN.md "Concurrency & determinism").

   Plan instantiation re-asks the solver structurally identical
   questions thousands of times: the same gadget is tried against the
   same condition along different branches, and queries that differ
   only in the equalities the eliminator absorbs leave the same open
   residual.  The solver's one memo ([Solver.pool_memo]) keys the model
   search's outcome on that residual and turns the repetition into
   hits.

   Keys are pure data (pool keys, formula lists, variable names),
   hashed by [Hashtbl.hash] and compared by [compare].  Both stay cheap
   on the canonical formulas the memo is keyed on: their interior term
   nodes carry a structural hash as their key ([Term]), which
   [Hashtbl.hash]'s bounded walk reads near the top of the key, and
   canonical terms are hash-consed, so [compare] stops at the first
   shared node instead of walking the term.  An earlier string-keyed
   version spent more time printing keys than the average solve costs
   — the hit path must stay far cheaper than a solve or the cache cannot
   pay for itself.

   Correctness contract: a stored value is a pure function of the key.
   Whichever domain computes an entry first, every later lookup — from
   any domain, under any job count — receives exactly the value a fresh
   compute would have produced.  A cache hit can therefore never change
   a verdict; the property suite checks this.

   Thread safety: the table is SHARDED by key hash — 16 independent
   hashtables, each behind its own mutex, the shard picked by the top
   four bits of the 30-bit [Hashtbl.hash] (the low bits pick the bucket
   inside the shard) — so resident-daemon workers
   hammering the memo from many domains contend only when their keys
   collide on a shard, not on one global lock (DESIGN.md §15).
   Computation runs OUTSIDE the shard lock so a slow solve never
   serializes the other domains.  Two domains racing on the same fresh
   key may both compute it — both arrive at the same value, so
   first-write-wins is harmless.  Sharding is invisible in the API:
   first-write-wins, size/reset and the hit/miss counters behave
   exactly like the old single-lock table (the serve suite holds a
   reference implementation against it).  Hit/miss counters are
   process-wide atomics, surfaced through [Api.stage_stats]. *)

let shard_count = 16

type ('k, 'v) shard = {
  s_tbl : ('k, 'v) Hashtbl.t;
  s_lock : Mutex.t;
}

type ('k, 'v) t = {
  shards : ('k, 'v) shard array;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let create ?(size = 4096) () =
  { shards =
      Array.init shard_count (fun _ ->
          { s_tbl = Hashtbl.create (max 16 (size / shard_count));
            s_lock = Mutex.create () });
    hits = Atomic.make 0;
    misses = Atomic.make 0 }

(* [Hashtbl.hash] is deterministic on immutable data, so a key's shard
   is a pure function of its structure.  The shard comes from the TOP
   four bits of the 30-bit hash: each shard's [Hashtbl] picks its bucket
   from the low bits of that same hash, so taking the shard from the low
   bits too would leave every key of shard k with hash = k (mod 16),
   crowding a shard's keys into 1/16 of its buckets. *)
let shard_of c key = c.shards.((Hashtbl.hash key lsr 26) land (shard_count - 1))

let max_chain c =
  Array.fold_left
    (fun acc s ->
      max acc
        (Mutex.protect s.s_lock (fun () -> (Hashtbl.stats s.s_tbl).max_bucket_length)))
    0 c.shards

let hits c = Atomic.get c.hits
let misses c = Atomic.get c.misses

let length c =
  Array.fold_left
    (fun acc s -> acc + Mutex.protect s.s_lock (fun () -> Hashtbl.length s.s_tbl))
    0 c.shards

let reset c =
  Array.iter
    (fun s -> Mutex.protect s.s_lock (fun () -> Hashtbl.reset s.s_tbl))
    c.shards;
  Atomic.set c.hits 0;
  Atomic.set c.misses 0

(* Look up [key]; on a miss compute [f ()] (outside the lock) and
   publish it. *)
let find_or_add (c : ('k, 'v) t) (key : 'k) (f : unit -> 'v) : 'v =
  let s = shard_of c key in
  match Mutex.protect s.s_lock (fun () -> Hashtbl.find_opt s.s_tbl key) with
  | Some v ->
    Atomic.incr c.hits;
    v
  | None ->
    Atomic.incr c.misses;
    let v = f () in
    Mutex.protect s.s_lock (fun () ->
        if not (Hashtbl.mem s.s_tbl key) then Hashtbl.add s.s_tbl key v);
    v

(* ----- canonical queries ----- *)

(* Canonical form of a query: simplify every atom, then sort (and
   dedup — a conjunction is a set).  Simplification is idempotent and
   sorting is order-insensitive, so canonicalization is idempotent and
   permutations of the same query reduce alike; the property suite
   checks both.  [Solver.check] reduces the canonical form, so a query's
   verdict and model never depend on its conjunct order. *)
let canon (fs : Formula.t list) : Formula.t list =
  List.sort_uniq compare (List.map Formula.simplify fs)
