(** Subsumption testing (paper §IV-C).

    [g1] subsumes [g2] when [(pre2 -> pre1) ∧ (post1 = post2)] —
    formula (1): same observable effects under a pre-condition at least
    as weak, so [g2] adds nothing. *)

val semantic_hash : Gadget.t -> int64
(** Structural FNV-64 over the full semantics (post state, jump, writes,
    pre).  Equal semantics hash equally, because terms are canonicalized
    by construction; confirm collisions with {!semantic_equal}. *)

val semantic_equal : Gadget.t -> Gadget.t -> bool
(** Structural equality over the same components {!semantic_hash}
    covers ([Jfall] targets ignored, as always — every syscall summary
    is one class regardless of fall-through address). *)

val same_effects : Gadget.t -> Gadget.t -> bool
(** Equal post-conditions, jump behaviour, and memory effects
    (pre-conditions may differ). *)

val subsumes : Gadget.t -> Gadget.t -> bool
(** Formula (1): [subsumes g1 g2] — keep [g1], drop [g2]. *)

type stats = {
  input : int;
  after_dedup : int;      (** after exact-duplicate removal *)
  after_subsume : int;    (** final pool size *)
  timed_out : bool;       (** budget ran dry mid-pass *)
}

val minimize :
  ?max_bucket:int -> ?budget:Budget.t -> ?jobs:int -> Gadget.t list ->
  Gadget.t list * stats
(** Pool minimization: an exact-duplicate pass (unaligned sliding
    produces thousands of byte-identical summaries), then pairwise
    subsumption inside cheap signature buckets.  Shorter gadgets are
    preferred as survivors.

    Subsumption only shrinks the pool, so failure is never fatal: a
    solver blow-up on one pair keeps the gadget, and when [budget] runs
    dry the remaining gadgets pass through unexamined ([timed_out] set).
    The default unlimited budget reproduces seed behavior exactly.

    [jobs] > 1 probes buckets in parallel (each against a budget slice
    sharing the deadline); the work list and per-bucket survivor order
    are identical either way, so the minimized pool matches the
    sequential result element for element. *)
