(** Stage 2: pool minimization (paper §IV-C).

    The paper's formula (1) drops [g2] when [(pre2 -> pre1) ∧ (post1 =
    post2)] for some kept [g1].  Here stage 2 is exact semantic dedup
    followed by a per-bucket size cap; no pairwise formula-(1) pass is
    run (DESIGN.md §5). *)

val semantic_hash : Gadget.t -> int64
(** Structural FNV-64 over the full semantics (post state, jump, writes,
    pre).  Equal semantics hash equally, because terms are canonicalized
    by construction; confirm collisions with {!semantic_equal}. *)

val semantic_equal : Gadget.t -> Gadget.t -> bool
(** Structural equality over the same components {!semantic_hash}
    covers ([Jfall] targets ignored, as always — every syscall summary
    is one class regardless of fall-through address). *)

val dedup : Gadget.t list -> Gadget.t list
(** Exact-duplicate removal: the first gadget of each {!semantic_equal}
    class, in input order.  Alone, it is the pool of the degradation
    ladder's dedup-only rung. *)

type stats = {
  input : int;
  after_dedup : int;      (** after exact-duplicate removal *)
  capped : int;
      (** gadgets dropped because their signature bucket held more than
          64: each bucket keeps its 64 shortest.  The pool size is
          [after_dedup - capped]. *)
}

val minimize : Gadget.t list -> Gadget.t list * stats
(** {!dedup}, then the bucket cap: gadgets are grouped by a cheap
    signature (jump kind, stack delta, clobber set, precondition count,
    syscall or not), and a bucket larger than 64 keeps only its 64
    shortest gadgets.  Deterministic: the same input
    list gives the same pool, element for element. *)
