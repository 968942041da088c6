(** Deterministic splitmix64 pseudo-random generator.

    Every randomized component (obfuscation passes, solver model search,
    planner tie-breaking) takes an explicit generator, so a whole
    experiment is reproducible from one seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a generator; equal seeds give equal streams. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). Raises
    [Invalid_argument] if [bound <= 0]. *)

val bool : t -> bool
(** Fair coin. *)

val flip : t -> float -> bool
(** [flip t p] is true with probability ~[p]. *)

val choose : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a list -> 'a list
(** Fisher–Yates permutation. *)

val split : t -> t
(** Fresh sub-generator, so sibling consumers don't perturb each other. *)
