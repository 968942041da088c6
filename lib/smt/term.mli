(** 64-bit bit-vector terms.

    Stands in for Z3's bit-vector theory (DESIGN.md §2).  Variables are
    identified by NAME: the symbolic executor uses a deterministic naming
    scheme (["rax_0"] for the initial value of rax, ["stk_16"] for the
    stack slot at rsp0+16), so post-conditions of two different gadgets
    with the same behaviour are structurally identical terms — the basis
    of cheap subsumption testing.

    {!simplify} canonicalizes the LINEAR fragment (sums of variables with
    constant coefficients, mod 2{^64}) exactly; gadget semantics are
    overwhelmingly linear, so semantic equality is decidable by
    structural comparison there. *)

type t =
  | Var of string
  | Const of int64
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Neg of t
  | Not of t
  | And of t * t
  | Or of t * t
  | Xor of t * t
  | Shl of t * t
  | Shr of t * t      (** logical right shift *)
  | Sar of t * t      (** arithmetic right shift *)

val to_string : t -> string

module Vset : Set.S with type elt = string

val vars : t -> Vset.t
(** The variables occurring in the term. *)

val vars_fold : ('a -> string -> 'a) -> 'a -> t -> 'a

val size : t -> int
(** Node count. *)

(** {1 Linear normal form} *)

type linear = { lin_const : int64; lin_terms : (string * int64) list }
(** [lin_const + Σ coeff·var], terms sorted by variable name, no zero
    coefficients; arithmetic is mod 2{^64}. *)

val lin_const : int64 -> linear
val lin_add : linear -> linear -> linear
val lin_scale : int64 -> linear -> linear
val lin_neg : linear -> linear

val linearize : t -> linear option
(** View the term as a linear combination, when it is one.  [Not x] is
    linear ([-x - 1]); [Shl x (Const k)] is [2^k · x]. *)

val of_linear : linear -> t
(** Canonical term for a linear form. *)

(** {1 Construction and simplification} *)

val simplify : t -> t
(** Bottom-up canonicalization: exact on the linear fragment, local
    identities elsewhere ([x^x = 0], [x&x = x], constant folding...).
    Sound: the result evaluates identically under every model.  A
    non-leaf result is {!intern}ed: [simplify t == intern (simplify t)].

    An input the simplifier has already been seen to leave unchanged
    (its intern entry carries a fixpoint flag) is answered by one table
    lookup, without interning the input; the answer is the same node
    the full path would return.  Leaves are returned as they are. *)

(** {1 Hash-consing}

    One interning table gives structurally equal terms one physically
    unique representative.  {!simplify} interns its result, so the
    canonical forms callers keep (summaries, solver-cache keys, plan
    conditions) share their nodes, and [compare] on them (hash-table
    lookups included) short-circuits on [==].  Each entry also records
    whether {!simplify} has observed it to be a fixpoint.  Thread-safe;
    shared across domains; it only grows until {!reset_memo}. *)

val intern : t -> t
(** Canonical representative: [intern a == intern b] iff [a = b]
    (structural equality).  Idempotent; [intern t = t] always holds
    structurally.  Entries it creates are not marked as simplifier
    fixpoints: interning a non-canonical term never makes {!simplify}
    return it unchanged. *)

val memo_stats : unit -> int * int
(** Always [(0, 0)]: there is no simplify/linearize memo.  A stub kept
    for bench/e2e's trace; delete it in the benchmark PR. *)

val reset_memo : unit -> unit
(** Drop the intern table, fixpoint flags included. *)

val var : string -> t
val const : int64 -> t

(** Smart constructors (simplify on the way in): *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t
val lognot : t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val shl : t -> t -> t
val shr : t -> t -> t
val sar : t -> t -> t

val equal : t -> t -> bool
(** Structural equality after canonicalization: complete on the linear
    fragment; sound but incomplete elsewhere — terms equal only by an
    identity the simplifier does not canonicalize (an MBA rewrite, say)
    compare unequal.  Nothing is sampled. *)

val subst : (string -> t option) -> t -> t
(** Replace variables via the function; unmapped variables stay. *)

val eval : (string -> int64) -> t -> int64
(** Concrete evaluation under a valuation.  Shift counts are taken
    mod 64, as on hardware. *)
