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

type t = private
  | Var of string
  | Const of int64
  | Add of t * t * int
  | Sub of t * t * int
  | Mul of t * t * int
  | Neg of t * int
  | Not of t * int
  | And of t * t * int
  | Or of t * t * int
  | Xor of t * t * int
  | Shl of t * t * int
  | Shr of t * t * int      (** logical right shift *)
  | Sar of t * t * int      (** arithmetic right shift *)
(** An interior node's last field is its KEY: a structural hash of its
    tag and its children's {!hash}es, shifted left once, with the low
    bit set exactly on canonical nodes.  Leaves carry no key and are
    always canonical.  The key is a function of structure and
    canonicity, so polymorphic [compare], [=] and [Hashtbl.hash] are
    structural: structure decides [compare] before any key is reached,
    and the order does not depend on which domain interned first.  A
    raw node ({!Raw}) and a canonical node are never [=], even with one
    structure: {!simplify} the raw one first.

    Nodes are built only here: by the canonicalizing constructors
    below, or as they are by {!Raw}. *)

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
    linear ([-x - 1]); [Shl x (Const k)] is [2^k · x].  A canonical
    term is read off its spine (see {!of_linear}) without walking it
    node by node; a raw one is walked. *)

val of_linear : linear -> t
(** Canonical term for a well-formed linear form (as {!linear} states),
    built from interned nodes: the spine
    [((t0 + t1) + ...) + c] of its terms in order, each [ti] being [v],
    [-v] or [k*v], with [+ c] left out when [c = 0] ([Const c] alone
    when there are no terms, [Var v] alone for [1·v + 0]).

    {b The canonical-shape invariant.}  A canonical term that
    linearizes is exactly [of_linear] of its linear form, and every
    other canonical term fails to linearize.  So on canonical terms
    {!linearize} reads the spine, {!add} and {!sub} of a constant
    re-intern only the top node ([s + (c+k)], or [s] when [c+k = 0]),
    and {!const_distance} compares variable parts by identity. *)

(** {1 Construction and simplification} *)

val simplify : t -> t
(** Bottom-up canonicalization: exact on the linear fragment, local
    identities elsewhere ([x^x = 0], [x&x = x], constant folding...).
    Sound: the result evaluates identically under every model.  The
    result is canonical and its interior nodes are interned.  O(1) on
    canonical input, which it returns as it is; a raw input (one with a
    {!Raw} node in it) is never returned unchanged. *)

(** {1 Hash-consing}

    One intern table gives structurally equal canonical terms one
    physical node: the canonicalizing constructors ({!simplify},
    {!of_linear}, {!subst} and the smart constructors) look every
    interior node they build up by a shallow hash of (tag, children's
    hashes) and the children's identity, and insert it when it is new.
    Only canonical nodes are interned, never raw ones.  The table is
    strong, thread-safe and shared by every domain; it only grows until
    {!reset_memo}.

    Contract: no term outlives {!reset_memo} (the harness's
    [Survey.reset_world] calls it between independent runs; nothing
    else does).  A term that does stays valid and canonical, and
    [=], [compare], {!hash} and {!same} treat it as before, but it is no
    longer [==] to the equal term built after the reset, so the
    identity fast paths fall back to walking it. *)

val hash : t -> int
(** Structural hash in O(1): a leaf's payload hash, an interior node's
    key without its canonical bit.  Structurally equal terms hash alike,
    raw or canonical. *)

val same : t -> t -> bool
(** Polymorphic [=] on terms, in O(1) on canonical terms built since the
    last {!reset_memo}: [==] or differing keys decide, and only a hash
    collision walks the children. *)

module Raw : sig
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
end
(** Nodes exactly as given, neither canonicalized nor interned: inputs
    for {!simplify} to canonicalize (the property suites build their
    random terms this way). *)

val memo_stats : unit -> int * int
(** Always [(0, 0)]: there is no simplify/linearize memo.  A stub kept
    for bench/e2e's trace; delete it in the benchmark PR. *)

val reset_memo : unit -> unit
(** Empty the intern table (see the contract above). *)

val var : string -> t
val const : int64 -> t

(** Smart constructors: canonicalize the operands (O(1) when they
    already are) and build the canonical result. *)

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

val canonical : t -> bool
(** The term is canonical: a leaf, or an interior node built by the
    canonicalizing constructors (its key's low bit). *)

val const_distance : t -> t -> int64 option
(** [Some d] exactly when [linearize (sub a b)] is the constant [d],
    without building the difference (raw operands are simplified
    first): equal terms are 0 apart, two constants their difference,
    and two linear terms are a constant apart exactly when they share
    one variable part ([Add (s, Const c)] or [s] with the same [s]):
    {!same} on canonical terms, then a walk of the shared spine's few
    nodes that allocates nothing.  A non-linear shared part
    ([Add (n, Const 5)] against [Add (n, Const 13)]) gives [None], as
    [linearize] does. *)

val equal : t -> t -> bool
(** {!same} after {!simplify}, so O(1) on canonical terms: complete on the linear
    fragment; sound but incomplete elsewhere — terms equal only by an
    identity the simplifier does not canonicalize (an MBA rewrite, say)
    compare unequal.  Nothing is sampled. *)

val subst : (string -> t option) -> t -> t
(** Replace variables via the function; unmapped variables stay.  The
    result is canonical. *)

val eval : (string -> int64) -> t -> int64
(** Concrete evaluation under a valuation.  Shift counts are taken
    mod 64, as on hardware. *)
