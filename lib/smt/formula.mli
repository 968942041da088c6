(** Atomic constraints over bit-vector terms.

    [Readable]/[Writable] implement the paper's POINTER constraint type
    (§IV-B): a term must evaluate to an address in a readable/writable
    region.  The solver discharges them by binding free variables to
    addresses from a caller-supplied pool of controlled memory. *)

type t =
  | True
  | False
  | Eq of Term.t * Term.t
  | Ne of Term.t * Term.t
  | Slt of Term.t * Term.t   (** signed < *)
  | Sle of Term.t * Term.t
  | Ult of Term.t * Term.t   (** unsigned < *)
  | Ule of Term.t * Term.t
  | Readable of Term.t
  | Writable of Term.t

val to_string : t -> string

val negate : t -> t
(** Logical negation.  Pointer atoms are returned unchanged (they have no
    useful negation in this fragment). *)

val map_terms : (Term.t -> Term.t) -> t -> t

val vars : t -> Term.Vset.t

val ult : int64 -> int64 -> bool
val ule : int64 -> int64 -> bool
(** Unsigned 64-bit [<] and [<=]: the one definition of [Ult]/[Ule] that
    {!eval}, {!simplify} and the solver's compiled atoms share. *)

val eval :
  ?readable:(int64 -> bool) ->
  ?writable:(int64 -> bool) ->
  (string -> int64) ->
  t ->
  bool
(** Truth under a concrete valuation.  [readable]/[writable] decide the
    pointer atoms and default to "anything goes". *)

val simplify : t -> t
(** Canonicalize both sides and constant-fold ([Eq] of equal canonical
    terms becomes [True], comparisons of constants are decided, ...). *)
