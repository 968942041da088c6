(* Atomic constraints over bit-vector terms.

   [Readable]/[Writable] implement the paper's POINTER constraint type
   (§IV-B): a term must evaluate to an address in a readable/writable
   region.  The solver discharges them by binding free variables to
   addresses from a caller-supplied pool of controlled memory. *)

type t =
  | True
  | False
  | Eq of Term.t * Term.t
  | Ne of Term.t * Term.t
  | Slt of Term.t * Term.t   (* signed < *)
  | Sle of Term.t * Term.t
  | Ult of Term.t * Term.t   (* unsigned < *)
  | Ule of Term.t * Term.t
  | Readable of Term.t
  | Writable of Term.t

let to_string = function
  | True -> "true"
  | False -> "false"
  | Eq (a, b) -> Printf.sprintf "%s == %s" (Term.to_string a) (Term.to_string b)
  | Ne (a, b) -> Printf.sprintf "%s != %s" (Term.to_string a) (Term.to_string b)
  | Slt (a, b) -> Printf.sprintf "%s <s %s" (Term.to_string a) (Term.to_string b)
  | Sle (a, b) -> Printf.sprintf "%s <=s %s" (Term.to_string a) (Term.to_string b)
  | Ult (a, b) -> Printf.sprintf "%s <u %s" (Term.to_string a) (Term.to_string b)
  | Ule (a, b) -> Printf.sprintf "%s <=u %s" (Term.to_string a) (Term.to_string b)
  | Readable t -> Printf.sprintf "readable(%s)" (Term.to_string t)
  | Writable t -> Printf.sprintf "writable(%s)" (Term.to_string t)

let negate = function
  | True -> False
  | False -> True
  | Eq (a, b) -> Ne (a, b)
  | Ne (a, b) -> Eq (a, b)
  | Slt (a, b) -> Sle (b, a)
  | Sle (a, b) -> Slt (b, a)
  | Ult (a, b) -> Ule (b, a)
  | Ule (a, b) -> Ult (b, a)
  | (Readable _ | Writable _) as f ->
    (* pointer atoms have no useful negation in our fragment *)
    f

let map_terms f = function
  (* physically unchanged inputs return the original formula, so callers
     can detect no-op substitutions with [==] and skip re-simplifying *)
  | (True | False) as x -> x
  | Eq (a, b) as x ->
    let a' = f a and b' = f b in
    if a' == a && b' == b then x else Eq (a', b')
  | Ne (a, b) as x ->
    let a' = f a and b' = f b in
    if a' == a && b' == b then x else Ne (a', b')
  | Slt (a, b) as x ->
    let a' = f a and b' = f b in
    if a' == a && b' == b then x else Slt (a', b')
  | Sle (a, b) as x ->
    let a' = f a and b' = f b in
    if a' == a && b' == b then x else Sle (a', b')
  | Ult (a, b) as x ->
    let a' = f a and b' = f b in
    if a' == a && b' == b then x else Ult (a', b')
  | Ule (a, b) as x ->
    let a' = f a and b' = f b in
    if a' == a && b' == b then x else Ule (a', b')
  | Readable t as x ->
    let t' = f t in
    if t' == t then x else Readable t'
  | Writable t as x ->
    let t' = f t in
    if t' == t then x else Writable t'

let vars = function
  | True | False -> Term.Vset.empty
  | Eq (a, b) | Ne (a, b) | Slt (a, b) | Sle (a, b) | Ult (a, b) | Ule (a, b) ->
    Term.Vset.union (Term.vars a) (Term.vars b)
  | Readable t | Writable t -> Term.vars t

(* Unsigned comparisons.  [eval], [simplify] and the solver's compiled
   residual atoms all decide [Ult]/[Ule] through these two. *)
let ult a b = Int64.unsigned_compare a b < 0
let ule a b = Int64.unsigned_compare a b <= 0

(* Evaluate under a concrete valuation.  [readable]/[writable] decide
   pointer atoms; default to "anything goes" for pure-arithmetic use. *)
let eval ?(readable = fun _ -> true) ?(writable = fun _ -> true) model f =
  let v t = Term.eval model t in
  match f with
  | True -> true
  | False -> false
  | Eq (a, b) -> v a = v b
  | Ne (a, b) -> v a <> v b
  | Slt (a, b) -> Int64.compare (v a) (v b) < 0
  | Sle (a, b) -> Int64.compare (v a) (v b) <= 0
  | Ult (a, b) -> ult (v a) (v b)
  | Ule (a, b) -> ule (v a) (v b)
  | Readable t -> readable (v t)
  | Writable t -> writable (v t)

(* Constant-fold and canonicalize an atom. *)
let simplify f =
  let f = map_terms Term.simplify f in
  match f with
  | Eq (a, b) when a = b -> True
  | Eq (Term.Const x, Term.Const y) -> if x = y then True else False
  | Ne (a, b) when a = b -> False
  | Ne (Term.Const x, Term.Const y) -> if x <> y then True else False
  | Slt (Term.Const x, Term.Const y) -> if Int64.compare x y < 0 then True else False
  | Sle (Term.Const x, Term.Const y) -> if Int64.compare x y <= 0 then True else False
  | Ult (Term.Const x, Term.Const y) -> if ult x y then True else False
  | Ule (Term.Const x, Term.Const y) -> if ule x y then True else False
  | _ -> f
