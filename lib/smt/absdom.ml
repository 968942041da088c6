(* Known-bits × wrapped-interval abstract domain over terms (DESIGN.md §12).

   Tier A of the solver's screening front-end: every term is mapped to a
   sound over-approximation of its value set under ALL variable
   valuations — a pair of

   - KNOWN BITS: a mask of bit positions whose value is the same in every
     concretization, with the values themselves ([kval] is meaningful
     only under [kmask]); tracks alignment and masking facts that flow
     through the bitwise operators obfuscators love ([And]/[Or]/[Shl]);
   - an UNSIGNED INTERVAL [lo, hi] (inclusive, no wrap-around: an
     operation that may wrap widens to top), which tracks constants and
     magnitude facts through the arithmetic operators.

   Soundness invariant (the property suite checks it): for every term
   [t] and every model [m], [Term.eval m t] is a member of [of_term t].
   Everything else here is a consequence: two terms with DISJOINT
   abstract values differ under every valuation, and an atom that
   evaluates to a definite truth value abstractly has that truth value
   under every valuation.  The domain never claims more than it can
   prove — comparisons answer [Maybe] whenever the approximation is too
   coarse — which is what lets the solver use it as a screen that only
   ever short-circuits verdicts the fall-through path would reproduce.

   Transfer functions are deliberately modest: exact on fully-known
   operands, trailing-known-bits propagation through [Add]/[Sub]/[Mul]
   (carries can only corrupt bit positions at or above the first unknown
   bit), classic known-bits algebra for the bitwise operators, and
   monotone interval bounds where no wrap is possible.  Precision beyond
   that buys nothing: the screen's job is to kill the OBVIOUS
   refutations cheaply, not to replace the solver.

   Evaluation is memoized per term in a domain-local table keyed on the
   term's identity ([Term.hash] and [Term.same], both O(1) on the
   interned canonical terms the solver sees): abstract values are pure
   functions of term structure (variables are top), so a hit can never
   change an answer. *)

type t = {
  kmask : int64;  (* bit set => that bit is known in every concretization *)
  kval : int64;   (* known bits' values; kval land kmask = kval *)
  lo : int64;     (* unsigned lower bound, inclusive *)
  hi : int64;     (* unsigned upper bound, inclusive; lo <=u hi always *)
}

let ule a b = Int64.unsigned_compare a b <= 0
let ult a b = Int64.unsigned_compare a b < 0
let umin a b = if ule a b then a else b
let umax a b = if ule a b then b else a

let top = { kmask = 0L; kval = 0L; lo = 0L; hi = -1L }

let of_const c = { kmask = -1L; kval = c; lo = c; hi = c }

let is_const a = a.kmask = -1L || a.lo = a.hi

let const_of a =
  if a.kmask = -1L then Some a.kval
  else if a.lo = a.hi then Some a.lo
  else None

(* Membership — the γ of the Galois connection, used by the soundness
   property and by the screen's own double-checks. *)
let mem x a =
  Int64.logand x a.kmask = a.kval && ule a.lo x && ule x a.hi

(* Normalize: a singleton interval upgrades the known bits and vice
   versa; inconsistent components cannot arise from sound transfer
   functions but are clamped to a safe form anyway. *)
let make ~kmask ~kval ~lo ~hi =
  let kval = Int64.logand kval kmask in
  let lo, hi = if ule lo hi then (lo, hi) else (0L, -1L) in
  if lo = hi then { kmask = -1L; kval = lo; lo; hi }
  else if kmask = -1L then { kmask; kval; lo = kval; hi = kval }
  else { kmask; kval; lo; hi }

(* Number of trailing bits known in [a] (the low-bit run carries exact
   low-order arithmetic through add/sub/mul). *)
let trailing_known a =
  let n = ref 0 in
  while !n < 64 && Int64.logand (Int64.shift_right_logical a.kmask !n) 1L = 1L do
    incr n
  done;
  !n

let low_mask n =
  if n >= 64 then -1L else Int64.sub (Int64.shift_left 1L n) 1L

let ctz64 v =
  if v = 0L then 64
  else begin
    let n = ref 0 in
    while Int64.logand (Int64.shift_right_logical v !n) 1L = 0L do
      incr n
    done;
    !n
  end

(* ----- transfer functions ----- *)

let add a b =
  match (const_of a, const_of b) with
  | Some x, Some y -> of_const (Int64.add x y)
  | _ ->
    let t = min (trailing_known a) (trailing_known b) in
    let m = low_mask t in
    let kval = Int64.logand (Int64.add a.kval b.kval) m in
    (* no-wrap interval: hi_a + hi_b must not overflow *)
    let lo, hi =
      if ule a.hi (Int64.sub (-1L) b.hi) then
        (Int64.add a.lo b.lo, Int64.add a.hi b.hi)
      else (0L, -1L)
    in
    make ~kmask:m ~kval ~lo ~hi

let neg a =
  match const_of a with
  | Some x -> of_const (Int64.neg x)
  | None ->
    let t = trailing_known a in
    let m = low_mask t in
    make ~kmask:m ~kval:(Int64.logand (Int64.neg a.kval) m) ~lo:0L ~hi:(-1L)

let sub a b =
  match (const_of a, const_of b) with
  | Some x, Some y -> of_const (Int64.sub x y)
  | _ ->
    let t = min (trailing_known a) (trailing_known b) in
    let m = low_mask t in
    let kval = Int64.logand (Int64.sub a.kval b.kval) m in
    (* no-borrow interval: lo_a - hi_b cannot go below zero *)
    let lo, hi =
      if ule b.hi a.lo then (Int64.sub a.lo b.hi, Int64.sub a.hi b.lo)
      else (0L, -1L)
    in
    make ~kmask:m ~kval ~lo ~hi

let mul a b =
  match (const_of a, const_of b) with
  | Some x, Some y -> of_const (Int64.mul x y)
  | _ ->
    (* Write a = ka + 2^ta*s, b = kb + 2^tb*u with za/zb the trailing
       zeros of ka/kb (capped at ta/tb).  Every cross term of the
       product has at least min(za+tb, zb+ta) trailing zeros, so the
       low min(za+tb, zb+ta) bits of a*b equal those of ka*kb — in
       particular multiplying anything by 8 pins three zero bits, the
       alignment fact that lets [disjoint] refute [8*x = 3]. *)
    let ta = trailing_known a and tb = trailing_known b in
    let za = min ta (ctz64 a.kval) and zb = min tb (ctz64 b.kval) in
    let t = min 64 (min (za + tb) (zb + ta)) in
    let m = low_mask t in
    make ~kmask:m ~kval:(Int64.logand (Int64.mul a.kval b.kval) m) ~lo:0L
      ~hi:(-1L)

let lognot a =
  make ~kmask:a.kmask
    ~kval:(Int64.logand (Int64.lognot a.kval) a.kmask)
    ~lo:(Int64.lognot a.hi) ~hi:(Int64.lognot a.lo)

let known_zeros a = Int64.logand a.kmask (Int64.lognot a.kval)
let known_ones a = Int64.logand a.kmask a.kval

(* All bits at or below the highest set bit of [v]. *)
let smear v =
  let v = Int64.logor v (Int64.shift_right_logical v 1) in
  let v = Int64.logor v (Int64.shift_right_logical v 2) in
  let v = Int64.logor v (Int64.shift_right_logical v 4) in
  let v = Int64.logor v (Int64.shift_right_logical v 8) in
  let v = Int64.logor v (Int64.shift_right_logical v 16) in
  Int64.logor v (Int64.shift_right_logical v 32)

let logand a b =
  let kmask =
    Int64.logor
      (Int64.logand a.kmask b.kmask)
      (Int64.logor (known_zeros a) (known_zeros b))
  in
  let kval = Int64.logand (Int64.logand a.kval b.kval) kmask in
  make ~kmask ~kval ~lo:0L ~hi:(umin a.hi b.hi)

let logor a b =
  let kmask =
    Int64.logor
      (Int64.logand a.kmask b.kmask)
      (Int64.logor (known_ones a) (known_ones b))
  in
  let kval = Int64.logand (Int64.logor a.kval b.kval) kmask in
  make ~kmask ~kval ~lo:(umax a.lo b.lo)
    ~hi:(Int64.logor (smear a.hi) (smear b.hi))

let logxor a b =
  let kmask = Int64.logand a.kmask b.kmask in
  make ~kmask
    ~kval:(Int64.logand (Int64.logxor a.kval b.kval) kmask)
    ~lo:0L
    ~hi:(Int64.logor (smear a.hi) (smear b.hi))

(* Shift amounts mirror [Term.eval]: the count is the operand mod 64. *)
let shift_amount b = Option.map (fun k -> Int64.to_int (Int64.logand k 63L)) (const_of b)

let shl a b =
  match shift_amount b with
  | None -> top
  | Some k -> (
    match const_of a with
    | Some x -> of_const (Int64.shift_left x k)
    | None ->
      let kmask = Int64.logor (Int64.shift_left a.kmask k) (low_mask k) in
      let kval = Int64.shift_left a.kval k in
      let lo, hi =
        if k = 0 then (a.lo, a.hi)
        else if ule a.hi (Int64.shift_right_logical (-1L) k) then
          (Int64.shift_left a.lo k, Int64.shift_left a.hi k)
        else (0L, -1L)
      in
      make ~kmask ~kval ~lo ~hi)

let shr a b =
  match shift_amount b with
  | None -> top
  | Some k ->
    let kmask =
      Int64.logor
        (Int64.shift_right_logical a.kmask k)
        (Int64.lognot (Int64.shift_right_logical (-1L) k))
    in
    make ~kmask
      ~kval:(Int64.shift_right_logical a.kval k)
      ~lo:(Int64.shift_right_logical a.lo k)
      ~hi:(Int64.shift_right_logical a.hi k)

let sar a b =
  match shift_amount b with
  | None -> top
  | Some k -> (
    match const_of a with
    | Some x -> of_const (Int64.shift_right x k)
    | None ->
      let sign_known = Int64.logand a.kmask Int64.min_int <> 0L in
      let kmask =
        Int64.logor
          (Int64.shift_right_logical a.kmask k)
          (if sign_known && k > 0 then
             Int64.lognot (Int64.shift_right_logical (-1L) k)
           else 0L)
      in
      (* arithmetic shift of kval replicates kval's bit 63, which is the
         known sign when [sign_known]; otherwise the fill bits fall
         outside [kmask] and are masked off by [make] *)
      make ~kmask ~kval:(Int64.shift_right a.kval k) ~lo:0L ~hi:(-1L))

(* ----- term evaluation, memoized per term ----- *)

(* Domain-local memo: abstract values are pure functions of term
   structure (variables are top), so per-domain tables agree wherever
   they overlap and need no lock — this sits on the screening hot path
   (one lookup per node of every screened query), where a shared table
   would serialize the worker domains on a mutex.  A stale or missing
   entry can only cost a recomputation, never change an answer. *)
module Memo = Hashtbl.Make (struct
  type t = Term.t

  let equal = Term.same
  let hash = Term.hash
end)

let memo_key : t Memo.t Domain.DLS.key = Domain.DLS.new_key (fun () -> Memo.create 4096)

let rec eval_term (t : Term.t) : t =
  match t with
  | Term.Var _ -> top
  | Term.Const c -> of_const c
  | Term.Add (x, y, _) -> add (of_term x) (of_term y)
  | Term.Sub (x, y, _) -> sub (of_term x) (of_term y)
  | Term.Mul (x, y, _) -> mul (of_term x) (of_term y)
  | Term.Neg (x, _) -> neg (of_term x)
  | Term.Not (x, _) -> lognot (of_term x)
  | Term.And (x, y, _) -> logand (of_term x) (of_term y)
  | Term.Or (x, y, _) -> logor (of_term x) (of_term y)
  | Term.Xor (x, y, _) -> logxor (of_term x) (of_term y)
  | Term.Shl (x, y, _) -> shl (of_term x) (of_term y)
  | Term.Shr (x, y, _) -> shr (of_term x) (of_term y)
  | Term.Sar (x, y, _) -> sar (of_term x) (of_term y)

and of_term (t : Term.t) : t =
  match t with
  | Term.Var _ -> top
  | Term.Const c -> of_const c
  | _ -> (
    let tbl = Domain.DLS.get memo_key in
    match Memo.find_opt tbl t with
    | Some v -> v
    | None ->
      let v = eval_term t in
      Memo.add tbl t v;
      v)

(* Clears the CALLING domain's table.  Entries are never wrong, so a
   worker domain keeping its table across a reset is harmless; this
   exists for the benchmarks' memory hygiene, not for correctness. *)
let reset () = Memo.reset (Domain.DLS.get memo_key)

(* ----- comparisons over abstract values ----- *)

(* No common concretization: disjoint intervals, or a bit known in both
   with opposite values.  Disjointness means the two terms DIFFER under
   every valuation, so an [Eq] atom over them is definitely false. *)
let disjoint a b =
  ult a.hi b.lo || ult b.hi a.lo
  || Int64.logand (Int64.logand a.kmask b.kmask) (Int64.logxor a.kval b.kval)
     <> 0L

type verdict = Yes | No | Maybe

(* Signed bounds are derivable only when the unsigned interval does not
   straddle the sign boundary. *)
let signed_bounds a =
  if Int64.logxor a.lo a.hi >= 0L then Some (a.lo, a.hi) else None

let cmp_u a b =
  if ult a.hi b.lo then Yes
  else if ule b.hi a.lo then No
  else Maybe

let cmp_ule a b =
  if ule a.hi b.lo then Yes
  else if ult b.hi a.lo then No
  else Maybe

(* Definite truth value of an atom, or [Maybe].  [Readable]/[Writable]
   depend on the pointer pool (opaque predicates), so they are always
   [Maybe] here.  Soundness: [Yes]/[No] answers agree with
   [Formula.eval] under EVERY model (property-tested). *)
let formula (f : Formula.t) : verdict =
  match f with
  | Formula.True -> Yes
  | Formula.False -> No
  | Formula.Eq (x, y) ->
    let a = of_term x and b = of_term y in
    if disjoint a b then No
    else (
      match (const_of a, const_of b) with
      | Some u, Some v when u = v -> Yes
      | _ -> Maybe)
  | Formula.Ne (x, y) ->
    let a = of_term x and b = of_term y in
    if disjoint a b then Yes
    else (
      match (const_of a, const_of b) with
      | Some u, Some v when u = v -> No
      | _ -> Maybe)
  | Formula.Ult (x, y) -> cmp_u (of_term x) (of_term y)
  | Formula.Ule (x, y) -> cmp_ule (of_term x) (of_term y)
  | Formula.Slt (x, y) -> (
    match (signed_bounds (of_term x), signed_bounds (of_term y)) with
    | Some (_, ahi), Some (blo, _) when Int64.compare ahi blo < 0 -> Yes
    | Some (alo, _), Some (_, bhi) when Int64.compare bhi alo <= 0 -> No
    | _ -> Maybe)
  | Formula.Sle (x, y) -> (
    match (signed_bounds (of_term x), signed_bounds (of_term y)) with
    | Some (_, ahi), Some (blo, _) when Int64.compare ahi blo <= 0 -> Yes
    | Some (alo, _), Some (_, bhi) when Int64.compare bhi alo < 0 -> No
    | _ -> Maybe)
  | Formula.Readable _ | Formula.Writable _ -> Maybe
