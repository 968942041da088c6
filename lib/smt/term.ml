(* 64-bit bit-vector terms.

   Stands in for Z3's bit-vector theory (DESIGN.md §2).  Three design
   points:

   - Variables are identified by NAME.  The symbolic executor uses a
     deterministic naming scheme ("rax_0" for the initial value of rax,
     "stk_16" for the stack slot at rsp0+16), so post-conditions of two
     different gadgets with the same behaviour are structurally identical
     terms — the basis of cheap subsumption testing.

   - [simplify] canonicalizes the LINEAR fragment (sums of variables with
     constant coefficients, mod 2^64) exactly.  Gadget semantics are
     overwhelmingly linear (pop/mov/lea/add/sub/inc/dec and xor-zeroing),
     so canonical forms make semantic equality decidable by structural
     comparison there.  Beyond that fragment the simplifier applies local
     identities only, and terms it leaves distinct compare as different
     (sound, incomplete: subsumption then keeps both gadgets).

   - Canonical interior nodes are hash-consed (DESIGN.md §10): the
     canonicalizing constructors build them through one intern table,
     so structurally equal canonical terms are one physical node.  Every
     interior node carries its KEY as its last field: a structural hash
     of (tag, children's hashes), shifted left once, whose low bit is
     set on canonical (interned) nodes only.  The key is a pure
     function of structure and canonicity, so polymorphic [compare],
     [=] and [Hashtbl.hash] stay structural and independent of the
     order in which domains interned; structure decides [compare]
     before the key is reached. *)

type t =
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
  | Shr of t * t * int
  | Sar of t * t * int

let rec to_string = function
  | Var v -> v
  | Const c -> if c >= 0L && c < 4096L then Int64.to_string c else Printf.sprintf "0x%Lx" c
  | Add (a, b, _) -> Printf.sprintf "(%s + %s)" (to_string a) (to_string b)
  | Sub (a, b, _) -> Printf.sprintf "(%s - %s)" (to_string a) (to_string b)
  | Mul (a, b, _) -> Printf.sprintf "(%s * %s)" (to_string a) (to_string b)
  | Neg (a, _) -> Printf.sprintf "(- %s)" (to_string a)
  | Not (a, _) -> Printf.sprintf "(~ %s)" (to_string a)
  | And (a, b, _) -> Printf.sprintf "(%s & %s)" (to_string a) (to_string b)
  | Or (a, b, _) -> Printf.sprintf "(%s | %s)" (to_string a) (to_string b)
  | Xor (a, b, _) -> Printf.sprintf "(%s ^ %s)" (to_string a) (to_string b)
  | Shl (a, b, _) -> Printf.sprintf "(%s << %s)" (to_string a) (to_string b)
  | Shr (a, b, _) -> Printf.sprintf "(%s >> %s)" (to_string a) (to_string b)
  | Sar (a, b, _) -> Printf.sprintf "(%s >>s %s)" (to_string a) (to_string b)

let rec vars_fold f acc = function
  | Var v -> f acc v
  | Const _ -> acc
  | Neg (a, _) | Not (a, _) -> vars_fold f acc a
  | Add (a, b, _) | Sub (a, b, _) | Mul (a, b, _) | And (a, b, _) | Or (a, b, _)
  | Xor (a, b, _) | Shl (a, b, _) | Shr (a, b, _) | Sar (a, b, _) ->
    vars_fold f (vars_fold f acc a) b

module Vset = Set.Make (String)

let vars t = vars_fold (fun s v -> Vset.add v s) Vset.empty t

let rec size = function
  | Var _ | Const _ -> 1
  | Neg (a, _) | Not (a, _) -> 1 + size a
  | Add (a, b, _) | Sub (a, b, _) | Mul (a, b, _) | And (a, b, _) | Or (a, b, _)
  | Xor (a, b, _) | Shl (a, b, _) | Shr (a, b, _) | Sar (a, b, _) ->
    1 + size a + size b

(* ----- keys and identity ----- *)

let key = function
  | Var _ | Const _ -> 0
  | Neg (_, k) | Not (_, k) -> k
  | Add (_, _, k) | Sub (_, _, k) | Mul (_, _, k) | And (_, _, k) | Or (_, _, k)
  | Xor (_, _, k) | Shl (_, _, k) | Shr (_, _, k) | Sar (_, _, k) -> k

let scramble h = (h lxor (h lsr 29)) land 0x1fff_ffff_ffff_ffff

(* The structural hash: a leaf's payload hash, an interior node's key
   without its canonical bit.  O(1): variable names are a few bytes. *)
let hash = function
  | Var v ->
    let h = ref (String.length v) in
    for i = 0 to String.length v - 1 do
      h := (!h * 31) + Char.code (String.unsafe_get v i)
    done;
    scramble (!h * 0x100000001b3)
  | Const c ->
    let h = Int64.mul c 0x100000001b3L in
    scramble (Int64.to_int h lxor Int64.to_int (Int64.shift_right_logical h 40))
  | t -> key t lsr 1

let canonical = function Var _ | Const _ -> true | t -> key t land 1 = 1

(* 61-bit mix of a node tag and its children's hashes; the key shifts it
   left once for the canonical bit, so keys stay non-negative. *)
let mix tag a b =
  let h = (tag * 0x2545F4914F6CDD1D) lxor a in
  let h = h * 0x100000001b3 in
  scramble ((h lxor b) * 0x100000001b3)

let key2 bit tag a b = (mix tag (hash a) (hash b) lsl 1) lor bit
let key1 bit tag a = (mix tag (hash a) 0 lsl 1) lor bit

(* The key [n] gets as a canonical ([bit] 1) or raw ([bit] 0) node. *)
let key_of bit n =
  match n with
  | Var _ | Const _ -> 0
  | Add (a, b, _) -> key2 bit 1 a b
  | Sub (a, b, _) -> key2 bit 2 a b
  | Mul (a, b, _) -> key2 bit 3 a b
  | Neg (a, _) -> key1 bit 4 a
  | Not (a, _) -> key1 bit 5 a
  | And (a, b, _) -> key2 bit 6 a b
  | Or (a, b, _) -> key2 bit 7 a b
  | Xor (a, b, _) -> key2 bit 8 a b
  | Shl (a, b, _) -> key2 bit 9 a b
  | Shr (a, b, _) -> key2 bit 10 a b
  | Sar (a, b, _) -> key2 bit 11 a b

let with_key n k =
  match n with
  | Var _ | Const _ -> n
  | Add (a, b, _) -> Add (a, b, k)
  | Sub (a, b, _) -> Sub (a, b, k)
  | Mul (a, b, _) -> Mul (a, b, k)
  | Neg (a, _) -> Neg (a, k)
  | Not (a, _) -> Not (a, k)
  | And (a, b, _) -> And (a, b, k)
  | Or (a, b, _) -> Or (a, b, k)
  | Xor (a, b, _) -> Xor (a, b, k)
  | Shl (a, b, _) -> Shl (a, b, k)
  | Shr (a, b, _) -> Shr (a, b, k)
  | Sar (a, b, _) -> Sar (a, b, k)

let keyed bit n = with_key n (key_of bit n)

(* Structural equality, canonical bit included (the same relation as
   polymorphic [=]).  On two canonical terms of one table it is O(1):
   [==] answers yes, differing keys answer no; only a hash collision or
   a term from before [reset_memo] walks the children. *)
let rec same a b =
  a == b
  ||
  match a, b with
  | Var x, Var y -> String.equal x y
  | Const x, Const y -> Int64.equal x y
  | Add (a1, b1, k1), Add (a2, b2, k2)
  | Sub (a1, b1, k1), Sub (a2, b2, k2)
  | Mul (a1, b1, k1), Mul (a2, b2, k2)
  | And (a1, b1, k1), And (a2, b2, k2)
  | Or (a1, b1, k1), Or (a2, b2, k2)
  | Xor (a1, b1, k1), Xor (a2, b2, k2)
  | Shl (a1, b1, k1), Shl (a2, b2, k2)
  | Shr (a1, b1, k1), Shr (a2, b2, k2)
  | Sar (a1, b1, k1), Sar (a2, b2, k2) ->
    k1 = k2 && same a1 a2 && same b1 b2
  | Neg (a1, k1), Neg (a2, k2) | Not (a1, k1), Not (a2, k2) ->
    k1 = k2 && same a1 a2
  | _ -> false

(* [n]'s constructor and children are [m]'s; keys are not looked at. *)
let shallow m n =
  match m, n with
  | Add (a1, b1, _), Add (a2, b2, _)
  | Sub (a1, b1, _), Sub (a2, b2, _)
  | Mul (a1, b1, _), Mul (a2, b2, _)
  | And (a1, b1, _), And (a2, b2, _)
  | Or (a1, b1, _), Or (a2, b2, _)
  | Xor (a1, b1, _), Xor (a2, b2, _)
  | Shl (a1, b1, _), Shl (a2, b2, _)
  | Shr (a1, b1, _), Shr (a2, b2, _)
  | Sar (a1, b1, _), Sar (a2, b2, _) ->
    same a1 a2 && same b1 b2
  | Neg (a1, _), Neg (a2, _) | Not (a1, _), Not (a2, _) -> same a1 a2
  | _ -> false

module Raw = struct
  let add a b = keyed 0 (Add (a, b, 0))
  let sub a b = keyed 0 (Sub (a, b, 0))
  let mul a b = keyed 0 (Mul (a, b, 0))
  let neg a = keyed 0 (Neg (a, 0))
  let lognot a = keyed 0 (Not (a, 0))
  let logand a b = keyed 0 (And (a, b, 0))
  let logor a b = keyed 0 (Or (a, b, 0))
  let logxor a b = keyed 0 (Xor (a, b, 0))
  let shl a b = keyed 0 (Shl (a, b, 0))
  let shr a b = keyed 0 (Shr (a, b, 0))
  let sar a b = keyed 0 (Sar (a, b, 0))
end

(* ----- the intern table -----

   Buckets of canonical nodes, indexed by structural hash.  Only the
   canonicalizing constructors below insert, and only nodes whose
   children are canonical, so every entry is a fixpoint of [simplify]
   and "is canonical" is the key's low bit, not a lookup.  A lookup
   hashes the candidate from its children's keys and compares children
   with [same]: O(1), never a walk of the term.

   The table is strong and shared by every domain behind one mutex (no
   user code runs under it).  It only grows until [reset_memo]. *)

let table = ref (Array.make 4096 [])
let count = ref 0
let lock = Mutex.create ()

let absent = Var ""

let rec find k n = function
  | [] -> absent
  | m :: rest -> if key m = k && shallow m n then m else find k n rest

let grow () =
  let old = !table in
  let tbl = Array.make (2 * Array.length old) [] in
  let mask = Array.length tbl - 1 in
  Array.iter
    (List.iter (fun m ->
         let i = hash m land mask in
         tbl.(i) <- m :: tbl.(i)))
    old;
  table := tbl

(* The canonical node for [n], an interior node with canonical
   children whose own key is ignored: the table's node when there is
   one, else [n] keyed as canonical and inserted.  Caller holds [lock]. *)
let intern_locked n =
  let k = key_of 1 n in
  let tbl = !table in
  let i = (k lsr 1) land (Array.length tbl - 1) in
  let m = find k n tbl.(i) in
  if m != absent then m
  else begin
    let c = with_key n k in
    tbl.(i) <- c :: tbl.(i);
    incr count;
    if !count > 2 * Array.length tbl then grow ();
    c
  end

let intern n =
  Mutex.lock lock;
  let m = intern_locked n in
  Mutex.unlock lock;
  m

(* Always (0, 0): there is no simplify/linearize memo.  Kept for bench/e2e. *)
let memo_stats () = (0, 0)

let reset_memo () =
  Mutex.protect lock (fun () ->
      table := Array.make 4096 [];
      count := 0)

(* ----- linear normal form: constant + sorted (var, coeff) list ----- *)

type linear = { lin_const : int64; lin_terms : (string * int64) list }

let lin_const c = { lin_const = c; lin_terms = [] }

let lin_add a b =
  let rec merge xs ys =
    match xs, ys with
    | [], r | r, [] -> r
    | (v1, c1) :: t1, (v2, c2) :: t2 ->
      let cmp = String.compare v1 v2 in
      if cmp = 0 then
        let c = Int64.add c1 c2 in
        if c = 0L then merge t1 t2 else (v1, c) :: merge t1 t2
      else if cmp < 0 then (v1, c1) :: merge t1 ys
      else (v2, c2) :: merge xs t2
  in
  { lin_const = Int64.add a.lin_const b.lin_const;
    lin_terms = merge a.lin_terms b.lin_terms }

let lin_scale k l =
  if k = 0L then lin_const 0L
  else
    { lin_const = Int64.mul k l.lin_const;
      lin_terms =
        List.filter_map
          (fun (v, c) ->
            let c = Int64.mul k c in
            if c = 0L then None else Some (v, c))
          l.lin_terms }

let lin_neg l = lin_scale (-1L) l

(* ----- the canonical shape -----

   A canonical term that linearizes is exactly [of_linear] of its
   linear form: the spine ((t0 + t1) + ...) + c, where each ti is v, -v
   or k*v over distinct variables in name order and c is left out when
   it is 0.  [simplify] returns a linearizable term only through
   [of_linear] (or a canonical operand, which holds by induction),
   every other node it interns fails to linearize, and [of_linear] is
   only given well-formed forms.  So a canonical term is linearized by
   reading its spine, and a canonical term that is not a spine does not
   linearize at all. *)

exception Nonlinear

(* The (variable, coefficient) of one spine term. *)
let spine_term = function
  | Var v -> (v, 1L)
  | Neg (Var v, _) -> (v, -1L)
  | Mul (Const k, Var v, _) -> (v, k)
  | _ -> raise_notrace Nonlinear

(* The terms of a variable part, in spine order, onto [acc]. *)
let rec spine acc = function
  | Add (s, t, _) -> spine (spine_term t :: acc) s
  | t -> spine_term t :: acc

let is_term = function
  | Var _ | Neg (Var _, _) | Mul (Const _, Var _, _) -> true
  | _ -> false

(* [t] is a variable part [of_linear] builds; no allocation. *)
let rec is_spine = function
  | Add (s, t, _) -> is_term t && is_spine s
  | t -> is_term t

(* Try to view a term as a linear combination: a canonical term by its
   spine, a raw one by walking it. *)
let rec linearize t =
  if canonical t then
    let read c s =
      match spine [] s with
      | terms -> Some { lin_const = c; lin_terms = terms }
      | exception Nonlinear -> None
    in
    match t with
    | Const c -> Some (lin_const c)
    | Add (s, Const c, _) -> read c s
    | _ -> read 0L t
  else
    match t with
    | Add (a, b, _) ->
      Option.bind (linearize a) (fun la ->
          Option.map (fun lb -> lin_add la lb) (linearize b))
    | Sub (a, b, _) ->
      Option.bind (linearize a) (fun la ->
          Option.map (fun lb -> lin_add la (lin_neg lb)) (linearize b))
    | Neg (a, _) -> Option.map lin_neg (linearize a)
    | Mul (Const k, b, _) | Mul (b, Const k, _) -> Option.map (lin_scale k) (linearize b)
    | Shl (a, Const k, _) when k >= 0L && k < 64L ->
      Option.map (lin_scale (Int64.shift_left 1L (Int64.to_int k))) (linearize a)
    | Not (a, _) ->
      (* ~x = -x - 1 *)
      Option.map (fun la -> lin_add (lin_neg la) (lin_const (-1L))) (linearize a)
    | _ -> None

(* Canonical term for a linear form: ((c1*v1 + c2*v2) + ... ) + const,
   built from interned nodes under one acquisition of the table lock. *)
let of_linear l =
  let term_of (v, c) =
    if c = 1L then Var v
    else if c = -1L then intern_locked (Neg (Var v, 0))
    else intern_locked (Mul (Const c, Var v, 0))
  in
  match l.lin_terms with
  | [] -> Const l.lin_const
  | [ (v, 1L) ] when l.lin_const = 0L -> Var v (* no node to intern: skip the lock *)
  | t0 :: rest ->
    Mutex.lock lock;
    let sum =
      List.fold_left (fun acc t -> intern_locked (Add (acc, term_of t, 0))) (term_of t0) rest
    in
    let t = if l.lin_const = 0L then sum else intern_locked (Add (sum, Const l.lin_const, 0)) in
    Mutex.unlock lock;
    t

(* ----- simplification ----- *)

(* The [mk_*] constructors take canonical operands and return a
   canonical term: a leaf, an operand, [of_linear]'s form, or an
   interned node.  [relin] and the unlinearizable cases hand [intern] a
   candidate whose key is a placeholder; it never escapes. *)
let rec simplify t =
  if canonical t then t
  else
    match linearize t with
    | Some l -> of_linear l
    | None -> (
      match t with
      | Var _ | Const _ -> t
      | Add (a, b, _) -> mk_add (simplify a) (simplify b)
      | Sub (a, b, _) -> mk_sub (simplify a) (simplify b)
      | Mul (a, b, _) -> mk_mul (simplify a) (simplify b)
      | Neg (a, _) -> mk_neg (simplify a)
      | Not (a, _) -> mk_not (simplify a)
      | And (a, b, _) -> mk_and (simplify a) (simplify b)
      | Or (a, b, _) -> mk_or (simplify a) (simplify b)
      | Xor (a, b, _) -> mk_xor (simplify a) (simplify b)
      | Shl (a, b, _) -> mk_shl (simplify a) (simplify b)
      | Shr (a, b, _) -> mk_shr (simplify a) (simplify b)
      | Sar (a, b, _) -> mk_sar (simplify a) (simplify b))

and relin t = match linearize t with Some l -> of_linear l | None -> intern t

(* [t + k] for a canonical non-constant [t] and k <> 0, where [n] is
   the node as built.  When [t]'s variable part is linear, [of_linear]
   of the sum keeps that part as it is, so only the top node is
   interned; otherwise [t] does not linearize and [n] goes to [relin]
   as it is. *)
and shift t k n =
  match t with
  | Add (s, Const c, _) ->
    if not (is_spine s) then relin n
    else
      let c = Int64.add c k in
      if c = 0L then s else intern (Add (s, Const c, 0))
  | _ -> if is_spine t then intern (Add (t, Const k, 0)) else relin n

and mk_add a b =
  match a, b with
  | Const x, Const y -> Const (Int64.add x y)
  | Const 0L, t | t, Const 0L -> t
  | t, Const k | Const k, t -> shift t k (Add (a, b, 0))
  | _ -> relin (Add (a, b, 0))

and mk_sub a b =
  match a, b with
  | Const x, Const y -> Const (Int64.sub x y)
  | t, Const 0L -> t
  | x, y when same x y -> Const 0L
  | t, Const k -> shift t (Int64.neg k) (Sub (a, b, 0))
  | _ -> relin (Sub (a, b, 0))

and mk_mul a b =
  match a, b with
  | Const x, Const y -> Const (Int64.mul x y)
  | Const 0L, _ | _, Const 0L -> Const 0L
  | Const 1L, t | t, Const 1L -> t
  | _ -> relin (Mul (a, b, 0))

and mk_neg a =
  match a with
  | Const x -> Const (Int64.neg x)
  | Neg (t, _) -> t
  | _ -> relin (Neg (a, 0))

and mk_not a =
  match a with
  | Const x -> Const (Int64.lognot x)
  | Not (t, _) -> t
  | _ -> relin (Not (a, 0))

and mk_and a b =
  match a, b with
  | Const x, Const y -> Const (Int64.logand x y)
  | Const 0L, _ | _, Const 0L -> Const 0L
  | Const -1L, t | t, Const -1L -> t
  | x, y when same x y -> x
  | _ -> intern (And (a, b, 0))

and mk_or a b =
  match a, b with
  | Const x, Const y -> Const (Int64.logor x y)
  | Const 0L, t | t, Const 0L -> t
  | Const -1L, _ | _, Const -1L -> Const (-1L)
  | x, y when same x y -> x
  | _ -> intern (Or (a, b, 0))

and mk_xor a b =
  match a, b with
  | Const x, Const y -> Const (Int64.logxor x y)
  | Const 0L, t | t, Const 0L -> t
  | x, y when same x y -> Const 0L
  | _ -> intern (Xor (a, b, 0))

and mk_shl a b =
  match a, b with
  | Const x, Const y when y >= 0L && y < 64L -> Const (Int64.shift_left x (Int64.to_int y))
  | t, Const 0L -> t
  | _ -> relin (Shl (a, b, 0))

and mk_shr a b =
  match a, b with
  | Const x, Const y when y >= 0L && y < 64L ->
    Const (Int64.shift_right_logical x (Int64.to_int y))
  | t, Const 0L -> t
  | _ -> intern (Shr (a, b, 0))

and mk_sar a b =
  match a, b with
  | Const x, Const y when y >= 0L && y < 64L -> Const (Int64.shift_right x (Int64.to_int y))
  | t, Const 0L -> t
  | _ -> intern (Sar (a, b, 0))

(* Smart constructors: canonicalize the operands (O(1) when they already
   are) and build the canonical result. *)
let var v = Var v
let const c = Const c
let add a b = mk_add (simplify a) (simplify b)
let sub a b = mk_sub (simplify a) (simplify b)
let mul a b = mk_mul (simplify a) (simplify b)
let neg a = mk_neg (simplify a)
let lognot a = mk_not (simplify a)
let logand a b = mk_and (simplify a) (simplify b)
let logor a b = mk_or (simplify a) (simplify b)
let logxor a b = mk_xor (simplify a) (simplify b)
let shl a b = mk_shl (simplify a) (simplify b)
let shr a b = mk_shr (simplify a) (simplify b)
let sar a b = mk_sar (simplify a) (simplify b)

let equal a b = same (simplify a) (simplify b)

(* [linearize (sub a b)] when it is a constant, read off the operands:
   equal terms are 0 apart, and two linear terms are a constant apart
   exactly when they share their variable part, which is one node. *)
let const_distance a b =
  let shared sa sb d = if same sa sb && is_spine sa then Some d else None in
  let a = simplify a and b = simplify b in
  if same a b then Some 0L
  else
    match a, b with
    | Const x, Const y -> Some (Int64.sub x y)
    | Add (sa, Const ca, _), Add (sb, Const cb, _) -> shared sa sb (Int64.sub ca cb)
    | Add (sa, Const ca, _), sb -> shared sa sb ca
    | sa, Add (sb, Const cb, _) -> shared sa sb (Int64.neg cb)
    | _ -> None

(* Replace variables via [f]; unmapped variables stay. *)
let subst f t =
  let f v = Option.map simplify (f v) in
  let rec go t =
    match t with
    | Var v -> ( match f v with Some t' -> t' | None -> t)
    | Const _ -> t
    | Add (a, b, _) -> mk_add (go a) (go b)
    | Sub (a, b, _) -> mk_sub (go a) (go b)
    | Mul (a, b, _) -> mk_mul (go a) (go b)
    | Neg (a, _) -> mk_neg (go a)
    | Not (a, _) -> mk_not (go a)
    | And (a, b, _) -> mk_and (go a) (go b)
    | Or (a, b, _) -> mk_or (go a) (go b)
    | Xor (a, b, _) -> mk_xor (go a) (go b)
    | Shl (a, b, _) -> mk_shl (go a) (go b)
    | Shr (a, b, _) -> mk_shr (go a) (go b)
    | Sar (a, b, _) -> mk_sar (go a) (go b)
  in
  go t

(* Concrete evaluation under a model (variable valuation). *)
let rec eval model t =
  match t with
  | Var v -> model v
  | Const c -> c
  | Add (a, b, _) -> Int64.add (eval model a) (eval model b)
  | Sub (a, b, _) -> Int64.sub (eval model a) (eval model b)
  | Mul (a, b, _) -> Int64.mul (eval model a) (eval model b)
  | Neg (a, _) -> Int64.neg (eval model a)
  | Not (a, _) -> Int64.lognot (eval model a)
  | And (a, b, _) -> Int64.logand (eval model a) (eval model b)
  | Or (a, b, _) -> Int64.logor (eval model a) (eval model b)
  | Xor (a, b, _) -> Int64.logxor (eval model a) (eval model b)
  | Shl (a, b, _) ->
    Int64.shift_left (eval model a) (Int64.to_int (Int64.logand (eval model b) 63L))
  | Shr (a, b, _) ->
    Int64.shift_right_logical (eval model a) (Int64.to_int (Int64.logand (eval model b) 63L))
  | Sar (a, b, _) ->
    Int64.shift_right (eval model a) (Int64.to_int (Int64.logand (eval model b) 63L))
