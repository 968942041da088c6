(* 64-bit bit-vector terms.

   Stands in for Z3's bit-vector theory (DESIGN.md §2).  Two design
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
     (sound, incomplete: subsumption then keeps both gadgets). *)

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
  | Shr of t * t
  | Sar of t * t

let rec to_string = function
  | Var v -> v
  | Const c -> if c >= 0L && c < 4096L then Int64.to_string c else Printf.sprintf "0x%Lx" c
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (to_string a) (to_string b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (to_string a) (to_string b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (to_string a) (to_string b)
  | Neg a -> Printf.sprintf "(- %s)" (to_string a)
  | Not a -> Printf.sprintf "(~ %s)" (to_string a)
  | And (a, b) -> Printf.sprintf "(%s & %s)" (to_string a) (to_string b)
  | Or (a, b) -> Printf.sprintf "(%s | %s)" (to_string a) (to_string b)
  | Xor (a, b) -> Printf.sprintf "(%s ^ %s)" (to_string a) (to_string b)
  | Shl (a, b) -> Printf.sprintf "(%s << %s)" (to_string a) (to_string b)
  | Shr (a, b) -> Printf.sprintf "(%s >> %s)" (to_string a) (to_string b)
  | Sar (a, b) -> Printf.sprintf "(%s >>s %s)" (to_string a) (to_string b)

let rec vars_fold f acc = function
  | Var v -> f acc v
  | Const _ -> acc
  | Neg a | Not a -> vars_fold f acc a
  | Add (a, b) | Sub (a, b) | Mul (a, b) | And (a, b) | Or (a, b) | Xor (a, b)
  | Shl (a, b) | Shr (a, b) | Sar (a, b) ->
    vars_fold f (vars_fold f acc a) b

module Vset = Set.Make (String)

let vars t = vars_fold (fun s v -> Vset.add v s) Vset.empty t

let rec size = function
  | Var _ | Const _ -> 1
  | Neg a | Not a -> 1 + size a
  | Add (a, b) | Sub (a, b) | Mul (a, b) | And (a, b) | Or (a, b) | Xor (a, b)
  | Shl (a, b) | Shr (a, b) | Sar (a, b) ->
    1 + size a + size b

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

(* Try to view a term as a linear combination. *)
let rec linearize = function
  | Var v -> Some { lin_const = 0L; lin_terms = [ (v, 1L) ] }
  | Const c -> Some (lin_const c)
  | Add (a, b) ->
    Option.bind (linearize a) (fun la ->
        Option.map (fun lb -> lin_add la lb) (linearize b))
  | Sub (a, b) ->
    Option.bind (linearize a) (fun la ->
        Option.map (fun lb -> lin_add la (lin_neg lb)) (linearize b))
  | Neg a -> Option.map lin_neg (linearize a)
  | Mul (Const k, b) | Mul (b, Const k) -> Option.map (lin_scale k) (linearize b)
  | Shl (a, Const k) when k >= 0L && k < 64L ->
    Option.map (lin_scale (Int64.shift_left 1L (Int64.to_int k))) (linearize a)
  | Not a ->
    (* ~x = -x - 1 *)
    Option.map (fun la -> lin_add (lin_neg la) (lin_const (-1L))) (linearize a)
  | _ -> None

(* Canonical term for a linear form: ((c1*v1 + c2*v2) + ... ) + const. *)
let of_linear l =
  let term_of (v, c) =
    if c = 1L then Var v
    else if c = -1L then Neg (Var v)
    else Mul (Const c, Var v)
  in
  match l.lin_terms with
  | [] -> Const l.lin_const
  | t0 :: rest ->
    let sum = List.fold_left (fun acc t -> Add (acc, term_of t)) (term_of t0) rest in
    if l.lin_const = 0L then sum else Add (sum, Const l.lin_const)

(* ----- simplification ----- *)

let rec simplify t =
  match linearize t with
  | Some l -> of_linear l
  | None -> (
    match t with
    | Var _ | Const _ -> t
    | Add (a, b) -> mk_add (simplify a) (simplify b)
    | Sub (a, b) -> mk_sub (simplify a) (simplify b)
    | Mul (a, b) -> mk_mul (simplify a) (simplify b)
    | Neg a -> mk_neg (simplify a)
    | Not a -> mk_not (simplify a)
    | And (a, b) -> mk_and (simplify a) (simplify b)
    | Or (a, b) -> mk_or (simplify a) (simplify b)
    | Xor (a, b) -> mk_xor (simplify a) (simplify b)
    | Shl (a, b) -> mk_shl (simplify a) (simplify b)
    | Shr (a, b) -> mk_shr (simplify a) (simplify b)
    | Sar (a, b) -> mk_sar (simplify a) (simplify b))

and relin t = match linearize t with Some l -> of_linear l | None -> t

and mk_add a b =
  match a, b with
  | Const x, Const y -> Const (Int64.add x y)
  | Const 0L, t | t, Const 0L -> t
  | _ -> relin (Add (a, b))

and mk_sub a b =
  match a, b with
  | Const x, Const y -> Const (Int64.sub x y)
  | t, Const 0L -> t
  | x, y when x = y -> Const 0L
  | _ -> relin (Sub (a, b))

and mk_mul a b =
  match a, b with
  | Const x, Const y -> Const (Int64.mul x y)
  | Const 0L, _ | _, Const 0L -> Const 0L
  | Const 1L, t | t, Const 1L -> t
  | _ -> relin (Mul (a, b))

and mk_neg a =
  match a with
  | Const x -> Const (Int64.neg x)
  | Neg t -> t
  | _ -> relin (Neg a)

and mk_not a =
  match a with
  | Const x -> Const (Int64.lognot x)
  | Not t -> t
  | _ -> relin (Not a)

and mk_and a b =
  match a, b with
  | Const x, Const y -> Const (Int64.logand x y)
  | Const 0L, _ | _, Const 0L -> Const 0L
  | Const -1L, t | t, Const -1L -> t
  | x, y when x = y -> x
  | _ -> And (a, b)

and mk_or a b =
  match a, b with
  | Const x, Const y -> Const (Int64.logor x y)
  | Const 0L, t | t, Const 0L -> t
  | Const -1L, _ | _, Const -1L -> Const (-1L)
  | x, y when x = y -> x
  | _ -> Or (a, b)

and mk_xor a b =
  match a, b with
  | Const x, Const y -> Const (Int64.logxor x y)
  | Const 0L, t | t, Const 0L -> t
  | x, y when x = y -> Const 0L
  | _ -> Xor (a, b)

and mk_shl a b =
  match a, b with
  | Const x, Const y when y >= 0L && y < 64L -> Const (Int64.shift_left x (Int64.to_int y))
  | t, Const 0L -> t
  | _ -> relin (Shl (a, b))

and mk_shr a b =
  match a, b with
  | Const x, Const y when y >= 0L && y < 64L ->
    Const (Int64.shift_right_logical x (Int64.to_int y))
  | t, Const 0L -> t
  | _ -> Shr (a, b)

and mk_sar a b =
  match a, b with
  | Const x, Const y when y >= 0L && y < 64L -> Const (Int64.shift_right x (Int64.to_int y))
  | t, Const 0L -> t
  | _ -> Sar (a, b)

(* Smart constructors: simplify on the way in so terms stay small. *)
let var v = Var v
let const c = Const c
let add a b = mk_add a b
let sub a b = mk_sub a b
let mul a b = mk_mul a b
let neg a = mk_neg a
let lognot a = mk_not a
let logand a b = mk_and a b
let logor a b = mk_or a b
let logxor a b = mk_xor a b
let shl a b = mk_shl a b
let shr a b = mk_shr a b
let sar a b = mk_sar a b

(* ----- hash-consing ----- *)

(* Interning table: structural term -> its entry, holding the canonical
   (physically unique) representative.  Children are interned before the
   parent is looked up, so the table's structural hashing and equality
   tests touch nodes that are already shared — polymorphic [compare]
   short-circuits on physical equality, making lookups cheap even for
   deep terms.  The table only ever grows; identical terms from
   different domains resolve to the same node, which is what gives [==]
   its meaning here.

   [fix] records an OBSERVED fixpoint of the simplifier: it is set only
   when [simplify] ran the inner simplifier on a term structurally equal
   to [rep] and got that same term back (DESIGN.md §10).  Entries made
   by [intern] or by [Ser.get] start unflagged.

   Thread safety: one mutex guards the table and the flags.  No user
   code runs under the lock (pure table operations only), so holding it
   across the recursion cannot deadlock and keeps per-node overhead to
   a single acquisition per [intern] call. *)

type entry = { rep : t; mutable fix : bool }

let intern_tbl : (t, entry) Hashtbl.t = Hashtbl.create 4096
let intern_lock = Mutex.create ()

(* Caller holds [intern_lock]. *)
let rec intern_entry t =
  let rep e = (intern_entry e).rep in
  let node =
    match t with
    | Var _ | Const _ -> t
    | Add (a, b) -> Add (rep a, rep b)
    | Sub (a, b) -> Sub (rep a, rep b)
    | Mul (a, b) -> Mul (rep a, rep b)
    | Neg a -> Neg (rep a)
    | Not a -> Not (rep a)
    | And (a, b) -> And (rep a, rep b)
    | Or (a, b) -> Or (rep a, rep b)
    | Xor (a, b) -> Xor (rep a, rep b)
    | Shl (a, b) -> Shl (rep a, rep b)
    | Shr (a, b) -> Shr (rep a, rep b)
    | Sar (a, b) -> Sar (rep a, rep b)
  in
  match Hashtbl.find_opt intern_tbl node with
  | Some e -> e
  | None ->
    let e = { rep = node; fix = false } in
    Hashtbl.add intern_tbl node e;
    e

let intern (t : t) : t = Mutex.protect intern_lock (fun () -> (intern_entry t).rep)

(* Always (0, 0): there is no simplify/linearize memo.  Kept for bench/e2e. *)
let memo_stats () = (0, 0)

let reset_memo () = Mutex.protect intern_lock (fun () -> Hashtbl.reset intern_tbl)

(* The exported simplifier interns its result, so the canonical forms
   that callers keep (summaries, cache keys, plan conditions) share
   their nodes; leaves are returned as they are.

   Most inputs are already canonical (cache keys, effects and conditions
   re-simplified by their consumers), so a non-leaf input is first
   looked up as it is — one bounded hash, and [compare] short-circuits
   on shared children — without interning it.  A flagged entry answers
   with its representative: the flag was set when the inner simplifier
   returned a term structurally equal to that entry, and the inner
   simplifier is a function of structure, so [intern (simplify t)] is
   that same representative.  Otherwise the full path runs and flags the
   result's entry when it turned out to be a fixpoint. *)
let simplify t =
  match t with
  | Var _ | Const _ -> t
  | _ -> (
    let known =
      Mutex.protect intern_lock (fun () ->
          match Hashtbl.find_opt intern_tbl t with
          | Some { rep; fix = true } -> Some rep
          | _ -> None)
    in
    match known with
    | Some rep -> rep
    | None ->
      let s = simplify t in
      Mutex.protect intern_lock (fun () ->
          let e = intern_entry s in
          if compare s t = 0 then e.fix <- true;
          e.rep))

(* ----- stable binary (de)serialization -----

   Persistent-store encoding (DESIGN.md §11).  Marshal is unusable here:
   its byte output depends on the sharing structure of the value, and
   hash-consing makes sharing an artifact of evaluation history.  This
   encoding is a function of the STRUCTURE alone: a deterministic
   postorder walk that assigns dense indices to distinct subterms, so
   interned and non-interned copies of the same term serialize to
   identical bytes and shared subterms are written once per writer.

   Stream grammar (one writer/reader pair per store entry):
     0xD0 def    -- define node [wnext]: tag u8, payload (child refs are
                    indices of earlier defs, encoded as int_)
     0xE0 int_   -- reference an already-defined node
   [put] emits any missing defs followed by one 0xE0 ref; [get] consumes
   defs until it hits the ref.  Every node is re-interned on read, so
   deserialized terms join the live hash-cons table. *)

module Ser = struct
  module Bin = Gp_util.Store.Bin

  type writer = { wtbl : (t, int) Hashtbl.t; mutable wnext : int }

  let writer () = { wtbl = Hashtbl.create 64; wnext = 0 }

  let tag_of = function
    | Var _ -> 0 | Const _ -> 1 | Add _ -> 2 | Sub _ -> 3 | Mul _ -> 4
    | Neg _ -> 5 | Not _ -> 6 | And _ -> 7 | Or _ -> 8 | Xor _ -> 9
    | Shl _ -> 10 | Shr _ -> 11 | Sar _ -> 12

  let rec def w b t =
    match Hashtbl.find_opt w.wtbl t with
    | Some idx -> idx
    | None ->
      let emit2 a b' =
        let ia = def w b a and ib = def w b b' in
        Bin.u8 b 0xd0; Bin.u8 b (tag_of t); Bin.int_ b ia; Bin.int_ b ib
      in
      (match t with
      | Var v -> Bin.u8 b 0xd0; Bin.u8 b 0; Bin.str b v
      | Const c -> Bin.u8 b 0xd0; Bin.u8 b 1; Bin.i64 b c
      | Neg a | Not a ->
        let ia = def w b a in
        Bin.u8 b 0xd0; Bin.u8 b (tag_of t); Bin.int_ b ia
      | Add (a, b') | Sub (a, b') | Mul (a, b') | And (a, b') | Or (a, b')
      | Xor (a, b') | Shl (a, b') | Shr (a, b') | Sar (a, b') ->
        emit2 a b');
      let idx = w.wnext in
      w.wnext <- idx + 1;
      Hashtbl.add w.wtbl t idx;
      idx

  let put w b t =
    let idx = def w b t in
    Bin.u8 b 0xe0;
    Bin.int_ b idx

  type reader = { mutable nodes : t array; mutable rnext : int }

  let reader () = { nodes = Array.make 64 (Const 0L); rnext = 0 }

  let node r i =
    if i < 0 || i >= r.rnext then raise Bin.Truncated;
    r.nodes.(i)

  let push r t =
    if r.rnext = Array.length r.nodes then begin
      let bigger = Array.make (2 * r.rnext) (Const 0L) in
      Array.blit r.nodes 0 bigger 0 r.rnext;
      r.nodes <- bigger
    end;
    r.nodes.(r.rnext) <- t;
    r.rnext <- r.rnext + 1

  let get r s pos =
    let rec loop () =
      match Bin.gu8 s pos with
      | 0xe0 -> node r (Bin.gint s pos)
      | 0xd0 ->
        let tag = Bin.gu8 s pos in
        let un mk = mk (node r (Bin.gint s pos)) in
        let bin mk =
          let a = node r (Bin.gint s pos) in
          let b = node r (Bin.gint s pos) in
          mk a b
        in
        let t =
          match tag with
          | 0 -> Var (Bin.gstr s pos)
          | 1 -> Const (Bin.gi64 s pos)
          | 2 -> bin (fun a b -> Add (a, b))
          | 3 -> bin (fun a b -> Sub (a, b))
          | 4 -> bin (fun a b -> Mul (a, b))
          | 5 -> un (fun a -> Neg a)
          | 6 -> un (fun a -> Not a)
          | 7 -> bin (fun a b -> And (a, b))
          | 8 -> bin (fun a b -> Or (a, b))
          | 9 -> bin (fun a b -> Xor (a, b))
          | 10 -> bin (fun a b -> Shl (a, b))
          | 11 -> bin (fun a b -> Shr (a, b))
          | 12 -> bin (fun a b -> Sar (a, b))
          | _ -> raise Bin.Truncated
        in
        push r (intern t);
        loop ()
      | _ -> raise Bin.Truncated
    in
    loop ()
end

(* Structural equality after canonicalization.  Polymorphic [=] does
   not short-circuit on [==], so test the (usually shared) canonical
   nodes physically first. *)
let equal a b =
  let a = simplify a and b = simplify b in
  a == b || a = b

(* Replace variables via [f]; unmapped variables stay. *)
let rec subst f t =
  match t with
  | Var v -> ( match f v with Some t' -> t' | None -> t)
  | Const _ -> t
  | Add (a, b) -> mk_add (subst f a) (subst f b)
  | Sub (a, b) -> mk_sub (subst f a) (subst f b)
  | Mul (a, b) -> mk_mul (subst f a) (subst f b)
  | Neg a -> mk_neg (subst f a)
  | Not a -> mk_not (subst f a)
  | And (a, b) -> mk_and (subst f a) (subst f b)
  | Or (a, b) -> mk_or (subst f a) (subst f b)
  | Xor (a, b) -> mk_xor (subst f a) (subst f b)
  | Shl (a, b) -> mk_shl (subst f a) (subst f b)
  | Shr (a, b) -> mk_shr (subst f a) (subst f b)
  | Sar (a, b) -> mk_sar (subst f a) (subst f b)

(* Concrete evaluation under a model (variable valuation). *)
let rec eval model t =
  match t with
  | Var v -> model v
  | Const c -> c
  | Add (a, b) -> Int64.add (eval model a) (eval model b)
  | Sub (a, b) -> Int64.sub (eval model a) (eval model b)
  | Mul (a, b) -> Int64.mul (eval model a) (eval model b)
  | Neg a -> Int64.neg (eval model a)
  | Not a -> Int64.lognot (eval model a)
  | And (a, b) -> Int64.logand (eval model a) (eval model b)
  | Or (a, b) -> Int64.logor (eval model a) (eval model b)
  | Xor (a, b) -> Int64.logxor (eval model a) (eval model b)
  | Shl (a, b) ->
    Int64.shift_left (eval model a) (Int64.to_int (Int64.logand (eval model b) 63L))
  | Shr (a, b) ->
    Int64.shift_right_logical (eval model a) (Int64.to_int (Int64.logand (eval model b) 63L))
  | Sar (a, b) ->
    Int64.shift_right (eval model a) (Int64.to_int (Int64.logand (eval model b) 63L))
