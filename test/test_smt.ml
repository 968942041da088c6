(* Tests for the SMT substrate: simplification soundness (the canonical
   form evaluates identically to the original term under random models),
   linear solving, pointer pinning, entailment, and probabilistic
   equality. *)

open Gp_smt

let v = Term.var
let c = Term.const

(* ----- unit: simplification identities ----- *)

let test_linear_canonical () =
  (* x + 1 + 1 == 2 + x after canonicalization *)
  Alcotest.(check bool) "x+1+1 = 2+x" true
    (Term.equal
       (Term.add (Term.add (v "x") (c 1L)) (c 1L))
       (Term.add (c 2L) (v "x")));
  (* x - x == 0 *)
  Alcotest.(check bool) "x-x = 0" true (Term.equal (Term.sub (v "x") (v "x")) (c 0L));
  (* 3*x - 2*x == x *)
  Alcotest.(check bool) "3x-2x = x" true
    (Term.equal
       (Term.sub (Term.mul (c 3L) (v "x")) (Term.mul (c 2L) (v "x")))
       (v "x"))

let test_bitwise_identities () =
  Alcotest.(check bool) "x^x = 0" true (Term.equal (Term.logxor (v "x") (v "x")) (c 0L));
  Alcotest.(check bool) "x&x = x" true (Term.equal (Term.logand (v "x") (v "x")) (v "x"));
  Alcotest.(check bool) "x|0 = x" true (Term.equal (Term.logor (v "x") (c 0L)) (v "x"));
  Alcotest.(check bool) "~~x = x" true (Term.equal (Term.lognot (Term.lognot (v "x"))) (v "x"))

let test_not_as_linear () =
  (* ~x = -x - 1 is linear; so ~x + x + 1 == 0 *)
  Alcotest.(check bool) "~x+x+1 = 0" true
    (Term.equal (Term.add (Term.add (Term.lognot (v "x")) (v "x")) (c 1L)) (c 0L))

let test_shl_as_mul () =
  Alcotest.(check bool) "x<<3 = 8x" true
    (Term.equal (Term.shl (v "x") (c 3L)) (Term.mul (c 8L) (v "x")))

let test_subst () =
  let t = Term.add (v "x") (v "y") in
  let t' = Term.subst (fun n -> if n = "x" then Some (c 5L) else None) t in
  Alcotest.(check bool) "subst" true (Term.equal t' (Term.add (c 5L) (v "y")))

(* ----- properties ----- *)

let prop_simplify_sound (t, m) =
  Term.eval m t = Term.eval m (Term.simplify t)

let prop_smart_constructors_sound (t, m) =
  (* rebuilding through smart constructors preserves value *)
  Term.eval m t = Term.eval m (Gen.rebuild t)

let prop_linearize_sound (t, m) =
  match Term.linearize t with
  | None -> true
  | Some l -> Term.eval m t = Term.eval m (Term.of_linear l)

(* ----- solver ----- *)

let model_sat formulas =
  match Solver.check formulas with
  | Solver.Sat m ->
    Alcotest.(check bool) "model satisfies" true
      (List.for_all (Formula.eval (Solver.model_fn m)) formulas);
    m
  | Solver.Unsat -> Alcotest.fail "expected sat, got unsat"
  | Solver.Unknown -> Alcotest.fail "expected sat, got unknown"

let test_solver_linear_system () =
  let m =
    model_sat
      [ Formula.Eq (Term.add (v "x") (c 3L), c 10L);
        Formula.Eq (v "y", Term.add (v "x") (v "x")) ]
  in
  Alcotest.(check int64) "x" 7L (Solver.model_fn m "x");
  Alcotest.(check int64) "y" 14L (Solver.model_fn m "y")

let test_solver_unsat () =
  match
    Solver.check [ Formula.Eq (v "x", c 1L); Formula.Eq (v "x", c 2L) ]
  with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat"

let test_solver_odd_coefficient () =
  (* 3x = 9 has the unique solution x = 3 mod 2^64 *)
  let m = model_sat [ Formula.Eq (Term.mul (c 3L) (v "x"), c 9L) ] in
  Alcotest.(check int64) "x" 3L (Solver.model_fn m "x")

let test_solver_disequality () =
  ignore (model_sat [ Formula.Ne (v "x", v "y"); Formula.Eq (v "x", c 5L) ])

let test_solver_ordering () =
  ignore (model_sat [ Formula.Slt (v "x", c 0L); Formula.Ult (c 10L, v "x") ])

let test_solver_pointer_pin () =
  let pool =
    { Solver.pins = [ 0x1000L; 0x2000L ];
      readable = (fun a -> a = 0x1000L || a = 0x2000L);
      writable = (fun a -> a = 0x1000L || a = 0x2000L) }
  in
  match Solver.check ~pool [ Formula.Writable (v "p"); Formula.Readable (v "q") ] with
  | Solver.Sat m ->
    let p = Solver.model_fn m "p" and q = Solver.model_fn m "q" in
    Alcotest.(check bool) "p pinned" true (p = 0x1000L || p = 0x2000L);
    Alcotest.(check bool) "q pinned" true (q = 0x1000L || q = 0x2000L);
    Alcotest.(check bool) "distinct pins" true (p <> q)
  | _ -> Alcotest.fail "expected sat"

let test_prove_equal_xor_identity () =
  (* the substitution pass identity: (~a & b) | (a & ~b) == a ^ b.  It
     holds under every valuation, but the simplifier does not
     canonicalize it, so [Term.equal] conservatively answers false. *)
  let a = v "a" and b = v "b" in
  let lhs = Term.logor (Term.logand (Term.lognot a) b) (Term.logand a (Term.lognot b)) in
  let rhs = Term.logxor a b in
  List.iter
    (fun (x, y) ->
      let m n = if n = "a" then x else y in
      Alcotest.(check int64) "identity holds" (Term.eval m rhs) (Term.eval m lhs))
    [ (0L, 0L); (-1L, 0x5555L); (0x1234_5678L, 0x0f0fL) ];
  Alcotest.(check bool) "xor identity not canonicalized" false
    (Term.equal lhs rhs);
  Alcotest.(check bool) "refutable" false (Term.equal (Term.add a b) (Term.mul a b))

let prop_sat_models_check formulas_seed =
  (* random linear systems: any Sat answer's model satisfies all atoms *)
  let rng = Gp_util.Rng.create formulas_seed in
  let rand_term () =
    let coeff = Int64.of_int (1 + Gp_util.Rng.int rng 5) in
    let base = Term.mul (c coeff) (v (Printf.sprintf "v%d" (Gp_util.Rng.int rng 3))) in
    Term.add base (c (Int64.of_int (Gp_util.Rng.int rng 100)))
  in
  let formulas =
    List.init (1 + Gp_util.Rng.int rng 4) (fun _ ->
        Formula.Eq (rand_term (), c (Int64.of_int (Gp_util.Rng.int rng 1000))))
  in
  match Solver.check formulas with
  | Solver.Sat m -> List.for_all (Formula.eval (Solver.model_fn m)) formulas
  | Solver.Unsat | Solver.Unknown -> true

let test_formula_negate () =
  let m vname = if vname = "x" then 3L else 5L in
  List.iter
    (fun f ->
      Alcotest.(check bool) "negation flips" true
        (Formula.eval m f <> Formula.eval m (Formula.negate f)))
    [ Formula.Eq (v "x", v "y"); Formula.Ne (v "x", c 3L);
      Formula.Slt (v "x", v "y"); Formula.Ule (v "y", v "x") ]

let suite =
  [ Alcotest.test_case "linear canonical" `Quick test_linear_canonical;
    Alcotest.test_case "bitwise identities" `Quick test_bitwise_identities;
    Alcotest.test_case "not as linear" `Quick test_not_as_linear;
    Alcotest.test_case "shl as mul" `Quick test_shl_as_mul;
    Alcotest.test_case "subst" `Quick test_subst;
    Alcotest.test_case "solver linear system" `Quick test_solver_linear_system;
    Alcotest.test_case "solver unsat" `Quick test_solver_unsat;
    Alcotest.test_case "solver odd coefficient" `Quick test_solver_odd_coefficient;
    Alcotest.test_case "solver disequality" `Quick test_solver_disequality;
    Alcotest.test_case "solver ordering" `Quick test_solver_ordering;
    Alcotest.test_case "solver pointer pin" `Quick test_solver_pointer_pin;
    Alcotest.test_case "prove_equal xor identity" `Quick test_prove_equal_xor_identity;
    Alcotest.test_case "formula negate" `Quick test_formula_negate;
    Gen.qtest "simplify is sound" ~count:500
      (QCheck2.Gen.pair Gen.term Gen.model) prop_simplify_sound;
    Gen.qtest "smart constructors sound" ~count:500
      (QCheck2.Gen.pair Gen.term Gen.model) prop_smart_constructors_sound;
    Gen.qtest "linearize sound" ~count:500
      (QCheck2.Gen.pair Gen.term Gen.model) prop_linearize_sound;
    Gen.qtest "sat models check" ~count:100 QCheck2.Gen.(int_range 0 100000)
      prop_sat_models_check ]

(* ----- additional solver edge cases ----- *)

let test_solver_even_coefficient_pin () =
  (* the jump-table shape: readable(8*x + base) pins x so the read lands
     on a pool address (power-of-two pivot) *)
  let pool =
    { Solver.pins = [ 0x5008L ];
      readable = (fun a -> a = 0x5008L);
      writable = (fun _ -> false) }
  in
  match
    Solver.check ~pool
      [ Formula.Readable (Term.add (Term.mul (c 8L) (v "x")) (c 0x1000L)) ]
  with
  | Solver.Sat m ->
    Alcotest.(check int64) "x solves the table index" 0x801L
      (Solver.model_fn m "x")
  | _ -> Alcotest.fail "expected sat"

let test_solver_even_pin_indivisible () =
  (* 8*x + 1 can never be 8-aligned: the unpinnable atom survives to the
     final check and the result must not claim Sat with a bad model *)
  let pool =
    { Solver.pins = [ 0x5008L ];
      readable = (fun a -> a = 0x5008L);
      writable = (fun _ -> false) }
  in
  (match
     Solver.check ~pool
       [ Formula.Readable (Term.add (Term.mul (c 8L) (v "x")) (c 1L)) ]
   with
  | Solver.Sat m ->
    (* if it says Sat, the model must actually satisfy the atom *)
    Alcotest.(check bool) "model honest" true
      (Formula.eval ~readable:(fun a -> a = 0x5008L) (Solver.model_fn m)
         (Formula.Readable (Term.add (Term.mul (c 8L) (v "x")) (c 1L))))
  | Solver.Unsat | Solver.Unknown -> ())

let test_solver_mixed_system () =
  (* equalities + ordering + disequality together *)
  let m =
    model_sat
      [ Formula.Eq (Term.add (v "a") (v "b"), c 100L);
        Formula.Slt (v "a", v "b");
        Formula.Ne (v "a", c 0L) ]
  in
  let a = Solver.model_fn m "a" and b = Solver.model_fn m "b" in
  Alcotest.(check int64) "sum" 100L (Int64.add a b);
  Alcotest.(check bool) "ordered" true (Int64.compare a b < 0)

let test_inv64 () =
  List.iter
    (fun x ->
      Alcotest.(check int64)
        (Printf.sprintf "inv %Ld" x)
        1L
        (Int64.mul x (Solver.inv64 x)))
    [ 1L; 3L; 5L; 7L; 1103515245L; -1L; Int64.max_int ];
  Alcotest.(check bool) "even rejected" true
    (try ignore (Solver.inv64 4L); false with Invalid_argument _ -> true)

(* ----- term equality (DESIGN.md §2) ----- *)

(* [Term.equal] is canonical equality, so it is sound: any valuation
   under which the terms differ rules "equal" out. *)
let prop_model_refutes_equality (a, b, m) =
  Term.eval m a = Term.eval m b || not (Term.equal a b)

let suite =
  suite
  @ [ Alcotest.test_case "even-coefficient pin" `Quick test_solver_even_coefficient_pin;
      Alcotest.test_case "indivisible pin honest" `Quick test_solver_even_pin_indivisible;
      Alcotest.test_case "mixed system" `Quick test_solver_mixed_system;
      Alcotest.test_case "inv64" `Quick test_inv64;
      Gen.qtest "differing model => not prove_equal" ~count:500
        QCheck2.Gen.(triple Gen.term Gen.term Gen.model)
        prop_model_refutes_equality ]

(* ----- the compiled model search (DESIGN.md §2) -----

   [Solver]'s search reads its trials from a fixed table and judges
   them with residual atoms compiled over an [int64 array].  Below is
   the search as it was before: a map from names to values per trial,
   [Formula.eval] over [Term.eval], and the values drawn from a fresh
   [Rng.create 0x5eed] trial by trial.  It is kept only as the
   reference the compiled search must agree with, verdict and model. *)

module Smap = Solver.Smap

let special_values =
  [| 0L; 1L; 2L; -1L; 8L; 0x100L; 0x1000L; 0x400000L; 0x601000L; Int64.min_int |]

(* one variable's value in the old search: two draws *)
let old_draw rng =
  if Gp_util.Rng.int rng 4 = 0 then
    special_values.(Gp_util.Rng.int rng (Array.length special_values))
  else Gp_util.Rng.next_int64 rng

let old_search ~pool formulas r_atoms =
  let readable = pool.Solver.readable and writable = pool.Solver.writable in
  (* the reduction solved nothing, so sigma is empty: the free variables
     are the query's and a model is its assignment *)
  let free =
    Term.Vset.elements
      (List.fold_left
         (fun s f -> Term.Vset.union s (Formula.vars f))
         Term.Vset.empty formulas)
  in
  let closed, open_residual =
    List.partition (fun f -> Term.Vset.is_empty (Formula.vars f)) r_atoms
  in
  let holds m fs = List.for_all (Formula.eval ~readable ~writable (Solver.model_fn m)) fs in
  if not (holds Smap.empty closed) then Solver.Unknown
  else begin
    let try_assignment a =
      if holds a open_residual && holds a formulas then Some a else None
    in
    let zero = List.fold_left (fun m v -> Smap.add v 0L m) Smap.empty free in
    match try_assignment zero with
    | Some m -> Solver.Sat m
    | None ->
      if free = [] then Solver.Unknown
      else
        let rng = Gp_util.Rng.create 0x5eed in
        let rec go k =
          if k >= 200 then Solver.Unknown
          else
            let a =
              List.fold_left (fun m v -> Smap.add v (old_draw rng) m) Smap.empty free
            in
            match try_assignment a with Some m -> Solver.Sat m | None -> go (k + 1)
        in
        go 0
  end

let is_linear_eq = function
  | Formula.Eq (a, b) -> Term.linearize (Term.Raw.sub a b) <> None
  | _ -> false

(* [Solver.check ~pool formulas] before the compiled search, for the
   queries the reduction passes through: a pool without pins and no
   linear equality in the canonical conjunction.  The residual is then
   each atom re-simplified, the non-pointer atoms first, the pointer
   atoms after them in reverse (the pinning fold prepends). *)
let reference_check ~pool formulas =
  let canonical = Cache.canon formulas in
  assert (pool.Solver.pins = [] && not (List.exists is_linear_eq canonical));
  if List.mem Formula.False canonical then Solver.Unsat
  else begin
    let formulas = List.filter (fun f -> f <> Formula.True) canonical in
    let pointers, rest =
      List.partition
        (function Formula.Readable _ | Formula.Writable _ -> true | _ -> false)
        formulas
    in
    let residual =
      List.map
        (fun f -> Formula.simplify (Formula.map_terms (Term.subst (fun _ -> None)) f))
        (rest @ List.rev pointers)
    in
    if List.mem Formula.False residual then Solver.Unsat
    else old_search ~pool formulas (List.filter (fun f -> f <> Formula.True) residual)
  end

let same_result a b =
  match (a, b) with
  | Solver.Sat m, Solver.Sat m' -> Smap.equal Int64.equal m m'
  | Solver.Unsat, Solver.Unsat | Solver.Unknown, Solver.Unknown -> true
  | _ -> false

let result_to_string = function
  | Solver.Sat m ->
    "sat {"
    ^ String.concat "; "
        (List.map (fun (v, x) -> Printf.sprintf "%s=%Ld" v x) (Smap.bindings m))
    ^ "}"
  | Solver.Unsat -> "unsat"
  | Solver.Unknown -> "unknown"

let no_pin_pool =
  { Solver.pins = [];
    readable = (fun a -> Int64.logand a 7L = 0L);
    writable = (fun a -> Int64.compare a 0L >= 0) }

(* The arities whose trial table [Solver] builds once and shares
   ([precomputed_arities] in solver.ml); the tests cover both sides. *)
let shared_arities = 16

(* Residual queries: every atom kind, every term node, shift counts up
   to 130 (constant or computed), sign-bit constants, and sometimes a
   wide linear atom over more free variables than the shared tables
   cover. *)
let query_gen : Formula.t list QCheck2.Gen.t =
  let open QCheck2.Gen in
  let const =
    oneof
      [ map Int64.of_int (int_range (-300) 300);
        oneofl
          [ Int64.min_int; Int64.max_int; -1L; 0x8000_0000_0000_0001L;
            0xffff_ffff_0000_0000L; 0x7fff_ffff_ffff_fff8L ];
        Gen.imm64 ]
  in
  let term nvars =
    let var = map (fun i -> Term.var (Printf.sprintf "v%02d" i)) (int_range 0 (nvars - 1)) in
    let const = map Term.const const in
    fix
      (fun self depth ->
        if depth = 0 then oneof [ var; const ]
        else
          let sub = self (depth - 1) in
          let count =
            oneof [ map (fun k -> Term.const (Int64.of_int k)) (int_range 0 130); sub ]
          in
          oneof
            [ var; const;
              map2 Term.Raw.add sub sub;
              map2 Term.Raw.sub sub sub;
              map2 Term.Raw.mul sub sub;
              map Term.Raw.neg sub;
              map Term.Raw.lognot sub;
              map2 Term.Raw.logand sub sub;
              map2 Term.Raw.logor sub sub;
              map2 Term.Raw.logxor sub sub;
              map2 Term.Raw.shl sub count;
              map2 Term.Raw.shr sub count;
              map2 Term.Raw.sar sub count ])
      3
  in
  let atom nvars =
    let t = term nvars in
    oneof
      [ map2 (fun a b -> Formula.Eq (a, b)) t t;
        map2 (fun a b -> Formula.Ne (a, b)) t t;
        map2 (fun a b -> Formula.Slt (a, b)) t t;
        map2 (fun a b -> Formula.Sle (a, b)) t t;
        map2 (fun a b -> Formula.Ult (a, b)) t t;
        map2 (fun a b -> Formula.Ule (a, b)) t t;
        map (fun a -> Formula.Readable a) t;
        map (fun a -> Formula.Writable a) t ]
  in
  let wide nvars =
    let* coeffs = list_repeat nvars const in
    let* bound = const in
    let sum =
      List.fold_left
        (fun acc (i, k) ->
          Term.Raw.add acc (Term.Raw.mul (Term.const k) (Term.var (Printf.sprintf "v%02d" i))))
        (Term.const 0L)
        (List.mapi (fun i k -> (i, k)) coeffs)
    in
    oneofl [ Formula.Ult (sum, Term.const bound); Formula.Ne (sum, Term.const bound) ]
  in
  let* nvars = oneofl [ 2; 4; shared_arities + 3 ] in
  let* atoms = list_size (int_range 1 4) (atom nvars) in
  let* w = option ~ratio:0.3 (wide nvars) in
  let atoms = match w with Some w -> w :: atoms | None -> atoms in
  (* the reduction must pass the query through: no linear equality *)
  return (List.filter (fun f -> not (is_linear_eq (Formula.simplify f))) atoms)

let print_query fs = String.concat " /\\ " (List.map Formula.to_string fs)

let test_trial_rows () =
  let p = shared_arities in
  List.iter
    (fun n ->
      let rng = Gp_util.Rng.create 0x5eed in
      let expected = Array.init 200 (fun _ -> Array.init n (fun _ -> old_draw rng)) in
      let table = Solver.trial_table n in
      Alcotest.(check int) (Printf.sprintf "arity %d size" n) (200 * n) (Array.length table);
      Alcotest.(check (array (array int64)))
        (Printf.sprintf "arity %d" n) expected
        (Array.init 200 (fun k -> Array.sub table (k * n) n)))
    [ 1; 2; 3; 5; p - 1; p; p + 1; p + 9 ]

let prop_compiled_search fs =
  let got = Solver.check ~pool:no_pin_pool fs in
  let want = reference_check ~pool:no_pin_pool fs in
  same_result got want
  || QCheck2.Test.fail_reportf "check: %s, reference: %s" (result_to_string got)
       (result_to_string want)

(* The shared table is read by every domain at once: four domains, each
   answering the whole batch from its own starting point, answer every
   query as one domain alone does. *)
let test_search_domains () =
  let queries =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 28 |]) ~n:160 query_gen
  in
  let answer fs = Solver.check ~pool:no_pin_pool fs in
  let sequential = List.map answer queries in
  let sats = List.length (List.filter (function Solver.Sat _ -> true | _ -> false) sequential) in
  let unknowns = List.length (List.filter (( = ) Solver.Unknown) sequential) in
  Alcotest.(check bool) "the batch has Sat and Unknown answers" true
    (sats > 0 && unknowns > 0);
  let qs = Array.of_list queries in
  let n = Array.length qs in
  let workers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let out = Array.make n Solver.Unsat in
            for j = 0 to n - 1 do
              let i = (j + (d * n / 4)) mod n in
              out.(i) <- answer qs.(i)
            done;
            out))
  in
  List.iteri
    (fun d w ->
      let out = Domain.join w in
      List.iteri
        (fun i r ->
          if not (same_result r out.(i)) then
            Alcotest.failf "domain %d, query %d (%s): %s, alone: %s" d i
              (print_query qs.(i)) (result_to_string out.(i)) (result_to_string r))
        sequential)
    workers

(* ----- structural order against the pre-key variant -----

   [Cache.canon] sorts atoms with polymorphic [compare], and the
   reduction pins pointer atoms in that order, so the order of terms and
   atoms must be the structural order of the variant before interior
   nodes carried keys ([Gen.Mirror]).  Terms over a small alphabet, so
   pairs share subterms and ties below the root are common; raw terms
   are compared with raw ones and canonical with canonical ones, the
   only mix the solver sees. *)

let small_term =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [ map (fun i -> Term.var (Printf.sprintf "v%d" i)) (int_range 0 2);
        map Term.const (oneofl [ 0L; 1L; 2L; -1L; 8L ]) ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        let sub = self (depth - 1) in
        oneof
          [ leaf;
            map2 Term.Raw.add sub sub;
            map2 Term.Raw.sub sub sub;
            map2 Term.Raw.mul sub sub;
            map Term.Raw.neg sub;
            map Term.Raw.lognot sub;
            map2 Term.Raw.logand sub sub;
            map2 Term.Raw.logor sub sub;
            map2 Term.Raw.logxor sub sub;
            map2 Term.Raw.shl sub sub;
            map2 Term.Raw.shr sub sub;
            map2 Term.Raw.sar sub sub ])
    3

let prop_compare_mirror ts =
  let module M = Gen.Mirror in
  let sign x = compare x 0 in
  let agree xs mirror =
    List.for_all
      (fun a ->
        List.for_all
          (fun b -> sign (compare a b) = sign (compare (mirror a) (mirror b)))
          xs)
      xs
  in
  let atoms ts =
    List.concat_map
      (fun a ->
        Formula.[ Readable a; Writable a ]
        @ List.concat_map (fun b -> Formula.[ Eq (a, b); Ne (a, b); Ult (a, b); Sle (a, b) ]) ts)
      ts
  in
  let canon_ts = List.map Term.simplify ts in
  let canon_atoms = List.map Formula.simplify (atoms ts) in
  agree ts M.term
  && agree canon_ts M.term
  && agree (atoms ts) M.atom
  && agree canon_atoms M.atom
  && List.map M.atom (Cache.canon (atoms ts))
     = List.sort_uniq compare (List.map M.atom canon_atoms)

let suite =
  suite
  @ [ Alcotest.test_case "trial table rows are the old draws" `Quick test_trial_rows;
      QCheck_alcotest.to_alcotest
        (QCheck2.Test.make ~name:"compiled search = old trial loop" ~count:400
           ~print:print_query query_gen prop_compiled_search);
      Alcotest.test_case "search on 4 domains = 1 domain" `Quick test_search_domains;
      QCheck_alcotest.to_alcotest
        (QCheck2.Test.make ~name:"compare agrees with the pre-key mirror" ~count:200
           QCheck2.Gen.(list_size (int_range 2 6) small_term) prop_compare_mirror) ]

(* ----- canonical shapes: the fast paths against the reference -----

   On canonical terms [linearize] reads the spine, [add]/[sub] of a
   constant re-intern only the top node, and [const_distance] compares
   variable parts.  Each must answer exactly as [Gen.Reference], the
   general path they replace, over Gen's raw terms: the same linear
   form and the same node. *)

(* Interior nodes are interned, so the same node is [==]; leaves are
   rebuilt freely, so [=] for them. *)
let same_node a b = match a with Term.Var _ | Term.Const _ -> a = b | _ -> a == b

let offset = QCheck2.Gen.(oneof [ Gen.imm64; map Int64.of_int (int_range (-24) 24) ])

(* Gen's terms, plus raw sums over up to six variables, whose spines
   are long, and sums added to a non-linear part. *)
let shape_term =
  let open QCheck2.Gen in
  let coeff = oneof [ return 1L; return (-1L); offset ] in
  let summand =
    map2
      (fun i k ->
        let x = v (Printf.sprintf "x%d" i) in
        match k with 1L -> x | -1L -> Term.Raw.neg x | k -> Term.Raw.mul (c k) x)
      (int_range 0 5) coeff
  in
  let sum =
    map2 (fun ts k -> List.fold_left Term.Raw.add (c k) ts) (list_size (int_range 1 6) summand)
      offset
  in
  oneof
    [ Gen.term;
      sum;
      map3 (fun a b s -> Term.Raw.add (Term.Raw.logxor a b) s) Gen.term Gen.term sum ]

let prop_linearize_reference t =
  let s = Term.simplify t in
  Term.linearize s = Gen.Reference.linearize s && Term.linearize t = Gen.Reference.linearize t

(* [r], built by the library, against the reference's [built]: its node
   when the result linearizes, else the node [mirror] as it is. *)
let built_as built r mirror =
  match built with
  | Some e -> same_node r e
  | None -> Term.canonical r && Gen.Mirror.term r = mirror

let prop_add_const_reference (t, k1, k2) =
  let a = Term.add t (c k1) in
  List.for_all
    (fun (base, k) ->
      let module M = Gen.Mirror in
      let m = M.term (Term.simplify base) in
      built_as (Gen.Reference.add base (c k)) (Term.add base (c k)) (M.Add (m, M.Const k))
      && built_as (Gen.Reference.add (c k) base) (Term.add (c k) base) (M.Add (M.Const k, m))
      && built_as (Gen.Reference.sub base (c k)) (Term.sub base (c k)) (M.Sub (m, M.Const k)))
    [ (t, k1); (Term.simplify t, k2); (a, k2); (a, Int64.neg k1) ]

let prop_const_distance_reference (t, u, k1, k2) =
  let at x k = Term.add x (c k) in
  List.for_all
    (fun (a, b) -> Term.const_distance a b = Gen.Reference.const_distance a b)
    [ (at t k1, at t k2); (t, at t k1); (at t k1, t); (t, Term.Raw.add t (c k2));
      (t, u); (at t k1, at u k2); (t, t); (c k1, c k2); (c k1, at t k2) ]

(* Every canonical subterm that linearizes is [of_linear] of its form. *)
let prop_canonical_shape t =
  let rec holds s =
    (match Gen.Reference.linearize s with
     | Some l -> same_node s (Term.of_linear l)
     | None -> true)
    &&
    match s with
    | Term.Var _ | Term.Const _ -> true
    | Term.Neg (a, _) | Term.Not (a, _) -> holds a
    | Term.Add (a, b, _) | Term.Sub (a, b, _) | Term.Mul (a, b, _) | Term.And (a, b, _)
    | Term.Or (a, b, _) | Term.Xor (a, b, _) | Term.Shl (a, b, _) | Term.Shr (a, b, _)
    | Term.Sar (a, b, _) ->
      holds a && holds b
  in
  holds (Term.simplify t)

let suite =
  suite
  @ [ Gen.qtest "linearize = reference, canonical and raw" ~count:500 shape_term
        prop_linearize_reference;
      Gen.qtest "add/sub of a constant = reference node" ~count:500
        QCheck2.Gen.(triple shape_term offset offset)
        prop_add_const_reference;
      Gen.qtest "const_distance = reference" ~count:500
        QCheck2.Gen.(quad shape_term shape_term offset offset)
        prop_const_distance_reference;
      Gen.qtest "canonical-shape invariant" ~count:500 shape_term prop_canonical_shape ]
