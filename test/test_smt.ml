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
  let rec rebuild t =
    match t with
    | Term.Var _ | Term.Const _ -> t
    | Term.Add (a, b) -> Term.add (rebuild a) (rebuild b)
    | Term.Sub (a, b) -> Term.sub (rebuild a) (rebuild b)
    | Term.Mul (a, b) -> Term.mul (rebuild a) (rebuild b)
    | Term.Neg a -> Term.neg (rebuild a)
    | Term.Not a -> Term.lognot (rebuild a)
    | Term.And (a, b) -> Term.logand (rebuild a) (rebuild b)
    | Term.Or (a, b) -> Term.logor (rebuild a) (rebuild b)
    | Term.Xor (a, b) -> Term.logxor (rebuild a) (rebuild b)
    | Term.Shl (a, b) -> Term.shl (rebuild a) (rebuild b)
    | Term.Shr (a, b) -> Term.shr (rebuild a) (rebuild b)
    | Term.Sar (a, b) -> Term.sar (rebuild a) (rebuild b)
  in
  Term.eval m t = Term.eval m (rebuild t)

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

(* ----- abstract domain (Tier A screening, DESIGN.md §12) ----- *)

(* The soundness invariant everything else rests on: the abstract value
   of a term over-approximates its concrete value under EVERY model. *)
let prop_absdom_sound (t, m) = Absdom.mem (Term.eval m t) (Absdom.of_term t)

(* Disjoint abstract values really separate the terms: no model makes
   them equal — which is what licenses Tier A's [Eq] refutation. *)
let prop_absdom_disjoint_refutes (a, b, m) =
  (not (Absdom.disjoint (Absdom.of_term a) (Absdom.of_term b)))
  || Term.eval m a <> Term.eval m b

(* A definite formula verdict agrees with concrete evaluation under
   every model (Readable/Writable atoms are always Maybe, so the
   default eval predicates are never consulted on a definite answer). *)
let prop_absdom_formula_agrees (f, m) =
  match Absdom.formula f with
  | Absdom.Maybe -> true
  | Absdom.Yes -> Formula.eval m f
  | Absdom.No -> not (Formula.eval m f)

let test_absdom_units () =
  let open Absdom in
  Alcotest.(check bool) "const is const" true (is_const (of_const 42L));
  Alcotest.(check bool) "const value" true (const_of (of_const 42L) = Some 42L);
  Alcotest.(check bool) "top unconstrained" true
    (mem 0L top && mem Int64.min_int top && mem (-1L) top);
  (* x*8 has its low three bits known zero, so it can never equal 1 *)
  let x8 = Term.mul (c 8L) (v "x") in
  Alcotest.(check bool) "8x /= 1" true
    (disjoint (of_term x8) (of_const 1L));
  Alcotest.(check bool) "8x may be 16" false
    (disjoint (of_term x8) (of_const 16L));
  (* constant folding through the domain *)
  Alcotest.(check bool) "const fold" true
    (const_of (of_term (Term.add (c 5L) (c 7L))) = Some 12L);
  (* formula screening on constants *)
  Alcotest.(check bool) "1=2 is No" true
    (formula (Formula.Eq (c 1L, c 2L)) = No);
  Alcotest.(check bool) "8x=1 is No" true
    (formula (Formula.Eq (x8, c 1L)) = No);
  Alcotest.(check bool) "pointer atoms Maybe" true
    (formula (Formula.Readable (v "p")) = Maybe)

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
      Alcotest.test_case "absdom units" `Quick test_absdom_units;
      Gen.qtest "absdom over-approximates eval" ~count:1000
        QCheck2.Gen.(pair Gen.term Gen.model) prop_absdom_sound;
      Gen.qtest "absdom disjoint refutes equality" ~count:500
        QCheck2.Gen.(triple Gen.term Gen.term Gen.model)
        prop_absdom_disjoint_refutes;
      Gen.qtest "absdom formula verdicts sound" ~count:1000
        QCheck2.Gen.(pair Gen.formula Gen.model) prop_absdom_formula_agrees;
      Gen.qtest "differing model => not prove_equal" ~count:500
        QCheck2.Gen.(triple Gen.term Gen.term Gen.model)
        prop_model_refutes_equality ]
