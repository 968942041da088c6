(* Stage 3–4 concurrency & hash-consing tests (DESIGN.md "Concurrency
   & determinism", "Stage 3–4 portfolio & hash-consing").  Three
   angles:

   - differential: the full pipeline — goal-portfolio planner and
     validation included — run as concurrent requests on JOBS domains
     is bit-identical to the same requests run one after another across
     survey cells: chains, planner counters, validation tallies, rungs;
     the request-scoped candidate table ranks each condition once;
   - fault injection under concurrent validation: the chain-keyed
     emulator fuse (plus the keyed decode/solver schedules) must hit
     the same items whatever runs beside a request, so outcomes are
     invariant;
   - hash-consing properties: canonical terms are physically equal
     exactly when structurally equal (built on 4 domains too), simplify
     is idempotent, returns the interned node and never a raw input
     unchanged, a warm table answers exactly as a cold one (from 4
     domains too), the reset contract holds, the
     per-base layout pools match the per-query construction, and the
     pool-keyed solver memo is semantically transparent — a hit replays
     through the query's own substitution, from any domain.

   JOBS (default 4) sizes the pool, so `make check-plan-par` sweeps it
   without editing code. *)

let jobs_under_test = Gen.jobs_under_test

(* ----- differential: full pipeline, planner counters included ----- *)

let diff_programs =
  [ "fibonacci"; "gcd_lcm"; "bubble_sort"; "crc_check"; "stack_machine" ]

let planner_config =
  { Gp_core.Planner.max_plans = 4; node_budget = 1200; time_budget = 10.;
    branch_cap = 10; goal_cap = 6; max_steps = 14 }

(* Everything in the outcome that must not depend on what runs beside
   the request — including the stage 3-4 observability counters.
   Cache hit/miss counters, [solver_unknowns] and wall-clock times are
   deliberately absent: they are deltas of process-wide counters
   (shared by concurrent requests) or properties of the host. *)
type fingerprint = {
  f_extracted : int;
  f_deduped : int;
  f_pool_size : int;
  f_plans_found : int;
  f_chains : string list;            (* sorted chain keys *)
  f_chains_built : int;
  f_chains_validated : int;
  f_plan_expanded : int;
  f_plan_peak_queue : int;
  f_plan_inst_hits : int;
  f_plan_cand_hits : int;
  f_plan_discarded : int;
  f_vfaults : int;
  f_vtimeouts : int;
  f_quarantined : (string * int) list;
  f_budget_hits : string list;
  f_rungs : string list;
}

let fingerprint (o : Gp_core.Api.outcome) =
  let s = o.Gp_core.Api.stats in
  { f_extracted = s.Gp_core.Api.extracted;
    f_deduped = s.Gp_core.Api.deduped;
    f_pool_size = s.Gp_core.Api.pool_size;
    f_plans_found = s.Gp_core.Api.plans_found;
    f_chains =
      List.sort compare
        (List.map Gp_core.Payload.chain_key o.Gp_core.Api.chains);
    f_chains_built = s.Gp_core.Api.chains_built;
    f_chains_validated = s.Gp_core.Api.chains_validated;
    f_plan_expanded = s.Gp_core.Api.plan_expanded;
    f_plan_peak_queue = s.Gp_core.Api.plan_peak_queue;
    f_plan_inst_hits = s.Gp_core.Api.plan_inst_hits;
    f_plan_cand_hits = s.Gp_core.Api.plan_cand_hits;
    f_plan_discarded = s.Gp_core.Api.plan_discarded;
    f_vfaults = s.Gp_core.Api.validate_faults;
    f_vtimeouts = s.Gp_core.Api.validate_timeouts;
    f_quarantined = s.Gp_core.Api.quarantined;
    f_budget_hits = s.Gp_core.Api.budget_hits;
    f_rungs = List.map Gp_core.Api.rung_name o.Gp_core.Api.rungs }

let run_once image =
  Gp_core.Api.run ~planner_config ~ids:(Gp_core.Gadget.local_ids ()) image
    (Gp_core.Goal.Execve "/bin/sh")

let compile pname cfg =
  Gp_codegen.Pipeline.compile ~transform:(Gp_obf.Obf.transform cfg)
    (Gp_corpus.Programs.find pname).Gp_corpus.Programs.source

let test_differential () =
  let cells =
    List.concat_map
      (fun pname ->
        List.map
          (fun (cname, cfg) -> (pname ^ "/" ^ cname, compile pname cfg))
          Gp_harness.Workspace.obf_configs)
      diff_programs
  in
  let seq = List.map (fun (_, image) -> fingerprint (run_once image)) cells in
  let par =
    Gen.concurrently ~jobs:jobs_under_test
      (List.map (fun (_, image) () -> fingerprint (run_once image)) cells)
  in
  List.iter2
    (fun ((cell, _), s) p ->
      Alcotest.(check bool) (cell ^ " identical") true (s = p))
    (List.combine cells seq) par

(* The portfolio must actually produce chains on an easy cell — a
   determinism test that compares two empty runs proves nothing. *)
let test_portfolio_finds_chains () =
  let o = run_once (compile "fibonacci" Gp_obf.Obf.ollvm) in
  Alcotest.(check bool) "chains found" true (o.Gp_core.Api.chains <> []);
  Alcotest.(check bool)
    "quota respected" true
    (List.length o.Gp_core.Api.chains
     <= planner_config.Gp_core.Planner.max_plans);
  Alcotest.(check bool)
    "planner expanded nodes" true
    (o.Gp_core.Api.stats.Gp_core.Api.plan_expanded > 0);
  Alcotest.(check bool)
    "peak queue observed" true
    (o.Gp_core.Api.stats.Gp_core.Api.plan_peak_queue > 0)

(* The portfolio's roots share one candidate table per request.  On a
   cell with several roots, each condition is ranked exactly once, the
   roots do take each other's rankings, and every count is the same in
   concurrent searches over one shared pool — so the differential above
   compares live [plan_inst_hits], not zeros. *)
let test_shared_candidate_table () =
  let image = compile "fibonacci" Gp_obf.Obf.ollvm in
  let a = Gp_core.Api.analyze ~ids:(Gp_core.Gadget.local_ids ()) image in
  let goal = Gp_core.Goal.concretize image (Gp_core.Goal.Execve "/bin/sh") in
  Alcotest.(check bool) "several roots" true
    (List.length a.Gp_core.Api.pool.Gp_core.Pool.syscall_gadgets > 1);
  let search () =
    let r = Gp_core.Planner.search ~config:planner_config a.Gp_core.Api.pool goal in
    Alcotest.(check int) "one ranking per condition"
      r.Gp_core.Planner.conditions r.Gp_core.Planner.rankings;
    ( [ r.Gp_core.Planner.rankings; r.Gp_core.Planner.inst_memo_hits;
        r.Gp_core.Planner.cand_memo_hits; r.Gp_core.Planner.expanded ],
      List.map Gp_core.Plan.signature r.Gp_core.Planner.plans )
  in
  let s1 = search () in
  Alcotest.(check bool) "roots share rankings" true (List.nth (fst s1) 1 > 0);
  List.iteri
    (fun i sn ->
      Alcotest.(check (list int))
        (Printf.sprintf "concurrent search %d counters" i) (fst s1) (fst sn);
      Alcotest.(check bool) (Printf.sprintf "concurrent search %d plans" i) true
        (snd s1 = snd sn))
    (Gen.copies search);
  let inst_hits () =
    (run_once image).Gp_core.Api.stats.Gp_core.Api.plan_inst_hits
  in
  let h1 = inst_hits () in
  Alcotest.(check bool) "plan_inst_hits live" true (h1 > 0);
  List.iteri
    (fun i h ->
      Alcotest.(check int)
        (Printf.sprintf "concurrent request %d plan_inst_hits" i) h1 h)
    (Gen.copies inst_hits)

(* ----- fault injection under concurrent validation ----- *)

(* A 10% uniform sweep — decode, solver, AND the chain-keyed emulator
   fuse — over one request alone and JOBS copies of it at once: every
   schedule is keyed on the item, so the whole outcome (chains,
   tallies, rungs) is invariant. *)
let test_faults_invariant_under_jobs () =
  let image = compile "fibonacci" Gp_obf.Obf.tigress in
  let cfg = Gp_harness.Faultsim.uniform ~seed:11 0.1 in
  Gp_harness.Faultsim.with_faults cfg (fun () ->
      let run () = fingerprint (run_once image) in
      let f1 = run () in
      List.iteri
        (fun i f ->
          Alcotest.(check bool) (Printf.sprintf "concurrent copy %d identical" i)
            true (f1 = f))
        (Gen.copies run);
      (* the sweep must actually be injecting *)
      match List.assoc_opt "decode" f1.f_quarantined with
      | Some n when n > 0 -> ()
      | _ -> Alcotest.fail "no decode faults quarantined at 10%")

(* The keyed fuse itself: for a fixed key the armed step count is a
   pure function of (seed, key) — repeated reads agree, and distinct
   keys produce an actual schedule (some fire, some don't) at 50%. *)
let test_keyed_fuse_pure () =
  let cfg = { (Gp_harness.Faultsim.uniform ~seed:7 0.5) with
              Gp_harness.Faultsim.decode_rate = 0.; solver_rate = 0. } in
  Gp_harness.Faultsim.with_faults cfg (fun () ->
      let reads k = List.init 3 (fun _ -> !Gp_emu.Machine.chaos_fuse_keyed k) in
      List.iter
        (fun k ->
          match reads k with
          | [ a; b; c ] ->
            Alcotest.(check bool) "stable per key" true (a = b && b = c)
          | _ -> assert false)
        [ 0; 1; 42; 1337; -5 ];
      let fired =
        List.filter (fun k -> !Gp_emu.Machine.chaos_fuse_keyed k <> None)
          (List.init 64 (fun i -> i))
      in
      Alcotest.(check bool) "some keys fire at 50%" true (fired <> []);
      Alcotest.(check bool) "some keys spared at 50%" true
        (List.length fired < 64))

(* ----- hash-consing properties ----- *)

module T = Gp_smt.Term
module M = Gen.Mirror

let is_leaf = function T.Var _ | T.Const _ -> true | _ -> false

(* A structural copy sharing no node with its source, built raw. *)
let copy (t : T.t) : T.t = M.raw (M.term t)

(* Physical equality of canonical interior nodes is exactly structural
   equality. *)
let prop_intern_physeq (a, b) =
  let a = T.simplify a and b = T.simplify b in
  is_leaf a || is_leaf b || (a == b) = (M.term a = M.term b)

(* The key is structural: a raw copy of a canonical term hashes as the
   term does, is [same] only once simplified, and simplifies back to
   the same structure. *)
let prop_intern_identity t =
  let s = T.simplify t in
  let c = copy s in
  T.hash c = T.hash s
  && (is_leaf s || not (T.same c s))
  && T.same (T.simplify c) s
  && M.term (T.simplify c) = M.term s

(* Simplify is idempotent: a canonical input comes back as it is. *)
let prop_simplify_idempotent_interned t =
  let s = T.simplify t in
  T.simplify s == s && T.simplify (copy s) = s

(* Every interior node of a simplify result is the interned node: a raw
   copy of any of its subterms resolves to that very subterm. *)
let prop_simplify_result_interned t =
  let rec interned u =
    is_leaf u
    || T.simplify (copy u) == u
       &&
       match u with
       | T.Var _ | T.Const _ -> true
       | T.Neg (a, _) | T.Not (a, _) -> interned a
       | T.Add (a, b, _) | T.Sub (a, b, _) | T.Mul (a, b, _) | T.And (a, b, _)
       | T.Or (a, b, _) | T.Xor (a, b, _) | T.Shl (a, b, _) | T.Shr (a, b, _)
       | T.Sar (a, b, _) ->
         interned a && interned b
  in
  interned (T.simplify t)

(* Each term simplified on a freshly emptied table. *)
let cold ts =
  List.map
    (fun t ->
      T.reset_memo ();
      M.term (T.simplify t))
    ts

(* Cold vs warm: warming the table by simplifying the list and its
   results, twice, must not change an answer, and non-leaf answers are
   the interned nodes. *)
let prop_warm_equals_cold ts =
  let expect = cold ts in
  T.reset_memo ();
  for _ = 1 to 2 do
    List.iter (fun t -> ignore (T.simplify (T.simplify t))) ts
  done;
  let warm = List.map T.simplify ts in
  List.for_all2
    (fun w e -> M.term w = e && (is_leaf w || T.simplify (copy w) == w))
    warm expect

(* A fresh copy of a canonical term resolves to the very same node. *)
let prop_fresh_copy_same_node t =
  let s = T.simplify t in
  is_leaf s || (T.simplify s == s && T.simplify (copy s) == s)

(* No raw input comes back unchanged, even when its canonical form is
   already in the table: the raw copy of a canonical term still
   resolves to the interned node, and a raw term's answer is canonical. *)
let prop_raw_never_returned t =
  let s = T.simplify t in
  let c = copy s in
  (is_leaf t || T.simplify t != t)
  && (is_leaf c || T.simplify c != c)
  && T.simplify s == s

(* Four domains simplifying the same terms on one table get physically
   identical answers (leaves, which are not interned, equal ones), equal
   to the cold ones. *)
let prop_four_domains ts =
  let expect = cold ts in
  T.reset_memo ();
  let answers =
    List.map Domain.join
      (List.init 4 (fun _ ->
           Domain.spawn (fun () ->
               List.map T.simplify ts |> ignore;
               List.map T.simplify ts)))
  in
  let first = List.hd answers in
  let identical a b = if is_leaf a then T.same a b else a == b in
  List.map M.term first = expect && List.for_all (List.for_all2 identical first) answers

(* Structurally equal canonical terms built on four domains are one
   node: each domain builds its own raw copies of the terms, in its own
   order, and canonicalizes them through the smart constructors. *)
let prop_four_domains_build ts =
  T.reset_memo ();
  let built =
    List.map Domain.join
      (List.init 4 (fun d ->
           Domain.spawn (fun () ->
               let mine = List.map copy ts in
               let order = if d mod 2 = 0 then mine else List.rev mine in
               let out = List.map (fun t -> (t, Gen.rebuild t)) order in
               List.map (fun t -> List.assq t out) mine)))
  in
  let all = List.concat built in
  List.for_all
    (fun a ->
      List.for_all
        (fun b -> is_leaf a || is_leaf b || (a == b) = (M.term a = M.term b))
        all)
    all

(* The reset contract (term.mli): a canonical term that outlives
   [reset_memo] stays canonical and keeps its structural [=], [compare],
   [hash] and [same], but is no longer the node an equal term built
   afterwards resolves to; that term is the new table's node. *)
let test_reset_contract () =
  let v n = T.var n in
  let build () = T.add (T.logand (v "x") (v "y")) (T.mul (T.const 3L) (v "z")) in
  let before = build () in
  Alcotest.(check bool) "one table: one node" true (build () == before);
  Gp_harness.Survey.reset_world ();
  let after = build () in
  Alcotest.(check bool) "not the same node" false (after == before);
  Alcotest.(check bool) "structurally equal" true (after = before);
  Alcotest.(check int) "compare" 0 (compare after before);
  Alcotest.(check int) "hash" (T.hash before) (T.hash after);
  Alcotest.(check bool) "same" true (T.same after before && T.equal after before);
  Alcotest.(check bool) "old node still canonical" true (T.simplify before == before);
  Alcotest.(check bool) "new table's node" true (T.simplify (copy before) == after)

(* A raw input whose canonical form is in the table is still simplified,
   not handed back as it is. *)
let test_raw_pinned () =
  let x = T.var "v0" in
  let t = T.Raw.add x x in
  let expect = T.mul (T.const 2L) x in
  Alcotest.(check bool) "canonical form" true (M.term (T.simplify t) = M.term expect);
  Alcotest.(check bool) "interned" true (T.simplify t == expect);
  let raw_canon = T.Raw.mul (T.const 2L) x in
  Alcotest.(check bool) "raw copy of a canonical form" true
    (M.term raw_canon = M.term expect && not (T.same raw_canon expect));
  Alcotest.(check bool) "resolves to the interned node" true
    (T.simplify raw_canon == expect)

(* Layout builds its rotated pools once per payload base: for every salt,
   before and after re-pointing the base, [pool ~salt] carries exactly
   the pins of the per-query construction and [pool_key] is the same
   (base, rotation) pair. *)
let test_layout_pools_per_base () =
  let module L = Gp_core.Layout in
  let reference_pins salt =
    let pins =
      List.init 14 (fun k -> Int64.add (L.payload_base ()) (Int64.of_int (0xc00 + (k * 0x800))))
    in
    let n = List.length pins in
    let rot = ((salt mod n) + n) mod n in
    (List.filteri (fun i _ -> i >= rot) pins @ List.filteri (fun i _ -> i < rot) pins,
     (L.payload_base (), rot))
  in
  let check_all label =
    for salt = -40 to 40 do
      let pins, key = reference_pins salt in
      if (L.pool ~salt).Gp_smt.Solver.pins <> pins then
        Alcotest.failf "%s: pins differ at salt %d" label salt;
      if L.pool_key ~salt <> key then
        Alcotest.failf "%s: pool_key differs at salt %d" label salt
    done
  in
  Fun.protect ~finally:L.reset (fun () ->
      check_all "default base";
      L.set_payload_base 0x7ffe_0000_1000L;
      check_all "moved base";
      Alcotest.(check bool) "pool follows the base" true
        (List.hd (L.pool ~salt:0).Gp_smt.Solver.pins = Int64.add 0x7ffe_0000_1000L 0xc00L);
      L.reset ();
      check_all "reset base")

(* The pool-keyed solver memo answers exactly what an uncached solve
   against the same pool answers — miss and hit alike. *)
let prop_pool_key_verdict fs =
  Gp_smt.Cache.reset Gp_smt.Solver.pool_memo;
  let pool = Gp_core.Layout.pool ~salt:3 in
  let pk = Gp_core.Layout.pool_key ~salt:3 in
  let plain = Gp_smt.Solver.check ~pool fs in
  let miss = Gp_smt.Solver.check ~pool ~pool_key:pk fs in
  let hit = Gp_smt.Solver.check ~pool ~pool_key:pk fs in
  plain = miss && miss = hit

(* The counterexample QCheck once found (seed 553914340): two pointer
   atoms out of canonical order.  The unkeyed solve pinned them in the
   caller's order, the keyed memo in canonical order, so the two Sat
   models swapped the pool addresses. *)
let test_pool_key_verdict_pinned () =
  let v n = Gp_smt.Term.var n in
  let fs = Gp_smt.Formula.[ Readable (v "v1"); Readable (v "v0") ] in
  Alcotest.(check bool) "plain = keyed miss = keyed hit" true
    (prop_pool_key_verdict fs);
  let pool = Gp_core.Layout.pool ~salt:3 in
  Alcotest.(check bool) "conjunct order does not matter" true
    (Gp_smt.Solver.check ~pool fs = Gp_smt.Solver.check ~pool (List.rev fs))

(* ----- the solver memo: one outcome per open residual ----- *)

let memo_pool () = (Gp_core.Layout.pool ~salt:3, Gp_core.Layout.pool_key ~salt:3)

(* [Ne (y, 0)] leaves itself as the open residual over [y]; adding
   [Eq (x, y + 5)] or [Eq (x, 0)] only gives the eliminator a binding
   for [x], so all three queries share one memo key and the later two
   are answered by replaying the first's assignment through their own
   substitution.  With [x := 0], a model that leaves [x] out still
   passes the double-check ([model_fn] reads 0), so only the binding
   itself shows that the replay went through sigma. *)
let memo_first, memo_hits =
  let open Gp_smt.Formula in
  let x = Gp_smt.Term.var "x" and y = Gp_smt.Term.var "y" in
  let zero = Gp_smt.Term.const 0L in
  let first = [ Ne (y, zero) ] in
  ( first,
    [ first @ [ Eq (x, Gp_smt.Term.Raw.add y (Gp_smt.Term.const 5L)) ];
      first @ [ Eq (x, zero) ] ] )

(* No trial can pass: a square is never 3 mod 8. *)
let memo_exhausted =
  let x = Gp_smt.Term.var "x" in
  Gp_smt.Formula.[ Eq (Gp_smt.Term.Raw.mul x x, Gp_smt.Term.const 3L) ]

let same_result a b =
  let module S = Gp_smt.Solver in
  match (a, b) with
  | S.Sat m, S.Sat m' -> S.Smap.bindings m = S.Smap.bindings m'
  | S.Unsat, S.Unsat | S.Unknown, S.Unknown -> true
  | _ -> false

(* The [memo_hits] queries, keyed, after [memo_first] has filled the
   memo: each hits, answers as an unkeyed [check], and binds [x]
   through its own substitution. *)
let check_memo_hits label =
  let module S = Gp_smt.Solver in
  let pool, pool_key = memo_pool () in
  List.iteri
    (fun i fs ->
      let label = Printf.sprintf "%s, query %d" label i in
      let h0 = Gp_smt.Cache.hits S.pool_memo in
      let keyed = S.check ~pool ~pool_key fs in
      Alcotest.(check int) (label ^ ": hits the memo") (h0 + 1)
        (Gp_smt.Cache.hits S.pool_memo);
      Alcotest.(check bool) (label ^ ": answers as an unkeyed check") true
        (same_result keyed (S.check ~pool fs));
      match keyed with
      | S.Sat m ->
        Alcotest.(check bool) (label ^ ": model binds x, y <> 0") true
          (S.Smap.mem "x" m && S.model_fn m "y" <> 0L)
      | _ -> Alcotest.fail (label ^ ": expected Sat"))
    memo_hits

let test_memo_hit_through_sigma () =
  let module S = Gp_smt.Solver in
  Gp_smt.Cache.reset S.pool_memo;
  let pool, pool_key = memo_pool () in
  ignore (S.check ~pool ~pool_key memo_first);
  check_memo_hits "same domain"

let test_memo_across_domains () =
  let module S = Gp_smt.Solver in
  Gp_smt.Cache.reset S.pool_memo;
  let pool, pool_key = memo_pool () in
  Domain.join (Domain.spawn (fun () -> ignore (S.check ~pool ~pool_key memo_first)));
  Domain.join (Domain.spawn (fun () -> check_memo_hits "another domain"))

(* Distinct rotations get distinct keys (within one payload base), and
   equal salts mod the pin count collapse to one key — the key really
   is the pool's identity. *)
let test_pool_key_structure () =
  let npins = List.length (Gp_core.Layout.pin_candidates ()) in
  Alcotest.(check bool) "same rotation, same key" true
    (Gp_core.Layout.pool_key ~salt:1
     = Gp_core.Layout.pool_key ~salt:(1 + npins));
  Alcotest.(check bool) "different rotation, different key" true
    (Gp_core.Layout.pool_key ~salt:1 <> Gp_core.Layout.pool_key ~salt:2)

let suite =
  [ Alcotest.test_case "differential jobs=N vs jobs=1 (stages 3-4)" `Slow
      test_differential;
    Alcotest.test_case "portfolio finds chains" `Quick
      test_portfolio_finds_chains;
    Alcotest.test_case "shared candidate table: one ranking per condition"
      `Quick test_shared_candidate_table;
    Alcotest.test_case "faults invariant under jobs (keyed fuse)" `Slow
      test_faults_invariant_under_jobs;
    Alcotest.test_case "keyed fuse pure per key" `Quick test_keyed_fuse_pure;
    Alcotest.test_case "pool_key structure" `Quick test_pool_key_structure;
    Alcotest.test_case "pool-keyed verdict: pinned counterexample" `Quick
      test_pool_key_verdict_pinned;
    Gen.qtest "intern: physical eq iff structural eq" ~count:300
      QCheck2.Gen.(pair Gen.term Gen.term) prop_intern_physeq;
    Gen.qtest "intern preserves structure" ~count:300 Gen.term
      prop_intern_identity;
    Gen.qtest "simplify idempotent under interning" ~count:300 Gen.term
      prop_simplify_idempotent_interned;
    Gen.qtest "simplify result is interned" ~count:300 Gen.term
      prop_simplify_result_interned;
    Gen.qtest "simplify: warm table answers as cold" ~count:100
      QCheck2.Gen.(list_size (int_range 1 20) Gen.term) prop_warm_equals_cold;
    Gen.qtest "simplify: fresh copy of canonical is the same node" ~count:300
      Gen.term prop_fresh_copy_same_node;
    Gen.qtest "simplify: interned entries do not short-circuit" ~count:300
      Gen.term prop_raw_never_returned;
    Alcotest.test_case "simplify: raw input, pinned" `Quick test_raw_pinned;
    Gen.qtest "simplify: four domains, identical nodes" ~count:20
      QCheck2.Gen.(list_size (int_range 1 40) Gen.term) prop_four_domains;
    Gen.qtest "hash-consing: equal terms built on four domains are one node"
      ~count:20
      QCheck2.Gen.(list_size (int_range 1 30) Gen.term) prop_four_domains_build;
    Alcotest.test_case "hash-consing: reset contract" `Quick test_reset_contract;
    Alcotest.test_case "layout pools built once per base" `Quick
      test_layout_pools_per_base;
    Gen.qtest "pool-keyed verdict stable" ~count:100 Gen.formulas
      prop_pool_key_verdict;
    Alcotest.test_case "solver memo: hit replays through sigma" `Quick
      test_memo_hit_through_sigma;
    Alcotest.test_case "solver memo: filled and hit on other domains" `Quick
      test_memo_across_domains ]
