(* Constraint solver for gadget chaining.

   Replaces Z3 for the fragment that actually arises (DESIGN.md §2):

   - conjunctions of EQUALITIES over 64-bit linear terms — decided exactly
     by Gaussian elimination over Z/2^64 (odd coefficients are invertible;
     gadget semantics produce coefficients that are almost always ±1);
   - POINTER atoms — discharged by binding a free variable to an address
     from the caller's pool of controlled memory;
   - everything else (disequalities, orderings, non-linear residue) — by
     a bounded model search: the all-zeros assignment, then the rows of
     a fixed trial table (random and special values, the same for every
     query with as many free variables), judged by residual atoms
     compiled over an [int64 array].  Often enough for the sparse
     constraints gadgets generate, never a refutation.

   [Unsat] is only reported when the linear core is provably inconsistent,
   so Unsat is sound.  [Sat] always carries a model that has been
   re-checked against every atom, so Sat is sound too.  The incomplete
   answer is [Unknown]. *)

module Smap = Map.Make (String)

type model = int64 Smap.t

let model_fn m v = match Smap.find_opt v m with Some x -> x | None -> 0L

type result = Sat of model | Unsat | Unknown

(* Pointer constraints are discharged against a pool: [pins] are concrete
   candidate addresses a free pointer variable may be bound to;
   [readable]/[writable] are the (wider) predicates a concrete address
   must satisfy. *)
type pointer_pool = {
  pins : int64 list;
  readable : int64 -> bool;
  writable : int64 -> bool;
}

let default_pool =
  (* matches the emulator's scratch region *)
  let in_scratch a = a >= 0x700000L && a < 0x710000L in
  { pins = [ 0x700000L; 0x700100L; 0x700200L ];
    readable = in_scratch;
    writable = in_scratch }

(* ----- linear algebra over Z/2^64 ----- *)

(* Inverse of an odd number mod 2^64 by Newton iteration. *)
let inv64 a =
  if Int64.logand a 1L = 0L then invalid_arg "inv64: even";
  let rec go x n =
    if n = 0 then x
    else go (Int64.mul x (Int64.sub 2L (Int64.mul a x))) (n - 1)
  in
  go a 6

open Term

(* Substitution: var -> linear form over still-free vars. *)
type subst = linear Smap.t

let subst_linear (sigma : subst) (l : linear) : linear =
  List.fold_left
    (fun acc (v, c) ->
      match Smap.find_opt v sigma with
      | Some lv -> lin_add acc (lin_scale c lv)
      | None -> lin_add acc { lin_const = 0L; lin_terms = [ (v, c) ] })
    (lin_const l.lin_const) l.lin_terms

(* Add [v := rhs] and re-reduce existing entries so sigma stays fully
   substituted (triangular-free). *)
let extend_subst (sigma : subst) v rhs =
  let sigma =
    Smap.map
      (fun l ->
        let coeff = try List.assoc v l.lin_terms with Not_found -> 0L in
        if coeff = 0L then l
        else
          lin_add
            { l with lin_terms = List.remove_assoc v l.lin_terms }
            (lin_scale coeff rhs))
      sigma
  in
  Smap.add v rhs sigma

(* Solve one equation l = 0 under sigma.  Returns [Ok sigma'] (possibly
   extended), [Error `Inconsistent], or [Error `Hard] when no odd-coefficient
   pivot exists. *)
let solve_eq sigma l =
  let l = subst_linear sigma l in
  match l.lin_terms with
  | [] -> if l.lin_const = 0L then Ok sigma else Error `Inconsistent
  | terms -> (
    (* prefer |coeff| = 1 pivots to keep numbers small *)
    let unit_pivot = List.find_opt (fun (_, c) -> c = 1L || c = -1L) terms in
    let odd_pivot = List.find_opt (fun (_, c) -> Int64.logand c 1L = 1L) terms in
    match (match unit_pivot with Some p -> Some p | None -> odd_pivot) with
    | None -> Error `Hard
    | Some (v, c) ->
      let rest = { l with lin_terms = List.remove_assoc v l.lin_terms } in
      (* c*v + rest = 0  =>  v = rest * (-(c^-1)) *)
      let rhs = lin_scale (Int64.neg (inv64 c)) rest in
      Ok (extend_subst sigma v rhs))

(* One step of the Gaussian-elimination fold; [None] = inconsistent.
   The [hard] list accumulates in the fold's own (reversed) order — the
   residual construction depends on it. *)
let elim_step acc l =
  match acc with
  | None -> None
  | Some (sigma, hard) -> (
    match solve_eq sigma l with
    | Ok sigma' -> Some (sigma', hard)
    | Error `Inconsistent -> None
    | Error `Hard -> Some (sigma, l :: hard))

(* Pointer-pinning variant of [solve_eq] that also handles a single
   even-coefficient pivot 2^s * m (m odd) when the constant side is
   divisible by 2^s — the jump-table pattern `table + 8*index`, where the
   attacker can point the table read anywhere 8-aligned. *)
let solve_pin sigma l =
  match solve_eq sigma l with
  | (Ok _ | Error `Inconsistent) as r -> r
  | Error `Hard -> (
    let l' = subst_linear sigma l in
    match l'.lin_terms with
    | [ (v, c) ] when c <> 0L ->
      let s = ref 0 in
      let m = ref c in
      while Int64.logand !m 1L = 0L && !s < 63 do
        m := Int64.shift_right_logical !m 1;
        incr s
      done;
      let mask = Int64.sub (Int64.shift_left 1L !s) 1L in
      if Int64.logand l'.lin_const mask <> 0L then Error `Hard
      else begin
        (* c*v + k = 0 with c = 2^s*m: v = -(k/2^s) * m^-1 *)
        let k = Int64.shift_right l'.lin_const !s in
        let rhs = lin_const (Int64.mul (Int64.neg k) (inv64 !m)) in
        Ok (extend_subst sigma v rhs)
      end
    | _ -> Error `Hard)

(* ----- main entry ----- *)

(* Fault-injection hook: when it returns true the query is abandoned as
   Unknown before any reasoning, simulating a divergent backend.  The
   solver sits below Gp_core, so the harness installs the predicate here
   directly (see Gp_harness.Faultsim).  Unknown is always a sound
   answer, so injection cannot corrupt results — only degrade them.
   The predicate receives the query so an installed schedule can be a
   pure function of it — order-independent, hence identical under any
   domain count (injection is checked BEFORE the memo cache, and an
   injected Unknown is never cached). *)
let chaos_unknown : (Formula.t list -> bool) ref = ref (fun _ -> false)

(* Running count of Unknown verdicts [check] answered (injected, genuine,
   or served from the memo cache — every Unknown ANSWERED counts, so the
   tally depends only on the query sequence, not on cache temperature).
   Api snapshots it around each stage to attribute solver indecision.
   Atomic: bumped from worker domains. *)
let unknowns = Atomic.make 0

(* ----- screening front-end (DESIGN.md §12) -----

   Two cheap tiers sit in front of the solver proper.  The contract for
   both: a tier may only short-circuit a query when the verdict it
   returns is the one the fall-through path would produce AT THE CALL
   SITE THAT CONSUMES IT — so results do not depend on which tables are
   warm, at any job count.

   - Tier A (abstract screening, [Absdom]): an atom that is abstractly
     definitely-false decides a [check] conjunction as Unsat, where the
     full solver may only manage Unknown.  Every [check] consumer (plan
     instantiation) treats Unsat and Unknown identically.

   - Tier C (the solver memo, see [pool_memo]): pool-keyed queries that
     leave the same open residual share the model search's outcome.

   [screen_decided] is bumped per query answered, before the memo
   lookup (the same discipline as [unknowns]), so the tally depends
   only on the query sequence and is identical under any job count. *)

let screen_decided = Atomic.make 0

(* Tier C, the one solver memo.  After the reduction, [search] hunts
   for a model of the OPEN residual (the atoms left once sigma
   substituted every bound variable away) by a deterministic trial
   sequence: the all-zeros assignment, then the rows of the fixed
   trial table.  That outcome — which assignment (if any) is the first
   to pass — is therefore a pure function of (pool, open residual,
   free-variable list), NOT of the full conjunction: instantiation
   queries that differ only in equalities the eliminator absorbs leave
   the very same residual system (typically the gadget's own pointer
   atoms), and the common exhausted-search case burns its whole trial
   budget on each of them.  The memo is keyed on exactly that triple;
   the pool leg is the caller's [pool_key] vouching, so unkeyed pools
   are never memoized.  A [Found] hit replays the cached free-variable
   assignment through THIS query's sigma and re-runs the defensive
   double-check against THIS query's formulas — if that ever failed
   (only possible under an eliminator bug) the code falls back to the
   full fresh search, so behaviour is bit-identical by construction.
   The table is the process-wide sharded [Cache], so every domain —
   and every later request of a long-lived process — reuses an
   outcome. *)
type search_outcome = No_assignment | Found of int64 Smap.t

let pool_memo : ((int64 * int) * Formula.t list * string list, search_outcome) Cache.t =
  Cache.create ()

(* Never written: [check] memoizes only keyed searches (in [pool_memo]),
   and term equality is [Term.equal], never a solver query.  Kept for
   bench/e2e, which reads their counters; delete in the benchmark PR. *)
let memo : (Formula.t list, result) Cache.t = Cache.create ~size:16 ()
let equal_memo : (Term.t * Term.t, bool) Cache.t = Cache.create ~size:16 ()

(* The first and third slots (the deleted prove_equal and concrete
   refutation tiers) always read 0, and the fourth is [pool_memo]'s
   hits.  The 4-tuple is kept for bench/e2e; delete in the benchmark
   PR. *)
let screen_stats () =
  (0, Atomic.get screen_decided, 0, Cache.hits pool_memo)

let reset_screen () =
  Absdom.reset ();
  Atomic.set screen_decided 0

(* ----- the reduction -----

   Over a CANONICAL conjunction ([Cache.canon]: every atom is already a
   fixpoint of [Formula.simplify] — test_par's canon-idempotence
   property — which is why it is not simplified again here): partition
   into linear equalities / pointer atoms / the rest, eliminate the
   equalities by Gaussian elimination in list order, pin pointer atoms
   into the pool, and substitute the solution into what is left,
   simplifying each substituted atom once.
   [Decided Unsat] is a refutation — sound, since it only arises from
   an inconsistent linear core with no pinning choice involved;
   [Decided Unknown] is a contradiction that pin choices may have
   caused.  Anything else is a [residual] for the model search, which
   never answers Unsat. *)
type residual = {
  r_formulas : Formula.t list;  (* the canonical query, True dropped *)
  r_sigma : subst;
  r_atoms : Formula.t list;     (* residual atoms under sigma, True dropped *)
}

type reduced = Decided of result | Residual of residual

let reduce ~pool (formulas : Formula.t list) : reduced =
  if List.mem Formula.False formulas then Decided Unsat
  else begin
    let formulas = List.filter (fun f -> f <> Formula.True) formulas in
    let eqs, pointers, rest =
      List.fold_left
        (fun (eqs, ptrs, rest) f ->
          match f with
          | Formula.Eq (a, b) -> (
            match Term.linearize a, Term.linearize b with
            | Some la, Some lb -> (lin_add la (lin_neg lb) :: eqs, ptrs, rest)
            | _ -> (eqs, ptrs, f :: rest))
          | Formula.Readable _ | Formula.Writable _ -> (eqs, f :: ptrs, rest)
          | _ -> (eqs, ptrs, f :: rest))
        ([], [], []) formulas
    in
    let eqs = List.rev eqs and pointers = List.rev pointers and rest = List.rev rest in
    match List.fold_left elim_step (Some (Smap.empty, [])) eqs with
    | None -> Decided Unsat
    | Some (sigma, hard_eqs) ->
      (* Bind pointer atoms: each free-variable pointer term gets pinned to
         a distinct pool address via an extra linear equation. *)
      let pin (sigma, unpinned, idx) f =
        let term =
          match f with
          | Formula.Writable t | Formula.Readable t -> t
          | _ -> assert false
        in
        match Term.linearize term with
        | None -> (sigma, f :: unpinned, idx)
        | Some l -> (
          let l = subst_linear sigma l in
          match l.lin_terms with
          | [] ->
            (* already concrete; verified by the search against the pool *)
            (sigma, f :: unpinned, idx)
          | _ -> (
            if pool.pins = [] then (sigma, f :: unpinned, idx)
            else
              let addr = List.nth pool.pins (idx mod List.length pool.pins) in
              match solve_pin sigma (lin_add l (lin_const (Int64.neg addr))) with
              | Ok sigma' -> (sigma', unpinned, idx + 1)
              | Error _ -> (sigma, f :: unpinned, idx)))
      in
      let sigma, unpinned_ptrs, npinned =
        List.fold_left pin (sigma, [], 0) pointers
      in
      let apply_sigma f =
        Formula.simplify
          (Formula.map_terms
             (Term.subst (fun v ->
                  Option.map (fun l -> Term.of_linear l) (Smap.find_opt v sigma)))
             f)
      in
      let residual =
        List.map apply_sigma
          (rest
          @ List.map (fun l -> Formula.Eq (Term.of_linear l, Term.const 0L))
              hard_eqs
          @ unpinned_ptrs)
      in
      if List.mem Formula.False residual then
        (* A contradiction.  If pin CHOICES were involved we did not
           explore alternatives, so only Unknown is sound; a contradiction
           from pure equality reasoning is a real Unsat. *)
        Decided (if npinned = 0 then Unsat else Unknown)
      else
        Residual
          { r_formulas = formulas;
            r_sigma = sigma;
            r_atoms = List.filter (fun f -> f <> Formula.True) residual }
  end

(* ----- the trial table -----

   The model search tries the all-zeros assignment, then up to
   [max_trials] fixed trials.  Their values are the stream of
   [Rng.create 0x5eed]: per free variable, one [int 4] draw picks a
   special value one time in four (a second draw, [int 10], indexes
   [special_values]), otherwise one [next_int64] is the value.  Every
   value costs exactly two draws, so the value trial k gives the i-th
   of n free variables is element [k*n + i] of ONE sequence, whatever
   the query: the trial table for n free variables is the sequence's
   first [max_trials * n] elements read as rows of n.  The prefix that
   covers [precomputed_arities] is built once, at module
   initialization, and shared read-only by every domain; a search over
   more free variables builds its own.  Measured fresh searches (the
   plan-cold, plan-resident and serve-2c benchmark streams, survey
   --full) have at most 4 free variables, so 16 leaves a 4x margin for
   a 25.6 KB table. *)

let special_values =
  [| 0L; 1L; 2L; -1L; 8L; 0x100L; 0x1000L; 0x400000L; 0x601000L; Int64.min_int |]

let max_trials = 200
let precomputed_arities = 16

let draws count =
  let rng = Gp_util.Rng.create 0x5eed in
  (* [Array.init] fills in index order, which is the draw order *)
  Array.init count (fun _ ->
      if Gp_util.Rng.int rng 4 = 0 then
        special_values.(Gp_util.Rng.int rng (Array.length special_values))
      else Gp_util.Rng.next_int64 rng)

let shared_draws = draws (max_trials * precomputed_arities)

(* the table for [n] free variables is the first [max_trials * n]
   elements; the shared one is longer for [n < precomputed_arities] *)
let table_for n =
  if n <= precomputed_arities then shared_draws else draws (max_trials * n)

let trial_table n = Array.sub (table_for n) 0 (max_trials * n)

(* ----- compiled residuals -----

   Each open-residual atom is compiled once per fresh search into a
   closure that reads the i-th free variable of a trial at
   [row.(off + i)] — a trial-table row or the zero row — instead of
   looking names up in a per-trial map.  A term [Term.linearize]
   accepts becomes its coefficient array (exact: linear forms are
   ring identities mod 2^64); any other node mirrors [Term.eval]
   case for case, shift counts [land 63] included.  A variable
   outside the free list reads 0, as [model_fn] gives it. *)

let compile_linear index { lin_const; lin_terms } =
  let terms =
    List.filter_map (fun (v, c) -> Option.map (fun i -> (i, c)) (index v)) lin_terms
  in
  let idx = Array.of_list (List.map fst terms) in
  let coef = Array.of_list (List.map snd terms) in
  fun row off ->
    let acc = ref lin_const in
    for j = 0 to Array.length idx - 1 do
      acc := Int64.add !acc (Int64.mul coef.(j) row.(off + idx.(j)))
    done;
    !acc

let rec compile_term index t : int64 array -> int -> int64 =
  match Term.linearize t with
  | Some l -> compile_linear index l
  | None -> (
    let count b =
      let b = compile_term index b in
      fun row off -> Int64.to_int (Int64.logand (b row off) 63L)
    in
    match t with
    | Var v -> (
      match index v with
      | Some i -> fun row off -> row.(off + i)
      | None -> fun _ _ -> 0L)
    | Const c -> fun _ _ -> c
    | Add (a, b, _) ->
      let a = compile_term index a and b = compile_term index b in
      fun row off -> Int64.add (a row off) (b row off)
    | Sub (a, b, _) ->
      let a = compile_term index a and b = compile_term index b in
      fun row off -> Int64.sub (a row off) (b row off)
    | Mul (a, b, _) ->
      let a = compile_term index a and b = compile_term index b in
      fun row off -> Int64.mul (a row off) (b row off)
    | Neg (a, _) ->
      let a = compile_term index a in
      fun row off -> Int64.neg (a row off)
    | Not (a, _) ->
      let a = compile_term index a in
      fun row off -> Int64.lognot (a row off)
    | And (a, b, _) ->
      let a = compile_term index a and b = compile_term index b in
      fun row off -> Int64.logand (a row off) (b row off)
    | Or (a, b, _) ->
      let a = compile_term index a and b = compile_term index b in
      fun row off -> Int64.logor (a row off) (b row off)
    | Xor (a, b, _) ->
      let a = compile_term index a and b = compile_term index b in
      fun row off -> Int64.logxor (a row off) (b row off)
    | Shl (a, b, _) ->
      let a = compile_term index a and b = count b in
      fun row off -> Int64.shift_left (a row off) (b row off)
    | Shr (a, b, _) ->
      let a = compile_term index a and b = count b in
      fun row off -> Int64.shift_right_logical (a row off) (b row off)
    | Sar (a, b, _) ->
      let a = compile_term index a and b = count b in
      fun row off -> Int64.shift_right (a row off) (b row off))

(* Mirrors [Formula.eval]; [Ult]/[Ule] go through the same
   [Formula.ult]/[Formula.ule]. *)
let compile_atom index ~readable ~writable f : int64 array -> int -> bool =
  let rel a b holds =
    let a = compile_term index a and b = compile_term index b in
    fun row off -> holds (a row off) (b row off)
  in
  match f with
  | Formula.True -> fun _ _ -> true
  | Formula.False -> fun _ _ -> false
  | Formula.Eq (a, b) -> rel a b Int64.equal
  | Formula.Ne (a, b) -> rel a b (fun x y -> not (Int64.equal x y))
  | Formula.Slt (a, b) -> rel a b (fun x y -> Int64.compare x y < 0)
  | Formula.Sle (a, b) -> rel a b (fun x y -> Int64.compare x y <= 0)
  | Formula.Ult (a, b) -> rel a b Formula.ult
  | Formula.Ule (a, b) -> rel a b Formula.ule
  | Formula.Readable t ->
    let t = compile_term index t in
    fun row off -> readable (t row off)
  | Formula.Writable t ->
    let t = compile_term index t in
    fun row off -> writable (t row off)

(* ----- the model search (only [check] runs it) ----- *)

let search ~pool ?pool_key { r_formulas = formulas; r_sigma = sigma; r_atoms } =
  let readable = pool.readable in
  let writable = pool.writable in
  (* Residual formulas with no variables left (typically concrete
     pointer atoms) evaluate the same under EVERY assignment — the
     search can neither fix a false one by retrying nor lose a true one,
     so judge them once here instead of once per trial.  A false closed
     atom means no trial can ever succeed: that is exactly an exhausted
     search, hence Unknown (the trials are a fixed table, so skipping
     them is invisible to every other query). *)
  let closed, open_residual =
    List.partition (fun f -> Term.Vset.is_empty (Formula.vars f)) r_atoms
  in
  let closed_ok =
    List.for_all (Formula.eval ~readable ~writable (model_fn Smap.empty)) closed
  in
  if not closed_ok then Unknown
  else begin
    (* Free variables = everything mentioned anywhere minus sigma's keys. *)
    let all_vars =
      List.fold_left
        (fun s f -> Term.Vset.union s (Formula.vars f))
        Term.Vset.empty formulas
    in
    let sigma_vars =
      Smap.fold
        (fun v l s ->
          List.fold_left
            (fun s (v', _) -> Term.Vset.add v' s)
            (Term.Vset.add v s) l.lin_terms)
        sigma Term.Vset.empty
    in
    let free =
      Term.Vset.elements
        (Term.Vset.diff
           (Term.Vset.union all_vars sigma_vars)
           (Smap.fold (fun v _ s -> Term.Vset.add v s) sigma Term.Vset.empty))
    in
    let build_model assignment =
      Smap.fold
        (fun v l acc ->
          let value =
            List.fold_left
              (fun s (v', c) -> Int64.add s (Int64.mul c (model_fn assignment v')))
              l.lin_const l.lin_terms
          in
          Smap.add v value acc)
        sigma assignment
    in
    (* the defensive double-check of the original system — guards
       against any bug in the elimination *)
    let double_check m =
      List.for_all (Formula.eval ~readable ~writable (model_fn m)) formulas
    in
    (* [apply_sigma] substituted every bound variable away, so the open
       residual mentions free variables only: its compiled atoms judge
       a row straight off the table.  The assignment and the full model
       (the sigma fold) are only materialized for the rare row that
       passes, where the double-check and the returned [Sat] witness
       need them. *)
    let run_search () =
      let vars = Array.of_list free in
      let n = Array.length vars in
      let columns = Smap.of_seq (List.to_seq (List.mapi (fun i v -> (v, i)) free)) in
      let index v = Smap.find_opt v columns in
      let atoms = List.map (compile_atom index ~readable ~writable) open_residual in
      let rec passes row off = function
        | [] -> true
        | atom :: rest -> atom row off && passes row off rest
      in
      let try_row row off =
        if passes row off atoms then begin
          let assignment = ref Smap.empty in
          Array.iteri (fun i v -> assignment := Smap.add v row.(off + i) !assignment) vars;
          let m = build_model !assignment in
          if double_check m then Some (Found !assignment, Sat m) else None
        end
        else None
      in
      let exhausted = (No_assignment, Unknown) in
      match try_row (Array.make n 0L) 0 with
      | Some found -> found
      | None ->
        (* With no free variables there is exactly one candidate
           assignment and it just failed. *)
        if n = 0 then exhausted
        else
          let table = table_for n in
          let rec go k =
            if k >= max_trials then exhausted
            else
              match try_row table (k * n) with
              | Some found -> found
              | None -> go (k + 1)
          in
          go 0
    in
    (* The trials are a fixed table, so the first open-residual-passing
       assignment (or its absence) is a pure function of the memo key.
       Free vars are disjoint from sigma's domain, so replaying the
       cached assignment through THIS query's sigma rebuilds exactly the
       model the fresh search would have built. *)
    match pool_key with
    | None -> snd (run_search ())
    | Some pk -> (
      let fresh = ref None in
      let outcome =
        Cache.find_or_add pool_memo (pk, open_residual, free) (fun () ->
            let outcome, r = run_search () in
            fresh := Some r;
            outcome)
      in
      match (!fresh, outcome) with
      | Some r, _ -> r
      | None, No_assignment -> Unknown
      | None, Found assignment ->
        let m = build_model assignment in
        if double_check m then Sat m
        else
          (* unreachable unless the eliminator mis-solved: fall back to
             the fresh search so behaviour cannot diverge *)
          snd (run_search ()))
  end

let check_real ~pool ?pool_key formulas =
  match reduce ~pool formulas with
  | Decided r -> r
  | Residual r -> search ~pool ?pool_key r

(* chaos hook → Tier A unsat screen → [check_real], which consults
   [pool_memo] after the reduction when keyed.  Every path solves the
   CANONICAL conjunction: the reduction pins pointer atoms to pool
   addresses in list order, so the model it returns (and, when pins
   clash, Sat vs Unknown) depends on conjunct order — solving the
   caller's order here would let [check ~pool fs] and a keyed memo hit
   disagree on the same [fs].  [pool_key] is the caller's promise that
   [pool] is a pure function of it: [Layout.pool ~salt] is one of
   (payload_base, rotation), so the planner passes that pair. *)
let check ?(pool = default_pool) ?pool_key formulas =
  if !chaos_unknown formulas then begin
    Atomic.incr unknowns;
    Unknown
  end
  else if List.exists (fun f -> Absdom.formula f = Absdom.No) formulas then begin
    Atomic.incr screen_decided;
    Unsat
  end
  else begin
    let r = check_real ~pool ?pool_key (Cache.canon formulas) in
    (match r with Unknown -> Atomic.incr unknowns | Sat _ | Unsat -> ());
    r
  end

let memo_count () = Cache.length pool_memo
