(* Constraint solver for gadget chaining.

   Replaces Z3 for the fragment that actually arises (DESIGN.md §2):

   - conjunctions of EQUALITIES over 64-bit linear terms — decided exactly
     by Gaussian elimination over Z/2^64 (odd coefficients are invertible;
     gadget semantics produce coefficients that are almost always ±1);
   - POINTER atoms — discharged by binding a free variable to an address
     from the caller's pool of controlled memory;
   - everything else (disequalities, orderings, non-linear residue) — by
     randomized + special-value model search, which is complete "with high
     probability" for the sparse constraints gadgets generate.

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

let special_values =
  [ 0L; 1L; 2L; -1L; 8L; 0x100L; 0x1000L; 0x400000L; 0x601000L; Int64.min_int ]

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

(* Running count of Unknown verdicts (injected, genuine, or served from
   the memo cache — every Unknown ANSWERED counts, so the tally depends
   only on the query sequence, not on cache temperature); Api snapshots
   it around each stage to attribute solver indecision.  Atomic: bumped
   from worker domains during parallel subsumption. *)
let unknowns = Atomic.make 0

(* ----- screening front-end (DESIGN.md §12) -----

   Three cheap tiers sit in front of the solver proper.  The contract
   for every tier: it may only short-circuit a query when the verdict it
   returns is the one the fall-through path would produce AT THE CALL
   SITE THAT CONSUMES IT — so results are bit-identical with screening
   on or off, at any job count, and [set_screen_enabled] is a pure
   ablation.

   - Tier A (abstract screening, [Absdom]): disjoint abstract values
     refute [prove_equal] — and the real prover's trial 0 (all zeros)
     would refute too, since disjointness means the terms differ under
     EVERY valuation.  An atom that is abstractly definitely-false
     decides pool-keyed [check] conjunctions as Unsat; the only
     pool-keyed caller (plan instantiation) treats Unsat and Unknown
     identically, which is why this tier is scoped to that path and not
     to the default path that [entails] consumes.

   - Tier B (concrete refutation): a fixed vector of adversarial
     valuations shared across all queries.  For [entails], any point
     satisfying hyps ∧ ¬concl is a genuine model, so the real check
     could not have answered Unsat (Unsat is sound) — "not entailed"
     either way.  For [prove_equal], only the all-zeros and all-ones
     points are used: they are literally the real prover's first two
     trials, so a hit reproduces its verdict exactly.

   - Tier C (shared-prefix elimination reuse): plan instantiation
     issues families of queries whose canonicalized equality lists
     share long prefixes (the chain-so-far); the Gaussian elimination
     fold is memoized in a trie keyed on the exact equation prefix, so
     an extension only eliminates the new equalities.  The reused state
     is the fold's own accumulator — identical by construction.

   Counters are bumped per query ANSWERED, before any memo lookup (the
   same discipline as [unknowns]), so the tallies depend only on the
   query sequence and are identical under any job count. *)

let screen_on = ref true
let screen_enabled () = !screen_on
let set_screen_enabled b = screen_on := b

let screen_refuted = Atomic.make 0
let screen_decided = Atomic.make 0
let concrete_refuted = Atomic.make 0
let elim_reused = Atomic.make 0

let screen_stats () =
  ( Atomic.get screen_refuted,
    Atomic.get screen_decided,
    Atomic.get concrete_refuted,
    Atomic.get elim_reused )

(* Tier B valuations.  [Fill c] assigns [c] to every variable (the
   all-zeros and all-ones points double as the real prover's first two
   trials); the pool pins make pointer atoms satisfiable; [Mix s] gives
   each variable a distinct deterministic pseudo-random value (splitmix
   of the seed and the variable name), so the family is deterministic
   and memo-friendly by construction. *)
type point = Fill of int64 | Mix of int64

let screen_points : point array =
  [| Fill 0L; Fill 1L; Fill (-1L);
     Fill 0xAAAAAAAAAAAAAAAAL; Fill 0x5555555555555555L;
     Fill 0x700000L; Fill 0x700100L;
     Fill 8L; Fill 0x100L; Fill 0x1000L;
     Mix 0x9e3779b97f4a7c15L; Mix 0xbf58476d1ce4e5b9L |]

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let point_model = function
  | Fill c -> fun _ -> c
  | Mix s -> fun v -> mix64 (Int64.logxor s (Int64.of_int (Hashtbl.hash v)))

(* ----- Tier C: elimination-prefix trie -----

   One step of the Gaussian-elimination fold; [None] = inconsistent.
   The [hard] list accumulates in the fold's own (reversed) order — the
   residual construction depends on it, so the memoized state must
   reproduce it exactly. *)
let elim_step acc l =
  match acc with
  | None -> None
  | Some (sigma, hard) -> (
    match solve_eq sigma l with
    | Ok sigma' -> Some (sigma', hard)
    | Error `Inconsistent -> None
    | Error `Hard -> Some (sigma, l :: hard))

(* Trie over equation prefixes: a node's state is the fold accumulator
   after processing the equations on the path to it — a pure function
   of that prefix, so a reused state is bit-identical to a recomputed
   one.  Elimination runs before pointer pinning, so the trie is valid
   across pools.  The trie is DOMAIN-LOCAL ([Domain.DLS]): this is the
   expensive half of every [check_real], and a process-shared trie
   would take a mutex per equation node — worker domains trade a
   little cross-domain reuse for a lock-free walk.  [elim_reused] is
   therefore (like the cache hit/miss split) a temperature statistic:
   reported, excluded from differential comparisons. *)
type elim_node = {
  estate : (subst * linear list) option;
  echildren : (linear, elim_node) Hashtbl.t;
}

let elim_key : elim_node Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { estate = Some (Smap.empty, []); echildren = Hashtbl.create 256 })

let eliminate eqs =
  if not !screen_on then
    List.fold_left elim_step (Some (Smap.empty, [])) eqs
  else begin
    let reused = ref false in
    let rec go node = function
      | [] -> node.estate
      | l :: rest ->
        let child =
          match Hashtbl.find_opt node.echildren l with
          | Some c ->
            reused := true;
            c
          | None ->
            let c =
              { estate = elim_step node.estate l;
                echildren = Hashtbl.create 4 }
            in
            Hashtbl.add node.echildren l c;
            c
        in
        go child rest
    in
    let r = go (Domain.DLS.get elim_key) eqs in
    if !reused then Atomic.incr elim_reused;
    r
  end

(* Tier C, second half: residual-search reuse.  After elimination and
   pinning, [check_real] hunts for a model of the OPEN residual (the
   atoms left once sigma substituted every bound variable away) by a
   deterministic trial sequence: the all-zeros assignment, then draws
   from a call-local rng with a fixed seed.  That outcome — which
   assignment (if any) is the first to pass — is therefore a pure
   function of (open residual, free-variable list, pool), NOT of the
   full conjunction: instantiation queries that differ only in
   equalities the eliminator absorbs leave the very same residual
   system (typically the gadget's own pointer atoms), and the common
   exhausted-search case burns its whole trial budget on each of them.
   The memo is keyed on exactly that triple; the pool leg reuses the
   caller's [pool_key] vouching (or the default pool), so raw-closure
   pools are never keyed.  A [Found] hit replays the cached free-var
   assignment through THIS query's sigma and re-runs the defensive
   double-check against THIS query's formulas — if that ever failed
   (only possible under an eliminator bug) the code falls back to the
   full fresh search, so behaviour is bit-identical by construction.
   Domain-local like the trie, and counted in [elim_reused]. *)
type pool_id = Pool_default | Pool_keyed of (int64 * int)
type search_outcome = No_assignment | Found of int64 Smap.t

let residual_key :
    ((Formula.t list * string list * pool_id), search_outcome) Hashtbl.t
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 1024)

let reset_screen () =
  (* clears the calling domain's trie; worker-domain tries hold only
     pure-function-of-prefix states, so keeping them is harmless *)
  Hashtbl.reset (Domain.DLS.get elim_key).echildren;
  Hashtbl.reset (Domain.DLS.get residual_key);
  Absdom.reset ();
  Atomic.set screen_refuted 0;
  Atomic.set screen_decided 0;
  Atomic.set concrete_refuted 0;
  Atomic.set elim_reused 0

let check_real ?(rng = Gp_util.Rng.create 0x5eed) ?(pool = default_pool)
    ?(max_trials = 200) ?pool_id (formulas : Formula.t list) : result =
  let formulas = List.map Formula.simplify formulas in
  if List.mem Formula.False formulas then Unsat
  else begin
    let formulas = List.filter (fun f -> f <> Formula.True) formulas in
    (* Partition into linear equalities / pointer atoms / the rest. *)
    let eqs, pointers, rest =
      List.fold_left
        (fun (eqs, ptrs, rest) f ->
          match f with
          | Formula.Eq (a, b) -> (
            match Term.linearize (Term.Sub (a, b)) with
            | Some l -> (l :: eqs, ptrs, rest)
            | None -> (eqs, ptrs, f :: rest))
          | Formula.Readable _ | Formula.Writable _ -> (eqs, f :: ptrs, rest)
          | _ -> (eqs, ptrs, f :: rest))
        ([], [], []) formulas
    in
    let eqs = List.rev eqs and pointers = List.rev pointers and rest = List.rev rest in
    (* Gaussian elimination on the equalities (through the Tier C
       prefix trie — the same left fold, with shared prefixes of the
       equation list answered from memoized accumulators). *)
    match eliminate eqs with
    | None -> Unsat
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
            (* already concrete; verified at the end against the pool *)
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
      (* Residual atoms to satisfy by search. *)
      let apply_sigma f =
        Formula.map_terms
          (fun t ->
            Term.simplify
              (Term.subst
                 (fun v ->
                   Option.map (fun l -> Term.of_linear l) (Smap.find_opt v sigma))
                 t))
          f
      in
      let residual =
        List.map apply_sigma
          (rest
          @ List.map (fun l -> Formula.Eq (Term.of_linear l, Term.Const 0L))
              hard_eqs
          @ unpinned_ptrs)
        |> List.map Formula.simplify
      in
      if List.mem Formula.False residual then
        (* A contradiction.  If pin CHOICES were involved we did not
           explore alternatives, so only Unknown is sound; a contradiction
           from pure equality reasoning is a real Unsat. *)
        (if npinned = 0 then Unsat else Unknown)
      else begin
        let residual = List.filter (fun f -> f <> Formula.True) residual in
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
        let readable = pool.readable in
        let writable = pool.writable in
        (* Residual formulas with no variables left (typically concrete
           pointer atoms) evaluate the same under EVERY assignment —
           the search can neither fix a false one by retrying nor lose
           a true one, so judge them once here instead of once per
           trial.  A false closed atom means no trial can ever succeed:
           that is exactly an exhausted search, hence Unknown (the
           search's rng is call-local, so the skipped draws are
           invisible to every other query). *)
        let closed, open_residual =
          List.partition
            (fun f -> Term.Vset.is_empty (Formula.vars f))
            residual
        in
        let closed_ok =
          List.for_all
            (Formula.eval ~readable ~writable (model_fn Smap.empty))
            closed
        in
        if not closed_ok then Unknown
        else begin
          let build_model assignment =
            let free_model = assignment in
            let m =
              Smap.fold
                (fun v l acc ->
                  let value =
                    List.fold_left
                      (fun s (v', c) -> Int64.add s (Int64.mul c (model_fn free_model v')))
                      l.lin_const l.lin_terms
                  in
                  Smap.add v value acc)
                sigma free_model
            in
            m
          in
          (* [apply_sigma] substituted every bound variable away, so the
             open residual mentions free variables only — each trial can
             evaluate it straight off the assignment.  The full model
             (the sigma fold) is only materialized for the rare trial
             that passes, where the double-check and the returned [Sat]
             witness need it; failed trials skip it entirely.  Same
             verdicts, same witnesses — just no per-trial sigma fold. *)
          let try_assignment assignment =
            if
              List.for_all
                (Formula.eval ~readable ~writable (model_fn assignment))
                open_residual
            then begin
              let m = build_model assignment in
              (* double-check the original system — guards against any bug
                 in the elimination *)
              if List.for_all (Formula.eval ~readable ~writable (model_fn m)) formulas
              then Some m
              else None
            end
            else None
          in
          let zero_assignment =
            List.fold_left (fun m v -> Smap.add v 0L m) Smap.empty free
          in
          let run_search () =
            match try_assignment zero_assignment with
            | Some m -> Sat m
            | None ->
              (* With no free variables there is exactly one candidate
                 assignment and it just failed: every further trial would
                 rebuild the same model.  Identical to exhausting the
                 search, without the [max_trials] rebuilds. *)
              if free = [] then Unknown
              else
                let rec search k =
                  if k >= max_trials then Unknown
                  else begin
                    let assignment =
                      List.fold_left
                        (fun m v ->
                          let value =
                            if Gp_util.Rng.int rng 4 = 0 then
                              List.nth special_values
                                (Gp_util.Rng.int rng (List.length special_values))
                            else Gp_util.Rng.next_int64 rng
                          in
                          Smap.add v value m)
                        Smap.empty free
                    in
                    match try_assignment assignment with
                    | Some m -> Sat m
                    | None -> search (k + 1)
                  end
                in
                search 0
          in
          (* Tier C residual-search reuse (see [residual_key]): the trial
             sequence is deterministic, so the first open-residual-passing
             assignment (or its absence) is a pure function of the key.
             Free vars are disjoint from sigma's domain, so replaying the
             cached assignment through THIS query's sigma rebuilds exactly
             the model the fresh search would have built. *)
          match pool_id with
          | Some pid when !screen_on ->
            let tbl = Domain.DLS.get residual_key in
            let key = (open_residual, free, pid) in
            (match Hashtbl.find_opt tbl key with
            | Some No_assignment ->
              Atomic.incr elim_reused;
              Unknown
            | Some (Found assignment) ->
              let m = build_model assignment in
              if
                List.for_all (Formula.eval ~readable ~writable (model_fn m))
                  formulas
              then begin
                Atomic.incr elim_reused;
                Sat m
              end
              else
                (* unreachable unless the eliminator mis-solved: fall back
                   to the fresh search so behaviour cannot diverge *)
                run_search ()
            | None ->
              let r = run_search () in
              (match r with
              | Sat m ->
                let assignment =
                  List.fold_left
                    (fun a v -> Smap.add v (model_fn m v) a)
                    Smap.empty free
                in
                Hashtbl.replace tbl key (Found assignment)
              | Unknown -> Hashtbl.replace tbl key No_assignment
              | Unsat -> ());
              r)
          | _ -> run_search ()
        end
      end
  end

(* Memo of [check] verdicts for default-configuration queries and of
   [prove_equal] probes (see Cache).  Both caches answer the canonical
   form, so a hit is indistinguishable from a fresh solve. *)
let memo : (Formula.t list, result) Cache.t = Cache.create ()
let equal_memo : (Term.t * Term.t, bool) Cache.t = Cache.create ()

(* Memo for non-default pools that the CALLER can key structurally:
   [Layout.pool ~salt] is a pure function of (payload_base, rotation), so
   the planner passes that pair as [pool_key] and identical instantiation
   queries — which recur constantly as the same gadget is tried against
   the same condition along different branches — are answered once.  The
   key is structured, not hashed, so distinct pools can never collide. *)
let pool_memo : (((int64 * int) * Formula.t list), result) Cache.t =
  Cache.create ()

(* [unsat_screen] guards Tier A's trivially-Unsat decision: an atom
   that is abstractly definitely-false makes the conjunction Unsat
   under every valuation, but the full solver may only manage Unknown
   for it — interchangeable for every [check] consumer (they treat
   Unsat and Unknown alike), NOT for [entails], which reads Unsat as
   "entailed".  [entails] therefore falls through with the screen off
   (it has its own verdict-preserving screens).  The screen runs before
   the memos, on every rng-free path uniformly, so keyed, raw-pool and
   default solves of the same query keep answering identically. *)
let check_gen ~unsat_screen ?rng ?pool ?pool_key ?max_trials formulas =
  if !chaos_unknown formulas then begin
    Atomic.incr unknowns;
    Unknown
  end
  else if
    unsat_screen && !screen_on
    && Option.is_none rng && Option.is_none max_trials
    && List.exists (fun f -> Absdom.formula f = Absdom.No) formulas
  then begin
    Atomic.incr screen_decided;
    Unsat
  end
  else begin
    let count r =
      (match r with Unknown -> Atomic.incr unknowns | Sat _ | Unsat -> ());
      r
    in
    (* Only queries against the solver's defaults are memoizable: a
       caller-supplied rng, trial budget, or pointer pool changes the
       verdict function, and pools carry closures we cannot key on.
       Every path solves the CANONICAL conjunction, memoized or not:
       [check_real] pins pointer atoms to pool addresses in list order,
       so the model it returns (and, when pins clash, Sat vs Unknown)
       depends on conjunct order — solving the caller's order here
       would let [check ~pool fs] and the keyed memo disagree on the
       same [fs]. *)
    let cacheable =
      Option.is_none rng && Option.is_none max_trials
      && (match pool with None -> true | Some p -> p == default_pool)
    in
    if cacheable then begin
      let canonical = Cache.canon formulas in
      count
        (Cache.find_or_add memo canonical (fun () ->
             check_real ~pool_id:Pool_default canonical))
    end
    else
      match pool_key with
      | Some pk when Option.is_none rng && Option.is_none max_trials ->
        (* Caller vouches that [pk] fully determines [pool]; check_real
           runs with its fixed default rng, so the verdict is a pure
           function of (pk, canonical conjunction). *)
        let canonical = Cache.canon formulas in
        count
          (Cache.find_or_add pool_memo (pk, canonical) (fun () ->
               check_real ?pool ~pool_id:(Pool_keyed pk) canonical))
      | _ -> count (check_real ?rng ?pool ?max_trials (Cache.canon formulas))
  end

let check ?rng ?pool ?pool_key ?max_trials formulas =
  check_gen ~unsat_screen:true ?rng ?pool ?pool_key ?max_trials formulas

(* Entailment: hyps |= concl.  True only when hyps ∧ ¬concl is provably
   unsat; Unknown is treated as "not entailed" (conservative for
   subsumption: we keep more gadgets than strictly necessary).

   Screening (verdict-preserving at this boolean level):

   - Tier A discharges the entailment when ¬concl alone simplifies to
     False — exactly the first test the full check would apply after
     simplification, so the fall-through answer is Unsat either way.
   - Tier B refutes it when any fixed valuation satisfies hyps ∧ ¬concl
     (pointer atoms judged by the actual pool's predicates): that is a
     genuine model, and Unsat is sound, so the full check could only
     have answered Sat or Unknown — "not entailed" both ways.  This is
     the common case for subsumption probes between unrelated gadgets,
     where the full path would burn its entire randomized model search
     before giving up with Unknown. *)
let entails ?rng ?pool hyps concl =
  let screened =
    if not !screen_on then None
    else begin
      let neg = Formula.negate concl in
      if Formula.simplify neg = Formula.False then begin
        Atomic.incr screen_decided;
        Some true
      end
      else begin
        let formulas = neg :: hyps in
        let p = match pool with Some p -> p | None -> default_pool in
        let sat m =
          List.for_all
            (Formula.eval ~readable:p.readable ~writable:p.writable m)
            formulas
        in
        let refutable =
          Array.exists (fun pt -> sat (point_model pt)) screen_points
        in
        if refutable then begin
          Atomic.incr concrete_refuted;
          Some false
        end
        else None
      end
    end
  in
  match screened with
  | Some b -> b
  | None -> (
    match check_gen ~unsat_screen:false ?rng ?pool (Formula.negate concl :: hyps) with
    | Unsat -> true
    | Sat _ | Unknown -> false)

(* Probabilistic semantic equality of two terms: canonical forms equal, or
   no counterexample found in [trials] random evaluations.  Used by
   subsumption testing; unsoundness here only costs pool diversity and is
   caught downstream by emulator validation of payloads. *)
let prove_equal_real ?(rng = Gp_util.Rng.create 0x7e57) ?(trials = 32) a b =
  let a = Term.simplify a and b = Term.simplify b in
  if a = b then true
  else begin
    let vs =
      Term.Vset.elements (Term.Vset.union (Term.vars a) (Term.vars b))
    in
    let refuted = ref false in
    let k = ref 0 in
    while (not !refuted) && !k < trials do
      let m =
        List.fold_left
          (fun m v ->
            let value =
              if !k = 0 then 0L
              else if !k = 1 then 1L
              else Gp_util.Rng.next_int64 rng
            in
            Smap.add v value m)
          Smap.empty vs
      in
      if Term.eval (model_fn m) a <> Term.eval (model_fn m) b then refuted := true;
      incr k
    done;
    not !refuted
  end

(* ----- memo persistence (DESIGN.md §11) -----

   The three verdict memos are exactly the caches whose keys are pure
   structural data, so they can be dumped into the on-disk store and
   pre-seeded on the next run: every stored verdict is a pure function
   of its canonical key, so importing can only skip solves, never change
   one.  Each entry is self-contained (its own Term.Ser pool); sections
   are sorted by serialized key so the file bytes are deterministic. *)

module Bin = Gp_util.Store.Bin

let put_result _w b = function
  | Sat m ->
    Bin.u8 b 0;
    let bindings = Smap.bindings m in
    Bin.int_ b (List.length bindings);
    List.iter (fun (v, x) -> Bin.str b v; Bin.i64 b x) bindings
  | Unsat -> Bin.u8 b 1
  | Unknown -> Bin.u8 b 2

let get_result _r s pos =
  match Bin.gu8 s pos with
  | 0 ->
    let n = Bin.gint s pos in
    if n < 0 then raise Bin.Truncated;
    let m = ref Smap.empty in
    for _ = 1 to n do
      let v = Bin.gstr s pos in
      let x = Bin.gi64 s pos in
      m := Smap.add v x !m
    done;
    Sat !m
  | 1 -> Unsat
  | 2 -> Unknown
  | _ -> raise Bin.Truncated

let ser put_k put_v (k, v) =
  let w = Term.Ser.writer () in
  let kb = Buffer.create 64 in
  put_k w kb k;
  (* The value continues the key's node pool, so [w] spans the entry and
     the reader must consume key then value in order. *)
  let vb = Buffer.create 32 in
  put_v w vb v;
  (Buffer.contents kb, Buffer.contents vb)

let deser get_k get_v (ks, vs) =
  let r = Term.Ser.reader () in
  let kpos = ref 0 in
  let k = get_k r ks kpos in
  (* value pool refs resolve against nodes defined in the key *)
  let vpos = ref 0 in
  let v = get_v r vs vpos in
  (k, v)

let dump_memo cache put_k put_v =
  Cache.export cache
  |> List.map (ser put_k put_v)
  |> List.sort compare

let seed_memo cache get_k get_v entries =
  Cache.import cache (List.map (deser get_k get_v) entries)

let put_pair w b (a, b') = Term.Ser.put w b a; Term.Ser.put w b b'
let get_pair r s pos =
  let a = Term.Ser.get r s pos in
  let b = Term.Ser.get r s pos in
  (a, b)

let put_pool_key w b ((base, salt), fs) =
  Bin.i64 b base; Bin.int_ b salt; Formula.put_list w b fs
let get_pool_key r s pos =
  let base = Bin.gi64 s pos in
  let salt = Bin.gint s pos in
  let fs = Formula.get_list r s pos in
  ((base, salt), fs)

let put_bool _w b v = Bin.bool_ b v
let get_bool _r s pos = Bin.gbool s pos
let put_formulas w b fs = Formula.put_list w b fs
let get_formulas r s pos = Formula.get_list r s pos

let memo_section_names = [ "solver.check"; "solver.equal"; "solver.pool" ]

let memo_count () =
  Cache.length memo + Cache.length equal_memo + Cache.length pool_memo

let export_memos () =
  [ { Gp_util.Store.name = "solver.check";
      entries = dump_memo memo put_formulas put_result };
    { Gp_util.Store.name = "solver.equal";
      entries = dump_memo equal_memo put_pair put_bool };
    { Gp_util.Store.name = "solver.pool";
      entries = dump_memo pool_memo put_pool_key put_result } ]

let import_memos (sections : Gp_util.Store.section list) =
  let count = ref 0 in
  List.iter
    (fun { Gp_util.Store.name; entries } ->
      let seed c gk gv =
        count := !count + List.length entries;
        seed_memo c gk gv entries
      in
      match name with
      | "solver.check" -> seed memo get_formulas get_result
      | "solver.equal" -> seed equal_memo get_pair get_bool
      | "solver.pool" -> seed pool_memo get_pool_key get_result
      | _ -> ())
    sections;
  !count

(* Default-configuration probes are memoized on the simplified pair;
   equality is symmetric, so the two sides are ordered (structurally)
   first.  Probes run with a fresh default rng each time, so the
   verdict is a pure function of the (simplified) pair.

   Screening, checked before the memo (tallies count per query
   answered, independent of cache temperature):

   - Tier A: disjoint abstract values mean the terms differ under EVERY
     valuation — in particular under the real prover's trial 0, so the
     fall-through verdict is false too.
   - Tier B: only the all-zeros and all-ones points, which are exactly
     the real prover's first two trials; a hit reproduces its verdict.
     The remaining adversarial points are NOT used here — a refutation
     the 32-trial path might miss would flip a (probabilistically
     unsound but by-contract authoritative) true to false and change
     subsumption results. *)
let prove_equal ?rng ?trials a b =
  match (rng, trials) with
  | None, None ->
    let a = Term.simplify a and b = Term.simplify b in
    if a = b then true
    else if !screen_on && Absdom.disjoint (Absdom.of_term a) (Absdom.of_term b)
    then begin
      Atomic.incr screen_refuted;
      false
    end
    else if
      !screen_on
      && (Term.eval (fun _ -> 0L) a <> Term.eval (fun _ -> 0L) b
          || Term.eval (fun _ -> 1L) a <> Term.eval (fun _ -> 1L) b)
    then begin
      Atomic.incr concrete_refuted;
      false
    end
    else
      let key = if compare a b <= 0 then (a, b) else (b, a) in
      Cache.find_or_add equal_memo key (fun () -> prove_equal_real a b)
  | _ -> prove_equal_real ?rng ?trials a b
