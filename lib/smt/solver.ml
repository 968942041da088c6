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

let special_values =
  [| 0L; 1L; 2L; -1L; 8L; 0x100L; 0x1000L; 0x400000L; 0x601000L; Int64.min_int |]

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

   - Tier C (residual-search memo, see [residual_key]): pool-keyed
     queries that leave the same open residual share the model
     search's outcome.

   [screen_decided] is bumped per query answered, before any memo
   lookup (the same discipline as [unknowns]), so the tally depends
   only on the query sequence and is identical under any job count. *)

let screen_decided = Atomic.make 0
let elim_reused = Atomic.make 0

(* The first and third slots (the deleted prove_equal and concrete
   refutation tiers) always read 0.  The 4-tuple is kept for bench/e2e;
   delete in the benchmark PR.  [elim_reused] keeps its name for the
   same reason: it counts residual-memo hits. *)
let screen_stats () =
  (0, Atomic.get screen_decided, 0, Atomic.get elim_reused)

(* Tier C: residual-search reuse.  After the reduction, [search] hunts
   for a model of the OPEN residual (the atoms left once sigma
   substituted every bound variable away) by a deterministic trial
   sequence: the all-zeros assignment, then draws from a call-local
   rng with a fixed seed.  That outcome — which assignment
   (if any) is the first to pass — is therefore a pure function of
   (open residual, free-variable list, pool), NOT of the full
   conjunction: instantiation queries that differ only in equalities
   the eliminator absorbs leave the very same residual system
   (typically the gadget's own pointer atoms), and the common
   exhausted-search case burns its whole trial budget on each of them.
   The memo is keyed on exactly that triple; the pool leg is the
   caller's [pool_key] vouching, so unkeyed pools are never memoized.
   A [Found] hit replays the cached free-var assignment through THIS
   query's sigma and re-runs the defensive double-check against THIS
   query's formulas — if that ever failed (only possible under an
   eliminator bug) the code falls back to the full fresh search, so
   behaviour is bit-identical by construction.  The table is
   DOMAIN-LOCAL ([Domain.DLS]): lock-free, at the price of a little
   cross-domain reuse, so [elim_reused], its hit count, is (like the
   cache hit/miss split) a temperature statistic: reported, excluded
   from differential comparisons. *)
type search_outcome = No_assignment | Found of int64 Smap.t

let residual_key :
    ((Formula.t list * string list * (int64 * int)), search_outcome) Hashtbl.t
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 1024)

let reset_screen () =
  (* clears the calling domain's memo; worker-domain memos hold only
     pure-function-of-key outcomes, so keeping them is harmless *)
  Hashtbl.reset (Domain.DLS.get residual_key);
  Absdom.reset ();
  Atomic.set screen_decided 0;
  Atomic.set elim_reused 0

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
            match Term.linearize (Term.Sub (a, b)) with
            | Some l -> (l :: eqs, ptrs, rest)
            | None -> (eqs, ptrs, f :: rest))
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
          @ List.map (fun l -> Formula.Eq (Term.of_linear l, Term.Const 0L))
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

(* ----- the model search (only [check] runs it) ----- *)

let search ~pool ?pool_key { r_formulas = formulas; r_sigma = sigma; r_atoms } =
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
     pointer atoms) evaluate the same under EVERY assignment — the
     search can neither fix a false one by retrying nor lose a true one,
     so judge them once here instead of once per trial.  A false closed
     atom means no trial can ever succeed: that is exactly an exhausted
     search, hence Unknown (the search's rng is call-local, so the
     skipped draws are invisible to every other query). *)
  let closed, open_residual =
    List.partition (fun f -> Term.Vset.is_empty (Formula.vars f)) r_atoms
  in
  let closed_ok =
    List.for_all (Formula.eval ~readable ~writable (model_fn Smap.empty)) closed
  in
  if not closed_ok then Unknown
  else begin
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
    (* [apply_sigma] substituted every bound variable away, so the open
       residual mentions free variables only — each trial can evaluate
       it straight off the assignment.  The full model (the sigma fold)
       is only materialized for the rare trial that passes, where the
       double-check and the returned [Sat] witness need it; failed
       trials skip it entirely.  Same verdicts, same witnesses — just no
       per-trial sigma fold. *)
    let try_assignment assignment =
      if
        List.for_all
          (Formula.eval ~readable ~writable (model_fn assignment))
          open_residual
      then begin
        let m = build_model assignment in
        (* double-check the original system — guards against any bug in
           the elimination *)
        if List.for_all (Formula.eval ~readable ~writable (model_fn m)) formulas
        then Some m
        else None
      end
      else None
    in
    let zero_assignment =
      List.fold_left (fun m v -> Smap.add v 0L m) Smap.empty free
    in
    let max_trials = 200 in
    let run_search () =
      match try_assignment zero_assignment with
      | Some m -> Sat m
      | None ->
        (* With no free variables there is exactly one candidate
           assignment and it just failed: every further trial would
           rebuild the same model.  Identical to exhausting the search,
           without the [max_trials] rebuilds. *)
        if free = [] then Unknown
        else
          let rng = Gp_util.Rng.create 0x5eed in
          let rec go k =
            if k >= max_trials then Unknown
            else begin
              let assignment =
                List.fold_left
                  (fun m v ->
                    let value =
                      if Gp_util.Rng.int rng 4 = 0 then
                        special_values.(Gp_util.Rng.int rng (Array.length special_values))
                      else Gp_util.Rng.next_int64 rng
                    in
                    Smap.add v value m)
                  Smap.empty free
              in
              match try_assignment assignment with
              | Some m -> Sat m
              | None -> go (k + 1)
            end
          in
          go 0
    in
    (* Tier C residual-search reuse (see [residual_key]): the trial
       sequence is deterministic, so the first open-residual-passing
       assignment (or its absence) is a pure function of the key.  Free
       vars are disjoint from sigma's domain, so replaying the cached
       assignment through THIS query's sigma rebuilds exactly the model
       the fresh search would have built. *)
    match pool_key with
    | Some pk -> (
      let tbl = Domain.DLS.get residual_key in
      let key = (open_residual, free, pk) in
      match Hashtbl.find_opt tbl key with
      | Some No_assignment ->
        Atomic.incr elim_reused;
        Unknown
      | Some (Found assignment) ->
        let m = build_model assignment in
        if List.for_all (Formula.eval ~readable ~writable (model_fn m)) formulas
        then begin
          Atomic.incr elim_reused;
          Sat m
        end
        else
          (* unreachable unless the eliminator mis-solved: fall back to
             the fresh search so behaviour cannot diverge *)
          run_search ()
      | None ->
        let r = run_search () in
        (match r with
        | Sat m ->
          let assignment =
            List.fold_left (fun a v -> Smap.add v (model_fn m v) a) Smap.empty free
          in
          Hashtbl.replace tbl key (Found assignment)
        | Unknown -> Hashtbl.replace tbl key No_assignment
        | Unsat -> ());
        r)
    | None -> run_search ()
  end

let check_real ~pool ?pool_key formulas =
  match reduce ~pool formulas with
  | Decided r -> r
  | Residual r -> search ~pool ?pool_key r

(* Memo for pools that the CALLER can key structurally: [Layout.pool
   ~salt] is a pure function of (payload_base, rotation), so the planner
   passes that pair as [pool_key] and identical instantiation queries —
   which recur constantly as the same gadget is tried against the same
   condition along different branches — are answered once.  The key is
   structured, not hashed, so distinct pools can never collide.  The
   memo answers the canonical form, so a hit is indistinguishable from
   a fresh solve (see Cache). *)
let pool_memo : (((int64 * int) * Formula.t list), result) Cache.t =
  Cache.create ()

(* Never written: [check] memoizes only keyed queries (in [pool_memo]),
   and term equality is [Term.equal], never a solver query.  Kept for
   bench/e2e, which reads their counters; delete in the benchmark PR. *)
let memo : (Formula.t list, result) Cache.t = Cache.create ~size:16 ()
let equal_memo : (Term.t * Term.t, bool) Cache.t = Cache.create ~size:16 ()

(* chaos hook → Tier A unsat screen → [pool_memo] when keyed → otherwise
   [check_real].  Every path solves the CANONICAL conjunction: the
   reduction pins pointer atoms to pool addresses in list order, so the
   model it returns (and, when pins clash, Sat vs Unknown) depends on
   conjunct order — solving the caller's order here would let
   [check ~pool fs] and the keyed memo disagree on the same [fs]. *)
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
    let canonical = Cache.canon formulas in
    let r =
      match pool_key with
      | Some pk ->
        (* Caller vouches that [pk] fully determines [pool]; the search
           runs with its fixed-seed rng, so the verdict is a pure
           function of (pk, canonical conjunction). *)
        Cache.find_or_add pool_memo (pk, canonical) (fun () ->
            check_real ~pool ~pool_key:pk canonical)
      | None -> check_real ~pool canonical
    in
    (match r with Unknown -> Atomic.incr unknowns | Sat _ | Unsat -> ());
    r
  end

(* ----- memo persistence (DESIGN.md §11) -----

   [pool_memo]'s keys are pure structural data, so it can be dumped
   into the on-disk store and pre-seeded on the next run: every stored
   verdict is a pure function of its canonical key, so importing can
   only skip solves, never change one.  Each entry is self-contained
   (its own Term.Ser pool); the section is sorted by serialized key so
   the file bytes are deterministic. *)

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

let put_pool_key w b ((base, salt), fs) =
  Bin.i64 b base; Bin.int_ b salt; Formula.put_list w b fs
let get_pool_key r s pos =
  let base = Bin.gi64 s pos in
  let salt = Bin.gint s pos in
  let fs = Formula.get_list r s pos in
  ((base, salt), fs)

let pool_section = "solver.pool"

let memo_count () = Cache.length pool_memo

let export_memos () =
  let ser (k, v) =
    let w = Term.Ser.writer () in
    let kb = Buffer.create 64 in
    put_pool_key w kb k;
    (* The value continues the key's node pool, so [w] spans the entry
       and the reader must consume key then value in order. *)
    let vb = Buffer.create 32 in
    put_result w vb v;
    (Buffer.contents kb, Buffer.contents vb)
  in
  [ { Gp_util.Store.name = pool_section;
      entries = Cache.export pool_memo |> List.map ser |> List.sort compare } ]

let import_memos (sections : Gp_util.Store.section list) =
  let deser (ks, vs) =
    let r = Term.Ser.reader () in
    let k = get_pool_key r ks (ref 0) in
    (* value pool refs resolve against nodes defined in the key *)
    let v = get_result r vs (ref 0) in
    (k, v)
  in
  List.fold_left
    (fun n { Gp_util.Store.name; entries } ->
      if name <> pool_section then n
      else begin
        Cache.import pool_memo (List.map deser entries);
        n + List.length entries
      end)
    0 sections
