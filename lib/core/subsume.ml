(* Subsumption testing (paper §IV-C).

   g1 subsumes g2 when (pre2 -> pre1) ∧ (post1 = post2): g1 does the same
   thing under a pre-condition at least as weak, so g2 adds nothing and is
   dropped.  Checked with the solver per formula (1); both halves are
   decided, never sampled ([Solver.entails] runs no model search and
   [Solver.prove_equal] compares canonical forms), so a "subsumes"
   answer is sound.  Two speedups:

   - an exact-duplicate pass first (unaligned sliding produces thousands
     of byte-identical summaries at different addresses — we canonicalize
     on semantics, keeping one address per class);
   - candidates are bucketed by a cheap signature (jump kind, stack delta,
     clobber set) so the quadratic comparison only runs inside buckets. *)

open Gp_smt

let jump_sig (g : Gadget.t) =
  match g.Gadget.jmp with
  | Gp_symx.Exec.Jret _ -> 0
  | Gp_symx.Exec.Jind _ -> 1
  | Gp_symx.Exec.Jfall _ -> 2

let signature (g : Gadget.t) =
  ( jump_sig g,
    g.Gadget.stack_delta,
    List.map Gp_x86.Reg.number g.Gadget.clobbered,
    List.length g.Gadget.pre,
    g.Gadget.syscall_state <> None )

(* Canonical semantic identity: the full post state, the jump term,
   stack/pointer writes, and pre-conditions.  Terms are canonicalized by
   construction, so structural equality over these components IS
   semantic-class equality.  Dedup used to build a giant printable key
   per gadget; on large obfuscated cells the string build dominated the
   pass, so identity is now a structural FNV-64 hash with a structural
   compare on collision.  [Jfall] targets are deliberately ignored, as
   the printable key did (every syscall summary fell into one "sys"
   class regardless of fall-through address). *)

let h_word = Gp_util.Store.fnv64_i64
let h_str = Gp_util.Store.fnv64

let rec term_hash h (t : Term.t) =
  match t with
  | Term.Var v -> h_str ~h:(h_word ~h 1L) v
  | Term.Const c -> h_word ~h:(h_word ~h 2L) c
  | Term.Add (a, b) -> term_hash2 (h_word ~h 3L) a b
  | Term.Sub (a, b) -> term_hash2 (h_word ~h 4L) a b
  | Term.Mul (a, b) -> term_hash2 (h_word ~h 5L) a b
  | Term.Neg a -> term_hash (h_word ~h 6L) a
  | Term.Not a -> term_hash (h_word ~h 7L) a
  | Term.And (a, b) -> term_hash2 (h_word ~h 8L) a b
  | Term.Or (a, b) -> term_hash2 (h_word ~h 9L) a b
  | Term.Xor (a, b) -> term_hash2 (h_word ~h 10L) a b
  | Term.Shl (a, b) -> term_hash2 (h_word ~h 11L) a b
  | Term.Shr (a, b) -> term_hash2 (h_word ~h 12L) a b
  | Term.Sar (a, b) -> term_hash2 (h_word ~h 13L) a b

and term_hash2 h a b = term_hash (term_hash h a) b

let formula_hash h (f : Formula.t) =
  match f with
  | Formula.True -> h_word ~h 1L
  | Formula.False -> h_word ~h 2L
  | Formula.Eq (a, b) -> term_hash2 (h_word ~h 3L) a b
  | Formula.Ne (a, b) -> term_hash2 (h_word ~h 4L) a b
  | Formula.Slt (a, b) -> term_hash2 (h_word ~h 5L) a b
  | Formula.Sle (a, b) -> term_hash2 (h_word ~h 6L) a b
  | Formula.Ult (a, b) -> term_hash2 (h_word ~h 7L) a b
  | Formula.Ule (a, b) -> term_hash2 (h_word ~h 8L) a b
  | Formula.Readable a -> term_hash (h_word ~h 9L) a
  | Formula.Writable a -> term_hash (h_word ~h 10L) a

(* Each list is length-prefixed into the chain so component boundaries
   can't alias across fields. *)
let hash_list fold h xs =
  List.fold_left fold (h_word ~h (Int64.of_int (List.length xs))) xs

let semantic_hash (g : Gadget.t) : int64 =
  let h =
    hash_list
      (fun h (r, t) ->
        term_hash (h_word ~h (Int64.of_int (Gp_x86.Reg.number r))) t)
      0xcbf29ce484222325L g.Gadget.post
  in
  let h =
    match g.Gadget.jmp with
    | Gp_symx.Exec.Jret t -> term_hash (h_word ~h 0x10L) t
    | Gp_symx.Exec.Jind t -> term_hash (h_word ~h 0x11L) t
    | Gp_symx.Exec.Jfall _ -> h_word ~h 0x12L
  in
  let h =
    hash_list
      (fun h (o, t) -> term_hash (h_word ~h (Int64.of_int o)) t)
      h g.Gadget.stack_writes
  in
  let h =
    hash_list (fun h (a, v) -> term_hash (term_hash h a) v) h
      g.Gadget.ptr_writes
  in
  hash_list formula_hash h g.Gadget.pre

let semantic_equal (g1 : Gadget.t) (g2 : Gadget.t) =
  (match g1.Gadget.jmp, g2.Gadget.jmp with
   | Gp_symx.Exec.Jret a, Gp_symx.Exec.Jret b
   | Gp_symx.Exec.Jind a, Gp_symx.Exec.Jind b -> a = b
   | Gp_symx.Exec.Jfall _, Gp_symx.Exec.Jfall _ -> true
   | _ -> false)
  && g1.Gadget.post = g2.Gadget.post
  && g1.Gadget.stack_writes = g2.Gadget.stack_writes
  && g1.Gadget.ptr_writes = g2.Gadget.ptr_writes
  && g1.Gadget.pre = g2.Gadget.pre

(* Same observable effects (post, jump, writes); pre-conditions may differ. *)
let same_effects (g1 : Gadget.t) (g2 : Gadget.t) =
  let jump_eq =
    match g1.Gadget.jmp, g2.Gadget.jmp with
    | Gp_symx.Exec.Jret a, Gp_symx.Exec.Jret b
    | Gp_symx.Exec.Jind a, Gp_symx.Exec.Jind b -> Solver.prove_equal a b
    | Gp_symx.Exec.Jfall _, Gp_symx.Exec.Jfall _ -> true
    | _ -> false
  in
  jump_eq
  && List.for_all2
       (fun (_, t1) (_, t2) -> Solver.prove_equal t1 t2)
       g1.Gadget.post g2.Gadget.post
  && List.length g1.Gadget.stack_writes = List.length g2.Gadget.stack_writes
  && List.for_all2
       (fun (o1, t1) (o2, t2) -> o1 = o2 && Solver.prove_equal t1 t2)
       g1.Gadget.stack_writes g2.Gadget.stack_writes
  && List.length g1.Gadget.ptr_writes = List.length g2.Gadget.ptr_writes
  && (match g1.Gadget.syscall_state, g2.Gadget.syscall_state with
      | None, None -> true
      | Some s1, Some s2 ->
        List.for_all2 (fun (_, t1) (_, t2) -> Solver.prove_equal t1 t2) s1 s2
      | _ -> false)

(* Formula (1): (pre2 -> pre1) ∧ (post1 = post2). *)
let subsumes (g1 : Gadget.t) (g2 : Gadget.t) =
  same_effects g1 g2
  && List.for_all (fun f -> Solver.entails g2.Gadget.pre f) g1.Gadget.pre

type stats = {
  input : int;
  after_dedup : int;
  after_subsume : int;
  capped : int;       (* dropped by the [max_bucket] cut, never probed *)
  timed_out : bool;   (* budget ran dry; remaining gadgets passed through *)
}

(* Pairwise subsumption inside one (sorted, truncated) bucket, against
   the given budget.  Subsumption only ever SHRINKS the pool, so
   running out of budget — or a solver blow-up on one pair — is never
   fatal: the gadget is kept (conservative) and, once the budget has
   hit, the rest of the bucket passes through unexamined. *)
(* Survivors accumulate in a flat array (arrival order) instead of the
   seed's [!survivors @ [g]] per element, which was O(n²) per bucket.
   The array keeps the probe order identical — earlier survivors are
   still tried first, so solver traffic and budget consumption match
   the seed element for element. *)
let probe_bucket ~budget bucket : Gadget.t list * bool =
  match bucket with
  | [] -> ([], false)
  | first :: _ ->
    let arr = Array.make (List.length bucket) first in
    let count = ref 0 in
    let keep g =
      arr.(!count) <- g;
      incr count
    in
    let rec probed_subsumes g i =
      i < !count && (subsumes arr.(i) g || probed_subsumes g (i + 1))
    in
    let timed_out = ref false in
    List.iter
      (fun g ->
        if !timed_out then keep g
        else
          match
            Budget.guard budget (fun () ->
                try not (probed_subsumes g 0)
                with
                | Budget.Exhausted _ as e -> raise e
                | _ -> true)
          with
          | Ok k -> if k then keep g
          | Error _ ->
            timed_out := true;
            keep g)
      bucket;
    (Array.to_list (Array.sub arr 0 !count), !timed_out)

let minimize ?(max_bucket = 64) ?(budget = Budget.unlimited ()) ?(jobs = 1)
    (gadgets : Gadget.t list) : Gadget.t list * stats =
  let input = List.length gadgets in
  (* pass 1: exact semantic duplicates (hash buckets, structural
     compare on collision) *)
  let seen : (int64, Gadget.t list) Hashtbl.t = Hashtbl.create 1024 in
  let dedup =
    List.filter
      (fun g ->
        let h = semantic_hash g in
        let bucket = Option.value (Hashtbl.find_opt seen h) ~default:[] in
        if List.exists (fun g' -> semantic_equal g' g) bucket then false
        else begin
          Hashtbl.replace seen h (g :: bucket);
          true
        end)
      gadgets
  in
  let after_dedup = List.length dedup in
  (* pass 2: bucketed pairwise subsumption *)
  let buckets = Hashtbl.create 64 in
  List.iter
    (fun g ->
      let s = signature g in
      let cur = try Hashtbl.find buckets s with Not_found -> [] in
      Hashtbl.replace buckets s (g :: cur))
    dedup;
  (* Materialize buckets in table-traversal order ([Hashtbl.fold] and
     [Hashtbl.iter] walk the same way), sorted and truncated up front —
     preferring shorter gadgets as survivors — so the sequential and
     parallel paths see byte-identical work lists.  The truncation drops
     the longest gadgets of an oversized bucket unexamined; [capped]
     counts them. *)
  let capped = ref 0 in
  let bucket_list =
    List.rev
      (Hashtbl.fold
         (fun _ bucket acc ->
           let bucket =
             List.sort (fun a b -> compare a.Gadget.len b.Gadget.len) bucket
           in
           let n = List.length bucket in
           let bucket =
             if n > max_bucket then begin
               capped := !capped + (n - max_bucket);
               List.filteri (fun i _ -> i < max_bucket) bucket
             end
             else bucket
           in
           bucket :: acc)
         buckets [])
  in
  let probed =
    if jobs <= 1 then begin
      (* once the shared budget dies, every later bucket passes through
         unexamined — the sticky flag mirrors the seed behavior *)
      let timed_out = ref false in
      List.map
        (fun bucket ->
          if !timed_out then (bucket, true)
          else begin
            let (_, t) as r = probe_bucket ~budget bucket in
            if t then timed_out := true;
            r
          end)
        bucket_list
    end
    else
      (* bucket-parallel: each probe owns a budget slice (same deadline,
         private meter), so domains never share mutable budget state.
         Under an exhausted budget every bucket still passes through —
         the same conservative outcome as the sequential sticky flag. *)
      Gp_util.Par.map ~jobs ~chunk:1
        (fun bucket -> probe_bucket ~budget:(Budget.slice budget ()) bucket)
        bucket_list
  in
  (* merge in bucket order, reproducing the seed's accumulation order *)
  let kept =
    List.fold_left (fun acc (surv, _) -> surv @ acc) [] probed
  in
  let timed_out = List.exists snd probed in
  (kept,
   { input; after_dedup; after_subsume = List.length kept; capped = !capped;
     timed_out })
