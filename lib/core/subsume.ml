(* Stage 2: pool minimization (paper §IV-C).

   The paper drops g2 when some g1 subsumes it by formula (1),
   (pre2 -> pre1) ∧ (post1 = post2), decided with Z3.  Stage 2 here is
   exact semantic dedup followed by a per-bucket size cap.  No pairwise
   formula-(1) pass follows the cap: over the measured image streams it
   removed no gadget that dedup and the cap keep (DESIGN.md §5).

   - Dedup: unaligned sliding produces thousands of byte-identical
     summaries at different addresses; one gadget per semantic class is
     kept, the first in harvest order.  Classes are told apart by the
     hash-consed terms' O(1) identity (DESIGN.md §10), not by walking
     the terms.
   - Cap: gadgets are bucketed by a cheap signature (jump kind, stack
     delta, clobber set, precondition count, syscall or not), and a
     bucket keeps only its [max_bucket] shortest gadgets. *)

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
   stack/pointer writes, and pre-conditions.  Every term in a summary
   is canonical by construction, so structural equality over these
   components IS semantic-class equality — and canonical terms are
   hash-consed, so each term's identity is O(1): [Term.hash] keys the
   bucket and [Term.same] compares ([==] in the common case), with no
   walk of any term.  [Jfall] targets are deliberately ignored (every
   syscall summary falls into one class regardless of fall-through
   address), as are [kind] and [syscall_state]. *)

let mix h x = (h lxor x) * 0x100000001b3

let hash_list f h xs = List.fold_left (fun h x -> mix h (f x)) h xs

let semantic_hash (g : Gadget.t) : int =
  let h = Array.fold_left (fun h t -> mix h (Term.hash t)) 0 g.Gadget.post in
  let h =
    match g.Gadget.jmp with
    | Gp_symx.Exec.Jret t -> mix (mix h 1) (Term.hash t)
    | Gp_symx.Exec.Jind t -> mix (mix h 2) (Term.hash t)
    | Gp_symx.Exec.Jfall _ -> mix h 3
  in
  let h = hash_list (fun (o, t) -> mix o (Term.hash t)) h g.Gadget.stack_writes in
  let h =
    hash_list (fun (a, v) -> mix (Term.hash a) (Term.hash v)) h g.Gadget.ptr_writes
  in
  hash_list Formula.hash h g.Gadget.pre

let rec list_same eq xs ys =
  match xs, ys with
  | [], [] -> true
  | x :: xs, y :: ys -> eq x y && list_same eq xs ys
  | _ -> false

let semantic_equal (g1 : Gadget.t) (g2 : Gadget.t) =
  (match g1.Gadget.jmp, g2.Gadget.jmp with
   | Gp_symx.Exec.Jret a, Gp_symx.Exec.Jret b
   | Gp_symx.Exec.Jind a, Gp_symx.Exec.Jind b -> Term.same a b
   | Gp_symx.Exec.Jfall _, Gp_symx.Exec.Jfall _ -> true
   | _ -> false)
  && Array.for_all2 Term.same g1.Gadget.post g2.Gadget.post
  && list_same (fun (o1, t1) (o2, t2) -> o1 = o2 && Term.same t1 t2)
       g1.Gadget.stack_writes g2.Gadget.stack_writes
  && list_same (fun (a1, v1) (a2, v2) -> Term.same a1 a2 && Term.same v1 v2)
       g1.Gadget.ptr_writes g2.Gadget.ptr_writes
  && list_same Formula.same g1.Gadget.pre g2.Gadget.pre

type stats = {
  input : int;
  after_dedup : int;
  capped : int;  (* dropped by the [max_bucket] cut *)
}

let dedup (gadgets : Gadget.t list) : Gadget.t list =
  let seen : (int, Gadget.t list) Hashtbl.t = Hashtbl.create 1024 in
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

let max_bucket = 64

let minimize (gadgets : Gadget.t list) : Gadget.t list * stats =
  let deduped = dedup gadgets in
  let buckets = Hashtbl.create 64 in
  List.iter
    (fun g ->
      let s = signature g in
      let cur = try Hashtbl.find buckets s with Not_found -> [] in
      Hashtbl.replace buckets s (g :: cur))
    deduped;
  (* Each bucket is sorted shortest first (stable: equal lengths keep
     bucket order, which is reverse dedup order) and cut to
     [max_bucket]; the pool is the buckets concatenated in reverse
     table-traversal order.  Both orders fix which gadget ids the pool
     lists, and where, so neither may change without moving every
     recorded pool. *)
  let capped = ref 0 in
  let pool =
    Hashtbl.fold
      (fun _ bucket acc ->
        let bucket =
          List.sort (fun a b -> compare a.Gadget.len b.Gadget.len) bucket
        in
        let n = List.length bucket in
        if n > max_bucket then begin
          capped := !capped + (n - max_bucket);
          List.filteri (fun i _ -> i < max_bucket) bucket @ acc
        end
        else bucket @ acc)
      buckets []
  in
  (pool,
   { input = List.length gadgets; after_dedup = List.length deduped;
     capped = !capped })
