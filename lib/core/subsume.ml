(* Stage 2: pool minimization (paper §IV-C).

   The paper drops g2 when some g1 subsumes it by formula (1),
   (pre2 -> pre1) ∧ (post1 = post2), decided with Z3.  Stage 2 here is
   exact semantic dedup followed by a per-bucket size cap.  No pairwise
   formula-(1) pass follows the cap: over the measured image streams it
   removed no gadget that dedup and the cap keep (DESIGN.md §5).

   - Dedup: unaligned sliding produces thousands of byte-identical
     summaries at different addresses; one gadget per semantic class is
     kept, the first in harvest order.
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

type stats = {
  input : int;
  after_dedup : int;
  capped : int;  (* dropped by the [max_bucket] cut *)
}

let dedup (gadgets : Gadget.t list) : Gadget.t list =
  let seen : (int64, Gadget.t list) Hashtbl.t = Hashtbl.create 1024 in
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
