(* The gadget record (paper Table II) plus classification (Table I).

   A gadget is a symbolic summary of an instruction run ending in a
   controllable transfer, reduced to the fields the planner consumes:
   which registers it clobbers, which it sets from attacker-controlled
   stack slots, its pre-condition formulas, its post-condition terms, and
   how control leaves it. *)

open Gp_x86
open Gp_smt

type kind =
  | Return   (* ends in ret *)
  | UDJ      (* unconditional direct jump (merged through) *)
  | UIJ      (* unconditional indirect jump / call *)
  | CDJ      (* conditional, ending in a direct transfer (ret counts) *)
  | CIJ      (* conditional, ending in an indirect transfer *)
  | Sys      (* ends at a syscall *)

let kind_name = function
  | Return -> "ret" | UDJ -> "udj" | UIJ -> "uij" | CDJ -> "cdj" | CIJ -> "cij"
  | Sys -> "sys"

(* How the gadget leaves the stack pointer. *)
type stack_effect =
  | Sdelta of int      (* rsp_final = rsp_entry + d: normal chain motion *)
  | Spivot of int      (* rsp_final = rbp_entry + d: frame pivot (leave) *)
  | Sunknown

type t = {
  id : int;
  addr : int64;                          (* location *)
  len : int;                             (* instruction count *)
  insns : Insn.t list;
  kind : kind;
  jmp : Gp_symx.Exec.jump;
  clobbered : Reg.t list;                (* clob-reg *)
  controlled : (Reg.t * int) list;       (* ctrl-reg: reg <- stack slot at offset *)
  pre : Formula.t list;                  (* pre-cond *)
  post : (Reg.t * Term.t) list;          (* post-cond: final value of every reg *)
  stack_delta : stack_effect;
  stack_writes : (int * Term.t) list;
  consumed : int list;                   (* payload slots this gadget reads *)
  ptr_writes : (Term.t * Term.t) list;   (* write-what-where effects *)
  mem_reads : (string * Term.t * bool) list;  (* var, address, reliable *)
  syscall_state : (Reg.t * Term.t) list option;
  has_cond : bool;
  has_merge : bool;
  alias_hazard : bool;
}

let next_id = ref 0

(* Forget the id sequence.  Differential tests reset before comparing
   pipelines so both runs draw the same ids (ids seed the layout pool's
   address salt, see Plan). *)
let reset_ids () = next_id := 0

(* Draw the next id from the global sequence.  Worker domains build
   gadgets with [of_summary ~id:(-1)] (never touching the shared
   counter); the main domain then renumbers the merged, deterministic
   ally ordered list with [fresh_id], reproducing exactly the sequence
   a sequential harvest would have assigned. *)
let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

type id_source = unit -> int

let global_ids : id_source = fresh_id

(* A private 0-based sequence.  A scheduler cell harvesting on a worker
   domain cannot touch [next_id] (racy, and the draw order would depend
   on interleaving); drawing from its own source reproduces exactly the
   ids a sequential [reset_ids (); harvest] would assign, because both
   number the converted summaries 0, 1, 2, ... in decode order. *)
let local_ids () : id_source =
  let n = ref 0 in
  fun () ->
    let id = !n in
    incr n;
    id

let classify (s : Gp_symx.Exec.summary) =
  if s.Gp_symx.Exec.s_syscall then Sys
  else
    match s.s_jump, s.s_has_cond, s.s_has_merge with
    | Gp_symx.Exec.Jind _, true, _ -> CIJ
    | _, true, _ -> CDJ
    | _, false, true -> UDJ
    | Gp_symx.Exec.Jret _, false, false -> Return
    | Gp_symx.Exec.Jind _, false, false -> UIJ
    | Gp_symx.Exec.Jfall _, false, false -> Sys

(* Build the gadget record for one summary.  Without [id], an id is
   drawn from the global sequence (the sequential harvest path); with
   it, the shared counter is left untouched (parallel workers pass a
   placeholder and the merge renumbers). *)
let of_summary ?id (s : Gp_symx.Exec.summary) : t =
  let st = s.Gp_symx.Exec.s_state in
  let post =
    List.map (fun r -> (r, Term.simplify (Gp_symx.State.reg st r))) Reg.all
  in
  let clobbered =
    List.filter_map
      (fun (r, t) -> if t = Gp_symx.State.reg_var r then None else Some r)
      post
  in
  let controlled =
    List.filter_map
      (fun (r, t) ->
        match t with
        | Term.Var name -> (
          match Gp_symx.State.slot_of_var name with
          | Some off -> Some (r, off)
          | None -> None)
        | _ -> None)
      post
  in
  let stack_delta =
    match Term.linearize (Gp_symx.State.reg st Reg.RSP) with
    | Some { Term.lin_const = c; lin_terms = [ (v, 1L) ] } when v = "rsp_0" ->
      Sdelta (Int64.to_int c)
    | Some { Term.lin_const = c; lin_terms = [ (v, 1L) ] } when v = "rbp_0" ->
      Spivot (Int64.to_int c)
    | _ -> Sunknown
  in
  let id = match id with Some i -> i | None -> fresh_id () in
  { id;
    addr = s.s_addr;
    len = List.length s.s_insns;
    insns = s.s_insns;
    kind = classify s;
    jmp = s.s_jump;
    clobbered;
    controlled;
    pre = List.rev st.Gp_symx.State.path;
    post;
    stack_delta;
    stack_writes = st.Gp_symx.State.stack_writes;
    consumed = Gp_symx.State.consumed_slots st;
    ptr_writes = st.Gp_symx.State.ptr_writes;
    mem_reads = st.Gp_symx.State.mem_reads;
    syscall_state =
      (* the state at the FIRST syscall executed (the list is built in
         reverse execution order) *)
      (match List.rev st.Gp_symx.State.syscalls with [] -> None | s :: _ -> Some s);
    has_cond = s.s_has_cond;
    has_merge = s.s_has_merge;
    alias_hazard = st.Gp_symx.State.alias_hazard }

let post_of g r = List.assoc r g.post

let to_string g =
  Printf.sprintf "0x%Lx [%s] %s" g.addr (kind_name g.kind)
    (String.concat "; " (List.map Insn.to_string g.insns))

let describe g =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (to_string g);
  Buffer.add_string buf "\n  pre:  ";
  Buffer.add_string buf
    (String.concat " && " (List.map Formula.to_string g.pre));
  Buffer.add_string buf "\n  post: ";
  List.iter
    (fun (r, t) ->
      if List.mem r g.clobbered then
        Buffer.add_string buf
          (Printf.sprintf "%s=%s " (Reg.name r) (Term.to_string t)))
    g.post;
  Buffer.contents buf
