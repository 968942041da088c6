(* Plan representation for partial-order planning (paper §IV-D).

   A plan is the 5-tuple (α, β, γ, δ, ε): steps, orderings, causal links,
   open pre-conditions, and (transient) threats.  Steps are INSTANTIATED
   gadgets: at instantiation time the gadget's pre-conditions and the
   required effect are solved together, yielding concrete stack-slot
   bindings (payload cells) and concrete register demands on earlier
   steps.  This concretization keeps the POP machinery classical — every
   condition is "register r equals value v at this step's entry" or
   "memory cell a holds v" — while the symbolic heavy lifting happens in
   the solver at instantiation. *)

open Gp_x86
open Gp_smt

type cond =
  | Creg of Reg.t * int64
  | Cmem of int64 * int64

let cond_to_string = function
  | Creg (r, v) -> Printf.sprintf "%s=0x%Lx" (Reg.name r) v
  | Cmem (a, v) -> Printf.sprintf "[0x%Lx]=0x%Lx" a v

type step_id = int

type step = {
  sid : step_id;
  gadget : Gadget.t;
  bindings : (int * int64) list;        (* slot offset -> payload value *)
  abs_bindings : (int64 * int64) list;  (* absolute payload cell -> value *)
  mem_cells : (string * int64) list;    (* mem var -> absolute payload cell *)
  effects : (Reg.t * int64) list;       (* concrete register effects *)
  mem_effects : (int64 * int64) list;   (* concrete pointer-write effects *)
  write_addrs : int64 list;             (* all determined write targets *)
  demands : cond list;                  (* pre-conditions on the entry state *)
  is_goal : bool;
}

type t = {
  steps : step list;
  orderings : (step_id * step_id) list;  (* (a, b): a executes before b *)
  links : (step_id * cond * step_id) list;
  open_conds : (step_id * cond) list;    (* (consumer, needed condition) *)
  next_sid : int;
}

(* ----- instantiation ----- *)

let reg_of_entry_var name =
  if String.length name > 2 && String.sub name (String.length name - 2) 2 = "_0"
  then
    match Reg.of_name (String.sub name 0 (String.length name - 2)) with
    | r -> Some r
    | exception _ -> None
  else None

let is_slot_var name = Gp_symx.State.slot_of_var name <> None

let find_mem_read (g : Gadget.t) v =
  List.find_opt (fun (n, _, _) -> n = v) g.Gadget.mem_reads

let is_mem_var (g : Gadget.t) v = find_mem_read g v <> None

(* only RELIABLE reads can be treated as attacker-chosen payload cells *)
let is_reliable_mem_var (g : Gadget.t) v =
  match find_mem_read g v with Some (_, _, r) -> r | None -> false

(* Solve [require] together with the gadget's own pre-conditions.
   Returns (bindings, abs_bindings, mem_cells, demands, model) or None.

   Memory values read through controlled pointers are handled per the
   paper (§IV-B): the pointer variable is pinned into the payload region,
   the read value becomes a payload cell we bind (abs_bindings), and the
   variable is otherwise unconstrained.  A memory read whose cell does
   NOT land in attacker-controlled memory poisons the instantiation. *)
let solve_instantiation ?(salt = 0) (g : Gadget.t) (require : Formula.t list) =
  let formulas = g.Gadget.pre @ require in
  let vars =
    List.fold_left
      (fun s f -> Term.Vset.union s (Formula.vars f))
      Term.Vset.empty formulas
  in
  (* reject outright-uncontrollable variables *)
  if
    Term.Vset.exists
      (fun v ->
        (not (is_slot_var v))
        && (not (is_mem_var g v))
        && (reg_of_entry_var v = None || reg_of_entry_var v = Some Reg.RSP))
      vars
  then None
  else
    match
      Solver.check
        ~pool:(Layout.pool ~salt:(g.Gadget.id + salt))
        ~pool_key:(Layout.pool_key ~salt:(g.Gadget.id + salt))
        formulas
    with
    | Solver.Sat model ->
      let m = Solver.model_fn model in
      (* resolve every RELIABLE memory read whose address is determined *)
      let mem_cells =
        List.filter_map
          (fun (name, addr, reliable) ->
            if
              reliable
              && Term.Vset.for_all
                   (fun v -> Gp_smt.Solver.Smap.mem v model)
                   (Term.vars addr)
            then begin
              let a = Term.eval m addr in
              if Layout.in_payload a then Some (name, a) else None
            end
            else None)
          g.Gadget.mem_reads
      in
      let ok = ref true in
      let bindings = ref [] in
      let abs_bindings = ref [] in
      let demands = ref [] in
      Term.Vset.iter
        (fun v ->
          let value = m v in
          match Gp_symx.State.slot_of_var v with
          | Some off -> bindings := (off, value) :: !bindings
          | None -> (
            match reg_of_entry_var v with
            | Some r -> demands := Creg (r, value) :: !demands
            | None ->
              if is_mem_var g v then begin
                match List.assoc_opt v mem_cells with
                | Some cell -> abs_bindings := (cell, value) :: !abs_bindings
                | None -> ok := false   (* constrained read outside our memory *)
              end))
        vars;
      if !ok then Some (!bindings, !abs_bindings, mem_cells, !demands, model)
      else None
    | Solver.Unsat | Solver.Unknown -> None

(* Will this gadget's outgoing transfer be solvable to an arbitrary next
   address at payload-build time?  True when the target is a payload slot
   (or affine in one), or a memory read resolved to a payload cell. *)
let target_controllable (g : Gadget.t) mem_cells =
  match g.Gadget.jmp with
  | Gp_symx.Exec.Jfall _ -> false
  | Gp_symx.Exec.Jret t | Gp_symx.Exec.Jind t -> (
    match Term.linearize t with
    | Some { Term.lin_terms = [ (v, k) ]; _ } when Int64.logand k 1L = 1L ->
      is_slot_var v || List.mem_assoc v mem_cells
    | _ -> false)

(* Concrete effects of the gadget under a model: every post register (and
   pointer write) whose term is fully determined by the model. *)
let concrete_effects (g : Gadget.t) model =
  let determined t =
    Term.Vset.for_all
      (fun v -> Gp_smt.Solver.Smap.mem v model)
      (Term.vars t)
  in
  let effects =
    List.filter_map
      (fun (r, t) ->
        if r <> Reg.RSP && determined t then
          Some (r, Term.eval (Solver.model_fn model) t)
        else None)
      g.Gadget.post
  in
  let mem_effects =
    List.filter_map
      (fun (a, v) ->
        if determined a && determined v then
          Some (Term.eval (Solver.model_fn model) a, Term.eval (Solver.model_fn model) v)
        else None)
      g.Gadget.ptr_writes
  in
  (* write targets whose address is known even when the value isn't:
     they still trample payload cells at run time *)
  let write_addrs =
    List.filter_map
      (fun (a, _) ->
        if determined a then Some (Term.eval (Solver.model_fn model) a) else None)
      g.Gadget.ptr_writes
  in
  (effects, mem_effects, write_addrs)

(* A required equality that pins a variable-free term to a constant it
   does not evaluate to is unsatisfiable: [Solver.check] could only
   answer Unsat or Unknown, and both mean None, so the callers below
   return None without building the query. *)
let closed_mismatch require =
  List.exists
    (function
      | Formula.Eq (t, Term.Const c) ->
        Term.Vset.is_empty (Term.vars t) && Term.eval (fun _ -> 0L) t <> c
      | _ -> false)
    require

(* Instantiate [g] to achieve [cond]. *)
let instantiate_for (g : Gadget.t) (cond : cond) ~sid : step option =
  match g.Gadget.jmp with
  | Gp_symx.Exec.Jfall _ ->
    (* a gadget that dead-ends at a syscall cannot sit in the chain
       interior; only the goal step may end there *)
    None
  | Gp_symx.Exec.Jret _ | Gp_symx.Exec.Jind _ ->
  (* a gadget only ACHIEVES a register condition if it writes the register;
     pass-through would merely defer the same condition *)
  (match cond with
   | Creg (r, _) when not (List.mem r g.Gadget.clobbered) -> None
   | _ ->
  let require =
    match cond with
    | Creg (r, v) -> [ Formula.Eq (Gadget.post_of g r, Term.const v) ]
    | Cmem (a, v) -> (
      (* choose the first pointer write that can hit the cell *)
      match g.Gadget.ptr_writes with
      | [] -> []
      | (at, vt) :: _ ->
        [ Formula.Eq (at, Term.const a); Formula.Eq (vt, Term.const v) ])
  in
  if require = [] && (match cond with Cmem _ -> true | _ -> false) then None
  else if closed_mismatch require then None
  else
    match solve_instantiation ~salt:(Hashtbl.hash cond) g require with
    | None -> None
    | Some (bindings, abs_bindings, mem_cells, demands, model) ->
      if not (target_controllable g mem_cells) then None
      else
      let effects, mem_effects, write_addrs = concrete_effects g model in
      (* the instantiation must actually deliver the condition *)
      let delivers =
        match cond with
        | Creg (r, v) -> List.assoc_opt r effects = Some v
        | Cmem (a, v) -> List.mem (a, v) mem_effects
      in
      (* a gadget whose writes cannot all be located is too dangerous to
         place in a chain: it might trample any payload cell *)
      if (not delivers) || List.length write_addrs < List.length g.Gadget.ptr_writes
      then None
      else
        Some
          { sid; gadget = g; bindings; abs_bindings; mem_cells; effects;
            mem_effects; write_addrs; demands; is_goal = false })

(* Instantiate a syscall gadget as the plan's GOAL step. *)
let instantiate_goal (g : Gadget.t) (goal : Goal.concrete) ~sid : step option =
  match g.Gadget.syscall_state with
  | None -> None
  | Some sys ->
    let require =
      List.map
        (fun (r, v) ->
          match List.assoc_opt r sys with
          | Some t -> Formula.Eq (t, Term.const v)
          | None -> Formula.False)
        goal.Goal.regs
    in
    if closed_mismatch require then None
    else
    match solve_instantiation g require with
    | None -> None
    | Some (bindings, abs_bindings, mem_cells, demands, model) ->
      let effects, mem_effects, write_addrs = concrete_effects g model in
      if List.length write_addrs < List.length g.Gadget.ptr_writes then None
      else
        Some
          { sid; gadget = g; bindings; abs_bindings; mem_cells; effects;
            mem_effects; write_addrs; demands; is_goal = true }

(* ----- plan-level helpers ----- *)

let find_step (p : t) sid = List.find (fun s -> s.sid = sid) p.steps

(* Is there a path a ~> b in the ordering relation? *)
let reaches (p : t) a b =
  let rec go visited frontier =
    match frontier with
    | [] -> false
    | x :: rest ->
      if x = b then true
      else if List.mem x visited then go visited rest
      else
        let next =
          List.filter_map
            (fun (u, v) -> if u = x then Some v else None)
            p.orderings
        in
        go (x :: visited) (next @ rest)
  in
  go [] [ a ]

let add_ordering (p : t) a b : t option =
  if a = b then None
  else if List.mem (a, b) p.orderings then Some p
  else if reaches p b a then None   (* would create a cycle *)
  else Some { p with orderings = (a, b) :: p.orderings }

(* Does step [s] clobber the resource of [cond]? *)
let clobbers (s : step) (cond : cond) =
  match cond with
  | Creg (r, v) -> (
    List.mem r s.gadget.Gadget.clobbered
    && match List.assoc_opt r s.effects with
       | Some v' -> v' <> v   (* writing the same value is harmless *)
       | None -> true)
  | Cmem (a, v) ->
    List.exists (fun (a', v') -> a' = a && v' <> v) s.mem_effects
    (* pointer writes whose target could not be concretized might hit
       anything: conservative threat *)
    || List.length s.mem_effects < List.length s.gadget.Gadget.ptr_writes

(* Resolve all threats to link (producer, cond, consumer) from existing
   steps, greedily (demotion first, then promotion).  None = unresolvable. *)
let protect_link (p : t) (producer : step_id) cond (consumer : step_id) : t option =
  List.fold_left
    (fun acc (s : step) ->
      match acc with
      | None -> None
      | Some p ->
        if s.sid = producer || s.sid = consumer then Some p
        else if not (clobbers s cond) then Some p
        else
          (* order the threat before the producer, or after the consumer *)
          (match add_ordering p s.sid producer with
           | Some p' -> Some p'
           | None -> add_ordering p consumer s.sid))
    (Some p) p.steps

(* Threats caused by a NEW step against existing links. *)
let protect_from (p : t) (s : step) : t option =
  List.fold_left
    (fun acc (producer, cond, consumer) ->
      match acc with
      | None -> None
      | Some p ->
        if s.sid = producer || s.sid = consumer then Some p
        else if not (clobbers s cond) then Some p
        else
          (match add_ordering p s.sid producer with
           | Some p' -> Some p'
           | None -> add_ordering p consumer s.sid))
    (Some p) p.links

(* Canonical signature for visited-set deduplication. *)
let signature (p : t) =
  let steps =
    List.sort compare
      (List.map (fun s -> (s.gadget.Gadget.addr, s.sid)) p.steps)
  in
  let opens = List.sort compare (List.map (fun (c, k) -> (c, cond_to_string k)) p.open_conds) in
  Digest.string (Marshal.to_string (steps, opens, List.sort compare p.orderings) [])
