(* SGC-style baseline (paper §II-B "Program Synthesis").

   Faithful to the tool's strategy: it synthesizes chains against logical
   pre/post-conditions with an SMT solver, handles RETURN and INDIRECT-
   JUMP gadgets, but (a) runs a "gadget selection function" that shrinks
   the candidate pool to a few gadgets per register ("the gadget
   candidates pool is similar in different searches"), and (b) never uses
   conditional-jump or merged direct-jump gadgets, nor frame pivots.

   We realize that search behaviour by running the same planning engine
   over the SGC-restricted pool with tight search caps — the comparison
   is about what each STRATEGY CLASS can see, per DESIGN.md §2. *)

let name = "sgc"

let eligible (g : Gp_core.Gadget.t) =
  (not g.Gp_core.Gadget.has_cond)
  && (not g.Gp_core.Gadget.has_merge)
  && (match g.Gp_core.Gadget.stack_delta with
      | Gp_core.Gadget.Sdelta _ -> true
      | Gp_core.Gadget.Spivot _ | Gp_core.Gadget.Sunknown ->
        g.Gp_core.Gadget.syscall_state <> None)

(* Selection function: keep only the [k] shortest gadgets per register,
   plus syscall gadgets. *)
let select ?(k = 3) gadgets =
  let per_reg =
    List.concat_map
      (fun r ->
        List.filter
          (fun (g : Gp_core.Gadget.t) -> List.mem r g.Gp_core.Gadget.clobbered)
          gadgets
        |> List.sort (fun (a : Gp_core.Gadget.t) b ->
               compare a.Gp_core.Gadget.len b.Gp_core.Gadget.len)
        |> List.filteri (fun i _ -> i < k))
      Gp_x86.Reg.all
  in
  let syscalls =
    List.filter (fun (g : Gp_core.Gadget.t) -> g.Gp_core.Gadget.syscall_state <> None) gadgets
  in
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (g : Gp_core.Gadget.t) ->
      if Hashtbl.mem seen g.Gp_core.Gadget.id then false
      else begin
        Hashtbl.add seen g.Gp_core.Gadget.id ();
        true
      end)
    (per_reg @ syscalls)

(* SGC enumerates solutions one SMT query at a time; its yield within any
   realistic budget is a handful of chains per goal. *)
let planner_config =
  { Gp_core.Planner.max_plans = 6;
    node_budget = 800;
    time_budget = 8.;
    branch_cap = 4;
    goal_cap = 3;
    max_steps = 10 }

let run ?(pool : Gp_core.Gadget.t list option) ?budget
    (image : Gp_util.Image.t) (goal : Gp_core.Goal.t) : Report.t =
  let t0 = Unix.gettimeofday () in
  let gadgets =
    match pool with
    | Some g -> g
    | None -> fst (Gp_core.Extract.harvest_r ?budget image)
  in
  let restricted = select (List.filter eligible gadgets) in
  let t1 = Unix.gettimeofday () in
  let concrete = Gp_core.Goal.concretize image goal in
  let seen = Hashtbl.create 16 in
  let chains = ref [] in
  let accept p =
    match Gp_core.Payload.build_opt p concrete with
    | None -> false
    | Some c ->
      let key = Gp_core.Payload.chain_set_key c in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        if Gp_core.Payload.validate image c then begin
          chains := c :: !chains;
          true
        end
        else false
      end
  in
  (* the pipeline's portfolio search, every root behind the one gate:
     chains arrive in root order, and the first [max_plans] of them are
     SGC's *)
  let _ =
    Gp_core.Planner.search ~config:planner_config
      ~accept_for:(fun _ -> accept) ?budget
      (Gp_core.Pool.build restricted) concrete
  in
  { Report.tool = name;
    pool_total = List.length restricted;
    chains =
      List.filteri (fun i _ -> i < planner_config.Gp_core.Planner.max_plans)
        (List.rev !chains);
    gadget_time = t1 -. t0;
    chain_time = Unix.gettimeofday () -. t1 }
