(* Shared compile+analyze plumbing for the experiments.

   One [build] per (program, obfuscation config) gives every tool the
   same image and — for the semantic tools — the same harvested gadget
   pool, so comparisons measure strategy, not extraction variance.
   Gadget ids come from a per-build local source, so a build's pool —
   and every table read from it — does not depend on what else ran in
   the process before it. *)

type built = {
  entry : Gp_corpus.Programs.entry;
  config_name : string;
  image : Gp_util.Image.t;
  analysis : Gp_core.Api.analysis;
}

let obf_configs =
  [ ("original", Gp_obf.Obf.none);
    ("llvm-obf", Gp_obf.Obf.ollvm);
    ("tigress", Gp_obf.Obf.tigress) ]

let build ?(config_name = "original") ?(cfg = Gp_obf.Obf.none) ?budget
    (entry : Gp_corpus.Programs.entry) : built =
  let image =
    Gp_codegen.Pipeline.compile ~transform:(Gp_obf.Obf.transform cfg)
      entry.Gp_corpus.Programs.source
  in
  let analysis =
    Gp_core.Api.analyze ?budget ~ids:(Gp_core.Gadget.local_ids ()) image
  in
  { entry; config_name; image; analysis }

(* The per-goal planner settings used across the comparison experiments:
   bounded so a full table run finishes in minutes, generous enough that
   the search samples the chain space meaningfully. *)
let gp_planner_config =
  { Gp_core.Planner.max_plans = 10000;
    node_budget = 2500;
    time_budget = 6.;
    branch_cap = 10;
    goal_cap = 6;
    max_steps = 14 }

let goals = Gp_core.Goal.default_goals

(* Run Gadget-Planner over one built image for one goal.  [budget]
   clamps the planner/validation deadline below the config's own
   time_budget — the survey-wide wall-clock bound. *)
let run_gp ?(planner_config = gp_planner_config) ?budget (b : built) goal =
  Gp_core.Api.run_with_analysis ~planner_config ?budget b.analysis goal

(* Canonical text of a gadget, used to decide whether a chain uses any
   gadget that did not exist before obfuscation ("new" chains). *)
let gadget_text (g : Gp_core.Gadget.t) =
  String.concat "; " (List.map Gp_x86.Insn.to_string g.Gp_core.Gadget.insns)

let pool_texts (a : Gp_core.Api.analysis) =
  let tbl = Hashtbl.create 256 in
  List.iter (fun g -> Hashtbl.replace tbl (gadget_text g) ()) a.Gp_core.Api.gadgets;
  tbl

(* Does the chain use at least one gadget absent from [baseline_texts]? *)
let chain_is_new baseline_texts (c : Gp_core.Payload.chain) =
  List.exists
    (fun (s : Gp_core.Plan.step) ->
      not (Hashtbl.mem baseline_texts (gadget_text s.Gp_core.Plan.gadget)))
    c.Gp_core.Payload.c_steps

(* Distinct gadgets used across a chain list. *)
let used_gadgets (chains : Gp_core.Payload.chain list) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (c : Gp_core.Payload.chain) ->
      List.iter
        (fun (s : Gp_core.Plan.step) ->
          Hashtbl.replace tbl s.Gp_core.Plan.gadget.Gp_core.Gadget.addr ())
        c.Gp_core.Payload.c_steps)
    chains;
  Hashtbl.length tbl
