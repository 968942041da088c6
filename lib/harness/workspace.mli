(** Shared compile+analyze plumbing for the experiments: one build per
    (program, obfuscation config) gives every tool the same image and the
    same harvested pool, so comparisons measure strategy, not extraction
    variance. *)

type built = {
  entry : Gp_corpus.Programs.entry;
  config_name : string;
  image : Gp_util.Image.t;
  analysis : Gp_core.Api.analysis;
}

val obf_configs : (string * Gp_obf.Obf.config) list
(** original / llvm-obf / tigress. *)

val build :
  ?config_name:string -> ?cfg:Gp_obf.Obf.config -> ?budget:Gp_core.Budget.t ->
  Gp_corpus.Programs.entry -> built
(** [budget] bounds the analyze stages (extract/subsume).  Gadget ids
    come from a fresh {!Gp_core.Gadget.local_ids} source, so two builds
    of one cell give pools with equal ids. *)

val gp_planner_config : Gp_core.Planner.config
(** The per-goal budget used across the comparison experiments. *)

val goals : Gp_core.Goal.t list

val run_gp :
  ?planner_config:Gp_core.Planner.config -> ?budget:Gp_core.Budget.t ->
  built -> Gp_core.Goal.t -> Gp_core.Api.outcome
(** [budget] clamps the search below the config's own time budget. *)

val gadget_text : Gp_core.Gadget.t -> string
(** Canonical instruction text, for original-vs-obfuscated comparison. *)

val pool_texts : Gp_core.Api.analysis -> (string, unit) Hashtbl.t

val chain_is_new : (string, unit) Hashtbl.t -> Gp_core.Payload.chain -> bool
(** Does the chain use a gadget absent from the baseline pool?  (The
    paper's parenthesized "new by obfuscation" numbers.) *)

val used_gadgets : Gp_core.Payload.chain list -> int
(** Distinct gadget addresses across the chains. *)
