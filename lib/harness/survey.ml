(* The survey grid and the one checkpointed sweep over it (DESIGN.md
   §13–§14).

   A survey cell is one (program, obfuscation config) pair.  The paper
   experiments walk the grid; the `survey` CLI, the sweep and resume
   suites, and the daemon suite run it as cells — a compile, then
   [Api.run], degradation ladder included — whose payload is the concurrency-,
   temperature- and interrupt-invariant part of the cell's outcome. *)

(* ---------- the grid ---------- *)

type grid = {
  entries : Gp_corpus.Programs.entry list;
  configs : (string * Gp_obf.Obf.config) list;
}

(* One program under one obfuscation config (`bench --quick`), so
   `make check` can assert the whole harness still runs end to end
   without the survey cost. *)
let smoke_grid =
  { entries = [ Gp_corpus.Programs.find "fibonacci" ];
    configs = [ ("llvm-obf", Gp_obf.Obf.ollvm) ] }

let quick_grid =
  { entries =
      List.map Gp_corpus.Programs.find
        [ "bubble_sort"; "crc_check"; "fibonacci"; "stack_machine" ];
    configs = Workspace.obf_configs }

let full_grid =
  { entries = Gp_corpus.Programs.all; configs = Workspace.obf_configs }

let survey_cells grid f =
  List.concat_map
    (fun e -> List.map (fun (cname, cfg) -> f e cname cfg) grid.configs)
    grid.entries

(* ---------- process state ---------- *)

let reset_world () =
  Gp_core.Gadget.reset_ids ();
  Gp_smt.Term.reset_memo ();
  Gp_smt.Cache.reset Gp_smt.Solver.pool_memo;
  Gp_smt.Solver.reset_screen ();
  Gp_core.Incr.reset ()

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* ---------- cell payloads ---------- *)

type resume_payload = {
  rp_program : string;
  rp_config : string;
  rp_pool : int;
  rp_chains : string list;
  rp_rungs : string list;
  rp_counters : (string * int) list;
}

let resume_payload_encode p =
  let b = Buffer.create 256 in
  let module B = Gp_util.Store.Bin in
  B.str b p.rp_program;
  B.str b p.rp_config;
  B.int_ b p.rp_pool;
  B.list b (B.str b) p.rp_chains;
  B.list b (B.str b) p.rp_rungs;
  B.list b
    (fun (k, v) ->
      B.str b k;
      B.int_ b v)
    p.rp_counters;
  Buffer.contents b

let resume_payload_decode s =
  let module B = Gp_util.Store.Bin in
  let pos = ref 0 in
  let rp_program = B.gstr s pos in
  let rp_config = B.gstr s pos in
  let rp_pool = B.gint s pos in
  let rp_chains = B.glist s pos (fun () -> B.gstr s pos) in
  let rp_rungs = B.glist s pos (fun () -> B.gstr s pos) in
  let rp_counters =
    B.glist s pos (fun () ->
        let k = B.gstr s pos in
        (k, B.gint s pos))
  in
  { rp_program; rp_config; rp_pool; rp_chains; rp_rungs; rp_counters }

(* ---------- sweep cells ---------- *)

(* Each cell compiles, then runs [Api.run] — the request the CLI and
   the daemon run, degradation ladder included, with the "mid-stage"
   crash point between stage 2 and the first rung — under the
   per-attempt watchdog as its root budget.  Gadget ids come from a
   per-cell local source — exactly the sequence [Gadget.reset_ids ()] +
   the global source yields — so concurrent cells cannot interleave
   draws. *)
let sweep_cells ~goal grid =
  let planner_config =
    { Gp_core.Planner.default_config with
      Gp_core.Planner.node_budget = 1200; max_plans = 6 }
  in
  survey_cells grid (fun entry cname cfg ->
      let prog = entry.Gp_corpus.Programs.name in
      ( prog ^ "/" ^ cname,
        fun ~attempt:_ budget ->
          let image =
            Gp_codegen.Pipeline.compile ~transform:(Gp_obf.Obf.transform cfg)
              entry.Gp_corpus.Programs.source
          in
          let o =
            Gp_core.Api.run ~planner_config ~budget
              ~ids:(Gp_core.Gadget.local_ids ()) image goal
          in
          Ok
            { rp_program = prog;
              rp_config = cname;
              rp_pool = o.Gp_core.Api.stats.Gp_core.Api.pool_size;
              rp_chains =
                List.map Gp_core.Payload.chain_set_key o.Gp_core.Api.chains;
              rp_rungs = List.map Gp_core.Api.rung_name o.Gp_core.Api.rungs;
              rp_counters = Gp_core.Api.invariant_counters o } ))

(* ---------- the checkpointed sweep ---------- *)

let sweep ~dir ~resume run =
  let m = Runner.Manifest.open_ ~dir in
  match run ~manifest:m ~resume with
  | r ->
    Runner.Manifest.close m;
    r
  | exception e ->
    (* simulated process death (or any real abort): drop fds WITHOUT
       flushing, as a killed process would *)
    Runner.Manifest.abandon m;
    raise e

(* ---------- daemon requests ---------- *)

let serve_requests grid =
  survey_cells grid (fun e cname cfg ->
      let image =
        Gp_codegen.Pipeline.compile ~transform:(Gp_obf.Obf.transform cfg)
          e.Gp_corpus.Programs.source
      in
      ( e.Gp_corpus.Programs.name ^ "/" ^ cname,
        { (Serve.default_request image) with
          Serve.rq_max_plans = 6;
          rq_node_budget = 1200 } ))
