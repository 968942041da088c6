(* The paper's evaluation, experiment by experiment (DESIGN.md §4).

   Every function regenerates one table or figure and returns the
   rendered text (plus structured data where tests consume it).  The
   grid-wide experiments take the grid they cover ({!Survey.grid}) as an
   argument.  Fig. 2 and Tables IV-VI render one computed value, the
   tool comparison: each tool runs once per (program, config, goal). *)

(* Re-exported for bench/e2e, which resets the world through this
   module. *)
let reset_world = Survey.reset_world

(* ---------- Fig. 1: gadget counts, original vs obfuscated ---------- *)

type fig1_row = {
  f1_program : string;
  f1_counts : (string * int) list;   (* config -> raw gadget count *)
}

let fig1 (grid : Survey.grid) =
  let rows =
    List.map
      (fun entry ->
        { f1_program = entry.Gp_corpus.Programs.name;
          f1_counts =
            List.map
              (fun (cname, cfg) ->
                let image =
                  Gp_codegen.Pipeline.compile
                    ~transform:(Gp_obf.Obf.transform cfg)
                    entry.Gp_corpus.Programs.source
                in
                (cname, List.length (Gp_core.Extract.raw_scan image)))
              grid.Survey.configs })
      grid.Survey.entries
  in
  let t =
    Table.create ~title:"Fig. 1: number of gadgets, original vs obfuscated"
      ~header:("program" :: List.map fst grid.Survey.configs)
  in
  List.iter
    (fun r ->
      Table.add_row t
        (r.f1_program :: List.map (fun (_, c) -> string_of_int c) r.f1_counts))
    rows;
  (Table.render t, rows)

(* ---------- Table I: gadget types and increase rate ---------- *)

let tab1 (grid : Survey.grid) =
  let kinds =
    [ (Gp_core.Gadget.Return, "Return");
      (Gp_core.Gadget.UDJ, "UDJ");
      (Gp_core.Gadget.UIJ, "UIJ");
      (Gp_core.Gadget.CDJ, "CDJ");
      (Gp_core.Gadget.CIJ, "CIJ") ]
  in
  let totals cfg =
    List.fold_left
      (fun acc entry ->
        let image =
          Gp_codegen.Pipeline.compile ~transform:(Gp_obf.Obf.transform cfg)
            entry.Gp_corpus.Programs.source
        in
        let counts = Gp_core.Extract.raw_counts image in
        List.map2 (fun (k, _) a -> a + List.assoc k counts) kinds acc)
      (List.map (fun _ -> 0) kinds)
      grid.Survey.entries
  in
  let original = totals Gp_obf.Obf.none in
  let ollvm = totals Gp_obf.Obf.ollvm in
  let tigress = totals Gp_obf.Obf.tigress in
  (* "Obfuscated" column: mean of the two obfuscators, as the paper
     aggregates across tools *)
  let obfuscated = List.map2 (fun a b -> (a + b) / 2) ollvm tigress in
  let t =
    Table.create ~title:"Table I: gadget types, original vs obfuscated"
      ~header:[ "type"; "original"; "obfuscated"; "increase" ]
  in
  let data =
    List.map2 (fun (k, name) (o, ob) -> (k, name, o, ob))
      kinds
      (List.combine original obfuscated)
  in
  List.iter
    (fun (_, name, o, ob) ->
      let rate =
        if o = 0 then "-"
        else Printf.sprintf "%.1f%%" (100. *. float_of_int (ob - o) /. float_of_int o)
      in
      Table.add_row t [ name; string_of_int o; string_of_int ob; rate ])
    data;
  (Table.render t, data)

(* ---------- the tool comparison (Fig. 2, Tables IV-VI) ---------- *)

let tools = [ "ropgadget"; "angrop"; "sgc"; "gadget-planner" ]

(* One tool on one goal in one cell. *)
type run = {
  r_goal : string;                        (* [Goal.name] *)
  r_tool : string;
  r_pool : int;
  r_chains : Gp_core.Payload.chain list;
  r_new : int;
      (* chains using a gadget the entry's original build lacks; 0 on
         the original itself *)
}

type cell = {
  c_program : string;
  c_config : string;
  c_raw : int;           (* raw gadget census of the cell's image *)
  c_runs : run list;     (* goal-major, [tools] order within a goal *)
}

(* An entry's original build and the instruction texts of its pool: the
   baseline every "new by obfuscation" count is read against. *)
let baseline entry =
  let b = Workspace.build entry in
  (b, Workspace.pool_texts b.Workspace.analysis)

let run_tools (b : Workspace.built) texts goal : run list =
  let pool_list = b.Workspace.analysis.Gp_core.Api.gadgets in
  let rg = Gp_baselines.Ropgadget.run b.Workspace.image goal in
  let ag = Gp_baselines.Angrop.run ~pool:pool_list b.Workspace.image goal in
  let sg = Gp_baselines.Sgc.run ~pool:pool_list b.Workspace.image goal in
  let gp = Workspace.run_gp b goal in
  let run tool pool chains =
    { r_goal = Gp_core.Goal.name goal; r_tool = tool; r_pool = pool;
      r_chains = chains;
      r_new =
        (if b.Workspace.config_name = "original" then 0
         else List.length (List.filter (Workspace.chain_is_new texts) chains)) }
  in
  let report (r : Gp_baselines.Report.t) =
    run r.Gp_baselines.Report.tool r.Gp_baselines.Report.pool_total
      r.Gp_baselines.Report.chains
  in
  [ report rg; report ag; report sg;
    run "gadget-planner"
      (Gp_core.Pool.size b.Workspace.analysis.Gp_core.Api.pool)
      gp.Gp_core.Api.chains ]

(* Entry by entry: the original is built once and supplies the baseline
   texts (and the "original" cell, when the grid has one); every other
   config gets one build; every built cell runs the four tools on the
   three goals once. *)
let comparison (grid : Survey.grid) : cell list =
  List.concat_map
    (fun entry ->
      let original, texts = baseline entry in
      List.map
        (fun (cname, cfg) ->
          let b =
            if cname = "original" then original
            else Workspace.build ~config_name:cname ~cfg entry
          in
          { c_program = entry.Gp_corpus.Programs.name;
            c_config = cname;
            c_raw = List.length (Gp_core.Extract.raw_scan b.Workspace.image);
            c_runs = List.concat_map (run_tools b texts) Workspace.goals })
        grid.Survey.configs)
    grid.Survey.entries

(* Configs in grid order, and the cells of one. *)
let configs_of cells =
  List.fold_left
    (fun acc c -> if List.mem c.c_config acc then acc else acc @ [ c.c_config ])
    [] cells

let in_config cname cells = List.filter (fun c -> c.c_config = cname) cells

let tool_runs cells tool =
  List.concat_map
    (fun c -> List.filter (fun r -> r.r_tool = tool) c.c_runs)
    cells

let chain_total runs =
  List.fold_left (fun acc r -> acc + List.length r.r_chains) 0 runs

(* Chains [tool] built over [cells], all goals summed. *)
let per_tool cells tool = chain_total (tool_runs cells tool)

(* ---------- Fig. 2: chains built by existing tools ---------- *)

let fig2 cells =
  let baselines = [ "ropgadget"; "angrop"; "sgc" ] in
  let t =
    Table.create
      ~title:"Fig. 2: payloads built by EXISTING tools (all goals, summed)"
      ~header:("config" :: baselines)
  in
  let data =
    List.map
      (fun cname ->
        let cs = in_config cname cells in
        (cname, List.map (fun tool -> (tool, per_tool cs tool)) baselines))
      (configs_of cells)
  in
  List.iter
    (fun (cname, counts) ->
      Table.add_row t (cname :: List.map (fun (_, c) -> string_of_int c) counts))
    data;
  (Table.render t, data)

(* ---------- Table IV: the main comparison ---------- *)

type tab4_cell = {
  t4_pool : int;
  t4_used : int;
  t4_goals : (string * int) list;   (* goal -> validated payload count *)
  t4_new : int;                     (* payloads using obfuscation-new gadgets *)
}

type tab4_row = { t4_config : string; t4_tools : (string * tab4_cell) list }

let tab4 cells =
  let sum f runs = List.fold_left (fun acc r -> acc + f r) 0 runs in
  let rows =
    List.map
      (fun cname ->
        let cs = in_config cname cells in
        { t4_config = cname;
          t4_tools =
            List.map
              (fun tool ->
                let runs = tool_runs cs tool in
                ( tool,
                  { t4_pool = sum (fun r -> r.r_pool) runs;
                    t4_used =
                      sum (fun r -> Workspace.used_gadgets r.r_chains) runs;
                    t4_goals =
                      List.map
                        (fun g ->
                          let gn = Gp_core.Goal.name g in
                          (gn, chain_total (List.filter (fun r -> r.r_goal = gn) runs)))
                        Workspace.goals;
                    t4_new = sum (fun r -> r.r_new) runs } ))
              tools })
      (configs_of cells)
  in
  let t =
    Table.create
      ~title:
        "Table IV: gadgets (pool/used) and validated payloads per tool \
         (execve/mprotect/mmap, total, new-by-obfuscation)"
      ~header:
        [ "config"; "tool"; "pool"; "used"; "execve"; "mprotect"; "mmap";
          "total"; "(new)" ]
  in
  List.iter
    (fun row ->
      List.iter
        (fun (tool, cell) ->
          let goal_count g = List.assoc g cell.t4_goals in
          let total = List.fold_left (fun a (_, c) -> a + c) 0 cell.t4_goals in
          Table.add_row t
            [ row.t4_config; tool;
              string_of_int cell.t4_pool;
              string_of_int cell.t4_used;
              string_of_int (goal_count "execve");
              string_of_int (goal_count "mprotect");
              string_of_int (goal_count "mmap");
              string_of_int total;
              (if row.t4_config = "original" then "-"
               else Printf.sprintf "(%d)" cell.t4_new) ])
        row.t4_tools)
    rows;
  (Table.render t, rows)

(* ---------- Table V: chain properties ---------- *)

let tab5 cells =
  let obfuscated = List.filter (fun c -> c.c_config <> "original") cells in
  let t =
    Table.create ~title:"Table V: gadget chain properties (obfuscated programs)"
      ~header:[ "tool"; "gadget len"; "chain len"; "Ret"; "IJ"; "DJ"; "CJ" ]
  in
  let data =
    List.map
      (fun tool ->
        let chains =
          List.concat_map (fun r -> r.r_chains) (tool_runs obfuscated tool)
        in
        let report =
          { Gp_baselines.Report.tool; pool_total = 0; chains;
            gadget_time = 0.; chain_time = 0. }
        in
        let ret, ij, dj, cj = Gp_baselines.Report.kind_percentages report in
        ( tool,
          Gp_baselines.Report.avg_gadget_len report,
          Gp_baselines.Report.avg_chain_len report,
          (ret, ij, dj, cj) ))
      tools
  in
  List.iter
    (fun (tool, glen, clen, (ret, ij, dj, cj)) ->
      Table.add_row t
        [ tool; Table.fmt_f1 glen; Table.fmt_f1 clen; Table.fmt_pct ret;
          Table.fmt_pct ij; Table.fmt_pct dj; Table.fmt_pct cj ])
    data;
  (Table.render t, data)

(* ---------- Fig. 5: payloads per individual obfuscation ---------- *)

let fig5 (grid : Survey.grid) =
  (* the risk a method ADDS: payloads that use at least one gadget the
     original binary did not have (same notion as Table IV's "(new)") *)
  let t =
    Table.create
      ~title:
        "Fig. 5: obfuscation-introduced Gadget-Planner payloads per method"
      ~header:[ "obfuscation"; "new payloads (all goals)" ]
  in
  let baselines =
    List.map (fun entry -> (entry, snd (baseline entry))) grid.Survey.entries
  in
  let data =
    List.map
      (fun pass ->
        let cfg = Gp_obf.Obf.single pass in
        let total =
          List.fold_left
            (fun acc (entry, texts) ->
              let b =
                Workspace.build ~config_name:(Gp_obf.Obf.pass_name pass) ~cfg entry
              in
              List.fold_left
                (fun acc goal ->
                  acc
                  + List.length
                      (List.filter (Workspace.chain_is_new texts)
                         (Workspace.run_gp b goal).Gp_core.Api.chains))
                acc Workspace.goals)
            0 baselines
        in
        (Gp_obf.Obf.pass_name pass, total))
      Gp_obf.Obf.all_passes
  in
  let ranked = List.sort (fun (_, a) (_, b) -> compare b a) data in
  List.iter
    (fun (name, total) -> Table.add_row t [ name; string_of_int total ])
    ranked;
  (Table.render t, data)

(* ---------- Table VI: SPEC-like programs ---------- *)

(* The comparison over a grid of [Gp_corpus.Spec] programs. *)
let tab6 cells =
  let t =
    Table.create
      ~title:"Table VI: SPEC-like programs — gadgets and chains per tool"
      ~header:
        [ "benchmark"; "config"; "gadgets"; "RG"; "angrop"; "SGC"; "GP" ]
  in
  let data =
    List.map
      (fun c ->
        let count = per_tool [ c ] in
        ( c.c_program, c.c_config, c.c_raw, count "ropgadget", count "angrop",
          count "sgc", count "gadget-planner" ))
      cells
  in
  List.iter
    (fun (name, cname, raw, rg, ag, sg, gp) ->
      Table.add_row t
        [ name; cname; string_of_int raw; string_of_int rg; string_of_int ag;
          string_of_int sg; string_of_int gp ])
    data;
  (Table.render t, data)

(* ---------- Fig. 6: an mcf chain no baseline finds ---------- *)

let fig6 () =
  let entry = List.nth Gp_corpus.Spec.all 1 (* 429.mcf *) in
  let b = Workspace.build ~config_name:"llvm-obf" ~cfg:Gp_obf.Obf.ollvm entry in
  let goal = Gp_core.Goal.Execve "/bin/sh" in
  let o = Workspace.run_gp b goal in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "== Fig. 6: a Gadget-Planner chain from obfuscated 429.mcf ==\n";
  (match
     (* prefer a chain showing off a conditional or merged gadget *)
     let interesting (c : Gp_core.Payload.chain) =
       List.exists
         (fun (s : Gp_core.Plan.step) ->
           s.Gp_core.Plan.gadget.Gp_core.Gadget.has_cond
           || s.Gp_core.Plan.gadget.Gp_core.Gadget.has_merge)
         c.Gp_core.Payload.c_steps
     in
     match List.find_opt interesting o.Gp_core.Api.chains with
     | Some c -> Some c
     | None -> (match o.Gp_core.Api.chains with c :: _ -> Some c | [] -> None)
   with
   | Some c -> Buffer.add_string buf (Gp_core.Payload.describe c)
   | None -> Buffer.add_string buf "no chain found\n");
  (* baseline verdicts on the same binary *)
  List.iter
    (fun goal ->
      let rg = Gp_baselines.Ropgadget.run b.Workspace.image goal in
      let ag =
        Gp_baselines.Angrop.run ~pool:b.Workspace.analysis.Gp_core.Api.gadgets
          b.Workspace.image goal
      in
      Buffer.add_string buf
        (Printf.sprintf "baselines on %s: ropgadget=%d angrop=%d\n"
           (Gp_core.Goal.name goal)
           (List.length rg.Gp_baselines.Report.chains)
           (List.length ag.Gp_baselines.Report.chains)))
    [ goal ];
  (Buffer.contents buf, o)

(* ---------- Fig. 8: the netperf case study ---------- *)

let fig8 () =
  let b =
    Workspace.build ~config_name:"llvm-obf" ~cfg:Gp_obf.Obf.ollvm
      Gp_corpus.Netperf.entry
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "== Fig. 8: netperf case study (end-to-end) ==\n";
  let result = Netperf_attack.run b in
  (match result with
   | None -> Buffer.add_string buf "probe failed: overflow not reachable\n"
   | Some r ->
     Buffer.add_string buf
       (Printf.sprintf
          "probe: return address cell at 0x%Lx, %d filler words\n"
          r.Netperf_attack.probe.Netperf_attack.ret_cell
          r.Netperf_attack.probe.Netperf_attack.filler_words);
     Buffer.add_string buf
       (Printf.sprintf "chains confirmed end-to-end: %d (of %d planned)\n"
          (List.length r.Netperf_attack.chains)
          r.Netperf_attack.attempted);
     (match r.Netperf_attack.chains with
      | c :: _ -> Buffer.add_string buf (Gp_core.Payload.describe c)
      | [] -> ()));
  (Buffer.contents buf, result)

(* ---------- Table VII: per-stage performance on netperf ---------- *)

let tab7 () =
  (* cold caches, so the timings do not depend on which experiments ran
     before *)
  reset_world ();
  let image =
    Gp_codegen.Pipeline.compile ~transform:(Gp_obf.Obf.transform Gp_obf.Obf.ollvm)
      Gp_corpus.Netperf.entry.Gp_corpus.Programs.source
  in
  (* A minor collection before each [Gc.allocated_bytes] reading,
     outside the timed window: without it the alloc column depended on
     what the process had run before (angrop read 0 or 2 MB and sgc 1-4
     MB over five experiment histories; with it, one reading in all). *)
  let timed f =
    Gc.minor ();
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    Gc.minor ();
    (r, dt, (Gc.allocated_bytes () -. a0) /. 1048576.)
  in
  let t =
    Table.create
      ~title:"Table VII: per-stage cost on obfuscated netperf"
      ~header:[ "tool"; "stage"; "time (s)"; "alloc (MB)" ]
  in
  (* Gadget-Planner stages: the shipped pipeline's Api stages, with
     stage 4's finalize counted under planning *)
  let ex, ext_t, ext_m = timed (fun () -> Gp_core.Api.stage_extract image) in
  let (a, _), sub_t, sub_m = timed (fun () -> Gp_core.Api.stage_subsume ex) in
  let _, plan_t, plan_m =
    timed (fun () ->
        Gp_core.Api.stage_finalize
          (Gp_core.Api.stage_plan ~planner_config:Workspace.gp_planner_config
             a (Gp_core.Goal.Execve "/bin/sh")))
  in
  let add tool stage tm mem =
    Table.add_row t [ tool; stage; Printf.sprintf "%.2f" tm; Printf.sprintf "%.0f" mem ]
  in
  add "gadget-planner" "gadget extraction" ext_t ext_m;
  add "gadget-planner" "subsumption testing" sub_t sub_m;
  add "gadget-planner" "planning" plan_t plan_m;
  add "gadget-planner" "total" (ext_t +. sub_t +. plan_t) (ext_m +. sub_m +. plan_m);
  (* Angrop *)
  let ag, ag_t, ag_m =
    timed (fun () -> Gp_baselines.Angrop.run image (Gp_core.Goal.Execve "/bin/sh"))
  in
  add "angrop" "find + chain" (ag.Gp_baselines.Report.gadget_time +. ag.Gp_baselines.Report.chain_time) ag_m;
  ignore ag_t;
  (* SGC *)
  let sg, sg_t, sg_m =
    timed (fun () -> Gp_baselines.Sgc.run image (Gp_core.Goal.Execve "/bin/sh"))
  in
  add "sgc" "find + chain" (sg.Gp_baselines.Report.gadget_time +. sg.Gp_baselines.Report.chain_time) sg_m;
  ignore sg_t;
  (Table.render t, (ext_t, sub_t, plan_t))

(* Best-effort git revision for provenance records: a missing git
   binary or detached workdir degrades to "unknown". *)
let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"


(* ---------- ablations (DESIGN.md §5) ---------- *)

let ablation_unaligned (grid : Survey.grid) =
  let t =
    Table.create ~title:"Ablation: unaligned decoding"
      ~header:[ "program"; "aligned-only"; "unaligned"; "gain" ]
  in
  List.iter
    (fun entry ->
      let image =
        Gp_codegen.Pipeline.compile ~transform:(Gp_obf.Obf.transform Gp_obf.Obf.ollvm)
          entry.Gp_corpus.Programs.source
      in
      let census unaligned =
        { Gp_core.Extract.default_config with
          Gp_core.Extract.unaligned; max_insns = 24 }
      in
      let aligned =
        List.length (Gp_core.Extract.raw_scan ~config:(census false) image)
      in
      let unaligned =
        List.length (Gp_core.Extract.raw_scan ~config:(census true) image)
      in
      Table.add_row t
        [ entry.Gp_corpus.Programs.name; string_of_int aligned;
          string_of_int unaligned;
          Printf.sprintf "%.1fx" (float_of_int unaligned /. float_of_int (max 1 aligned)) ])
    grid.Survey.entries;
  Table.render t

(* Stage 2's pool reduction.  Every row must satisfy
   deduped - capped = pool (stage 2 drops nothing else); a row that
   does not raises, failing `make check-bench`. *)
let ablation_subsumption (grid : Survey.grid) =
  let t =
    Table.create ~title:"Ablation: stage 2 pool reduction (dedup + bucket cap)"
      ~header:
        [ "program"; "harvested"; "deduped"; "capped"; "pool"; "reduction" ]
  in
  List.iter
    (fun entry ->
      let image =
        Gp_codegen.Pipeline.compile ~transform:(Gp_obf.Obf.transform Gp_obf.Obf.ollvm)
          entry.Gp_corpus.Programs.source
      in
      let harvested = Gp_core.Extract.harvest image in
      let pool, stats = Gp_core.Subsume.minimize harvested in
      let name = entry.Gp_corpus.Programs.name in
      let deduped = stats.Gp_core.Subsume.after_dedup in
      let capped = stats.Gp_core.Subsume.capped in
      let size = List.length pool in
      if deduped - capped <> size then
        failwith
          (Printf.sprintf
             "ablation_subsumption: %s: deduped %d - capped %d <> pool %d" name
             deduped capped size);
      Table.add_row t
        [ name;
          string_of_int stats.Gp_core.Subsume.input;
          string_of_int deduped;
          string_of_int capped;
          string_of_int size;
          Printf.sprintf "%.2fx"
            (float_of_int stats.Gp_core.Subsume.input
            /. float_of_int (max 1 size)) ])
    grid.Survey.entries;
  Table.render t

(* gadget-count stability across obfuscation seeds *)
let ablation_seeds (grid : Survey.grid) =
  let t =
    Table.create ~title:"Ablation: obfuscation seed variance (llvm-obf preset)"
      ~header:[ "program"; "min"; "mean"; "max" ]
  in
  List.iter
    (fun entry ->
      let counts =
        List.map
          (fun seed ->
            let cfg = Gp_obf.Obf.config ~seed Gp_obf.Obf.ollvm.Gp_obf.Obf.passes in
            let image =
              Gp_codegen.Pipeline.compile ~transform:(Gp_obf.Obf.transform cfg)
                entry.Gp_corpus.Programs.source
            in
            List.length (Gp_core.Extract.raw_scan image))
          [ 1; 2; 3; 4; 5 ]
      in
      let mn = List.fold_left min max_int counts in
      let mx = List.fold_left max 0 counts in
      let mean = List.fold_left ( + ) 0 counts / List.length counts in
      Table.add_row t
        [ entry.Gp_corpus.Programs.name; string_of_int mn; string_of_int mean;
          string_of_int mx ])
    grid.Survey.entries;
  Table.render t

let ablation_condjump (grid : Survey.grid) =
  let t =
    Table.create
      ~title:"Ablation: conditional/merged gadgets excluded from the pool"
      ~header:[ "program"; "full pool"; "chains"; "restricted pool"; "chains" ]
  in
  List.iter
    (fun entry ->
      let b =
        Workspace.build ~config_name:"tigress" ~cfg:Gp_obf.Obf.tigress entry
      in
      let goal = Gp_core.Goal.Execve "/bin/sh" in
      let full = Workspace.run_gp b goal in
      let restricted_gadgets =
        List.filter
          (fun (g : Gp_core.Gadget.t) ->
            (not g.Gp_core.Gadget.has_cond) && not g.Gp_core.Gadget.has_merge)
          b.Workspace.analysis.Gp_core.Api.gadgets
      in
      let restricted_analysis =
        { b.Workspace.analysis with
          Gp_core.Api.gadgets = restricted_gadgets;
          pool = Gp_core.Pool.build restricted_gadgets }
      in
      let restr =
        Gp_core.Api.run_with_analysis ~planner_config:Workspace.gp_planner_config
          restricted_analysis goal
      in
      Table.add_row t
        [ entry.Gp_corpus.Programs.name;
          string_of_int (List.length b.Workspace.analysis.Gp_core.Api.gadgets);
          string_of_int (List.length full.Gp_core.Api.chains);
          string_of_int (List.length restricted_gadgets);
          string_of_int (List.length restr.Gp_core.Api.chains) ])
    grid.Survey.entries;
  Table.render t
