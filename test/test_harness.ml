(* Tests for the experiment harness plumbing: table rendering, workspace
   helpers, the CFI study, and the netperf probe. *)

module Table = Gp_harness.Table

let test_table_render () =
  let t = Table.create ~title:"T" ~header:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let s = Table.render t in
  Alcotest.(check bool) "title" true (String.length s > 0 && s.[0] = '=');
  (* all rows present *)
  List.iter
    (fun frag ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) frag true (contains s frag))
    [ "T"; "a"; "bb"; "333" ]

let test_workspace_build () =
  let b = Gp_harness.Workspace.build (Gp_corpus.Programs.find "fibonacci") in
  Alcotest.(check string) "config" "original" b.Gp_harness.Workspace.config_name;
  Alcotest.(check bool) "pool nonempty" true
    (Gp_core.Pool.size b.Gp_harness.Workspace.analysis.Gp_core.Api.pool > 0)

(* A build draws gadget ids from its own source: a second build of the
   same cell, after the first drew its ids, yields the same ids, so a
   table does not depend on what ran before it in the process. *)
let test_workspace_build_ids () =
  let ids () =
    let b =
      Gp_harness.Workspace.build ~config_name:"llvm-obf" ~cfg:Gp_obf.Obf.ollvm
        (Gp_corpus.Programs.find "fibonacci")
    in
    List.map
      (fun (g : Gp_core.Gadget.t) -> g.Gp_core.Gadget.id)
      b.Gp_harness.Workspace.analysis.Gp_core.Api.gadgets
  in
  let first = ids () in
  Alcotest.(check bool) "pool nonempty" true (first <> []);
  Alcotest.(check (list int)) "same ids" first (ids ())

(* The comparison renderers over a synthetic comparison, with no tool
   run: Fig. 2's per-config counts are Table IV's per-tool totals for
   the three baselines, and Table V reads the obfuscated configs only. *)
let test_comparison_renderers () =
  let module E = Gp_harness.Experiments in
  let image =
    Gp_util.Image.create ~entry:0x400000L
      ~code:
        (Gp_x86.Encode.insns
           Gp_x86.Insn.
             [ Pop Gp_x86.Reg.RDI; Ret; Pop Gp_x86.Reg.RAX; Pop Gp_x86.Reg.RDI;
               Ret ])
      ~data:(Bytes.create 16) ()
  in
  let gadget off =
    Gp_core.Gadget.of_summary
      (List.hd
         (Gp_symx.Exec.summarize image
            (Int64.add image.Gp_util.Image.code_base (Int64.of_int off))))
  in
  let chain (g : Gp_core.Gadget.t) =
    { Gp_core.Payload.c_goal =
        Gp_core.Goal.concretize image (Gp_core.Goal.Execve "/bin/sh");
      c_steps =
        [ { Gp_core.Plan.sid = 0; gadget = g; bindings = []; abs_bindings = [];
            mem_cells = []; effects = []; mem_effects = []; write_addrs = [];
            demands = []; is_goal = true } ];
      c_payload = [||] }
  in
  let short = gadget 0 and long = gadget 2 in
  Alcotest.(check bool) "gadget lengths differ" true
    (short.Gp_core.Gadget.len <> long.Gp_core.Gadget.len);
  (* [k + i] chains per goal for the i-th tool: long gadgets on the
     originals, short ones under obfuscation *)
  let cell program config k =
    let g = if config = "original" then long else short in
    { E.c_program = program; c_config = config; c_raw = 0;
      c_runs =
        List.concat_map
          (fun goal ->
            List.mapi
              (fun i tool ->
                { E.r_goal = Gp_core.Goal.name goal; r_tool = tool; r_pool = 10;
                  r_chains = List.init (k + i) (fun _ -> chain g); r_new = 0 })
              E.tools)
          Gp_harness.Workspace.goals }
  in
  let cells =
    [ cell "a" "original" 1; cell "a" "llvm-obf" 2; cell "a" "tigress" 3;
      cell "b" "original" 4; cell "b" "llvm-obf" 5; cell "b" "tigress" 0 ]
  in
  let _, fig2 = E.fig2 cells and _, tab4 = E.tab4 cells in
  Alcotest.(check (list string)) "configs in grid order"
    [ "original"; "llvm-obf"; "tigress" ] (List.map fst fig2);
  Alcotest.(check int) "llvm-obf sgc" (3 * ((2 + 2) + (5 + 2)))
    (List.assoc "sgc" (List.assoc "llvm-obf" fig2));
  List.iter
    (fun (cname, counts) ->
      let row = List.find (fun r -> r.E.t4_config = cname) tab4 in
      Alcotest.(check int) (cname ^ " baselines") 3 (List.length counts);
      List.iter
        (fun (tool, n) ->
          let c = List.assoc tool row.E.t4_tools in
          Alcotest.(check int) (cname ^ "/" ^ tool)
            (List.fold_left (fun a (_, k) -> a + k) 0 c.E.t4_goals) n)
        counts)
    fig2;
  let _, tab5 = E.tab5 cells in
  Alcotest.(check (list string)) "tab5 tools" E.tools
    (List.map (fun (tool, _, _, _) -> tool) tab5);
  List.iter
    (fun (tool, glen, _, _) ->
      Alcotest.(check (float 1e-9)) (tool ^ " gadget len")
        (float_of_int short.Gp_core.Gadget.len) glen)
    tab5

let test_gadget_text_stable () =
  let b = Gp_harness.Workspace.build (Gp_corpus.Programs.find "fibonacci") in
  match b.Gp_harness.Workspace.analysis.Gp_core.Api.gadgets with
  | g :: _ ->
    Alcotest.(check string) "idempotent"
      (Gp_harness.Workspace.gadget_text g)
      (Gp_harness.Workspace.gadget_text g)
  | [] -> Alcotest.fail "empty pool"

let test_chain_is_new_logic () =
  let texts : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let b = Gp_harness.Workspace.build (Gp_corpus.Programs.find "fibonacci") in
  let o =
    Gp_harness.Workspace.run_gp
      ~planner_config:
        { Gp_core.Planner.max_plans = 2; node_budget = 500; time_budget = 10.;
          branch_cap = 8; goal_cap = 4; max_steps = 12 }
      b (Gp_core.Goal.Execve "/bin/sh")
  in
  match o.Gp_core.Api.chains with
  | c :: _ ->
    (* empty baseline: everything is new *)
    Alcotest.(check bool) "new vs empty" true
      (Gp_harness.Workspace.chain_is_new texts c);
    (* baseline containing all its gadgets: nothing is new *)
    List.iter
      (fun (s : Gp_core.Plan.step) ->
        Hashtbl.replace texts
          (Gp_harness.Workspace.gadget_text s.Gp_core.Plan.gadget) ())
      c.Gp_core.Payload.c_steps;
    Alcotest.(check bool) "old vs full" false
      (Gp_harness.Workspace.chain_is_new texts c)
  | [] -> Alcotest.fail "no chain"

let test_cfi_original_clean () =
  let rows =
    snd
      (Gp_harness.Cfi_study.study
         ~entries:[ Gp_corpus.Programs.find "fibonacci" ] ())
  in
  List.iter
    (fun (r : Gp_harness.Cfi_study.row) ->
      if r.Gp_harness.Cfi_study.cfi_config = "original" then begin
        Alcotest.(check int) "original has no indirect transfers" 0
          r.Gp_harness.Cfi_study.cfi_transfers
      end
      else
        Alcotest.(check bool)
          (r.Gp_harness.Cfi_study.cfi_config ^ " violates")
          true
          (r.Gp_harness.Cfi_study.cfi_violations > 0))
    rows

let test_netperf_probe () =
  let image =
    Gp_codegen.Pipeline.compile Gp_corpus.Netperf.entry.Gp_corpus.Programs.source
  in
  match Gp_harness.Netperf_attack.probe image with
  | Some p ->
    Alcotest.(check bool) "filler sane" true
      (p.Gp_harness.Netperf_attack.filler_words > 0
      && p.Gp_harness.Netperf_attack.filler_words < 32);
    Alcotest.(check bool) "ret cell in stack" true
      (p.Gp_harness.Netperf_attack.ret_cell > Gp_emu.Machine.stack_base
      && p.Gp_harness.Netperf_attack.ret_cell < Gp_emu.Machine.stack_top)
  | None -> Alcotest.fail "probe failed"

let suite =
  [ Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "workspace build" `Quick test_workspace_build;
    Alcotest.test_case "workspace build ids" `Quick test_workspace_build_ids;
    Alcotest.test_case "gadget text stable" `Quick test_gadget_text_stable;
    Alcotest.test_case "comparison renderers" `Quick test_comparison_renderers;
    Alcotest.test_case "chain_is_new" `Slow test_chain_is_new_logic;
    Alcotest.test_case "cfi study shapes" `Slow test_cfi_original_clean;
    Alcotest.test_case "netperf probe" `Quick test_netperf_probe ]
