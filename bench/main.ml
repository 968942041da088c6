(* Benchmark harness: regenerates every table and figure from the paper's
   evaluation (DESIGN.md §4 maps each id to its experiment), plus the
   ablations from DESIGN.md §5.

     dune exec bench/main.exe                 # quick mode, all experiments
     dune exec bench/main.exe -- --full       # full corpus
     dune exec bench/main.exe -- --only fig1  # a single experiment
     dune exec bench/main.exe -- --bechamel   # Bechamel micro-benchmarks of
                                              # the stages behind each table
     dune exec bench/main.exe -- --quick      # smoke mode: one program, one
                                              # config (the `make check-bench`
                                              # end-to-end assertion)

   Absolute numbers differ from the paper (their substrate was a real
   x86-64 testbed, ours is the simulator stack described in DESIGN.md);
   EXPERIMENTS.md records the shape comparison. *)

let header title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

let run_experiment ~quick id =
  match id with
  | "fig1" ->
    let txt, _ = Gp_harness.Experiments.fig1 ~quick () in
    print_string txt
  | "tab1" ->
    let txt, _ = Gp_harness.Experiments.tab1 ~quick () in
    print_string txt
  | "fig2" ->
    let txt, _ = Gp_harness.Experiments.fig2 ~quick () in
    print_string txt
  | "tab4" ->
    let txt, _ = Gp_harness.Experiments.tab4 ~quick () in
    print_string txt
  | "tab5" ->
    let txt, _ = Gp_harness.Experiments.tab5 ~quick () in
    print_string txt
  | "fig5" ->
    let txt, _ = Gp_harness.Experiments.fig5 ~quick () in
    print_string txt
  | "tab6" ->
    let txt, _ = Gp_harness.Experiments.tab6 () in
    print_string txt
  | "fig6" ->
    let txt, _ = Gp_harness.Experiments.fig6 () in
    print_string txt
  | "fig8" ->
    let txt, _ = Gp_harness.Experiments.fig8 () in
    print_string txt
  | "tab7" ->
    let txt, _ = Gp_harness.Experiments.tab7 () in
    print_string txt
  | "cfi_study" ->
    let txt, _ = Gp_harness.Cfi_study.study () in
    print_string txt
  | "ablation_seeds" -> print_string (Gp_harness.Experiments.ablation_seeds ())
  | "ablation_unaligned" -> print_string (Gp_harness.Experiments.ablation_unaligned ())
  | "ablation_subsumption" ->
    print_string (Gp_harness.Experiments.ablation_subsumption ())
  | "ablation_condjump" -> print_string (Gp_harness.Experiments.ablation_condjump ())
  | other ->
    Printf.eprintf "unknown experiment id: %s\n" other;
    exit 2

let all_ids =
  [ "fig1"; "tab1"; "fig2"; "tab4"; "tab5"; "fig5"; "tab6"; "fig6"; "fig8";
    "tab7"; "cfi_study";
    "ablation_unaligned"; "ablation_subsumption"; "ablation_condjump";
    "ablation_seeds" ]

(* ----- Bechamel micro-benchmarks: the stage behind each table ----- *)

let bechamel_tests () =
  let open Bechamel in
  let src = (Gp_corpus.Programs.find "fibonacci").Gp_corpus.Programs.source in
  let image =
    Gp_codegen.Pipeline.compile ~transform:(Gp_obf.Obf.transform Gp_obf.Obf.ollvm)
      src
  in
  let harvested = Gp_core.Extract.harvest image in
  let minimal, _ = Gp_core.Subsume.minimize harvested in
  let pool = Gp_core.Pool.build minimal in
  let goal = Gp_core.Goal.concretize image (Gp_core.Goal.Execve "/bin/sh") in
  let tiny_planner =
    { Gp_core.Planner.max_plans = 4; node_budget = 300; time_budget = 5.;
      branch_cap = 6; goal_cap = 3; max_steps = 10 }
  in
  let ir = Gp_codegen.Pipeline.to_ir src in
  [ (* Fig. 1 / Table I rest on the raw census *)
    Test.make ~name:"fig1/raw_scan"
      (Staged.stage (fun () -> ignore (Gp_core.Extract.raw_scan image)));
    (* Table IV's pipeline: extraction, subsumption, planning *)
    Test.make ~name:"tab4/harvest"
      (Staged.stage (fun () -> ignore (Gp_core.Extract.harvest image)));
    Test.make ~name:"tab4/subsume"
      (Staged.stage (fun () -> ignore (Gp_core.Subsume.minimize harvested)));
    Test.make ~name:"tab4/plan"
      (Staged.stage (fun () ->
           ignore (Gp_core.Planner.search_par ~config:tiny_planner pool goal)));
    (* Fig. 5 rests on the obfuscation passes + compile *)
    Test.make ~name:"fig5/obfuscate+compile"
      (Staged.stage (fun () ->
           ignore
             (Gp_codegen.Pipeline.compile_ir
                ~transform:(Gp_obf.Obf.transform Gp_obf.Obf.ollvm)
                ir)));
    (* Fig. 8 rests on emulated validation *)
    Test.make ~name:"fig8/emulate"
      (Staged.stage (fun () -> ignore (Gp_emu.Machine.run_image ~fuel:200_000 image)))
  ]

let run_bechamel () =
  let open Bechamel in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 1.0) ~kde:(Some 500) () in
  let tests = bechamel_tests () in
  let results =
    List.map
      (fun test ->
        Benchmark.all cfg instances test)
      [ Test.make_grouped ~name:"gadget-planner" tests ]
  in
  let ols =
    List.map
      (fun r ->
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true
                       ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock r)
      results
  in
  List.iter
    (fun tbl ->
      Hashtbl.iter
        (fun name res ->
          match Bechamel.Analyze.OLS.estimates res with
          | Some [ est ] ->
            Printf.printf "%-28s %12.0f ns/run\n" name est
          | _ -> Printf.printf "%-28s (no estimate)\n" name)
        tbl)
    ols

let () =
  let argv = Array.to_list Sys.argv in
  let full = List.mem "--full" argv in
  let quick = not full in
  let smoke = List.mem "--quick" argv in
  if smoke then Gp_harness.Experiments.set_smoke true;
  let mode_name = if smoke then "smoke" else if quick then "quick" else "full" in
  let bechamel = List.mem "--bechamel" argv in
  let only =
    let rec find = function
      | "--only" :: id :: _ -> Some id
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  if bechamel then begin
    header "Bechamel micro-benchmarks (pipeline stages behind the tables)";
    run_bechamel ()
  end
  else begin
    match only with
    | Some id ->
      header (Printf.sprintf "Experiment %s (%s mode)" id mode_name);
      run_experiment ~quick id
    | None ->
      header
        (Printf.sprintf "Gadget-Planner evaluation — all experiments (%s mode)"
           mode_name);
      List.iter
        (fun id ->
          Printf.printf "\n[%s]\n%!" id;
          run_experiment ~quick id)
        all_ids
  end
