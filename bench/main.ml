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

(* Every experiment by id, in the order a full run prints them.  [grid]
   is the mode's grid; the ablations keep to [small], the quick
   programs, even in full mode.  Fig. 2 and Tables IV-V render one tool
   comparison, computed at most once per process. *)
let experiments ~(grid : Gp_harness.Survey.grid) ~small =
  let module E = Gp_harness.Experiments in
  let cells = lazy (E.comparison grid) in
  [ ("fig1", fun () -> fst (E.fig1 grid));
    ("tab1", fun () -> fst (E.tab1 grid));
    ("fig2", fun () -> fst (E.fig2 (Lazy.force cells)));
    ("tab4", fun () -> fst (E.tab4 (Lazy.force cells)));
    ("tab5", fun () -> fst (E.tab5 (Lazy.force cells)));
    ("fig5", fun () -> fst (E.fig5 grid));
    ( "tab6",
      fun () ->
        fst
          (E.tab6
             (E.comparison
                { grid with Gp_harness.Survey.entries = Gp_corpus.Spec.all })) );
    ("fig6", fun () -> fst (E.fig6 ()));
    ("fig8", fun () -> fst (E.fig8 ()));
    ("tab7", fun () -> fst (E.tab7 ()));
    ("cfi_study", fun () -> fst (Gp_harness.Cfi_study.study ()));
    ("ablation_unaligned", fun () -> E.ablation_unaligned small);
    ("ablation_subsumption", fun () -> E.ablation_subsumption small);
    ("ablation_condjump", fun () -> E.ablation_condjump small);
    ("ablation_seeds", fun () -> E.ablation_seeds small) ]

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
           ignore (Gp_core.Planner.search ~config:tiny_planner pool goal)));
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
  let smoke = List.mem "--quick" argv in
  let module S = Gp_harness.Survey in
  let grid, mode_name =
    if smoke then (S.smoke_grid, "smoke")
    else if full then (S.full_grid, "full")
    else (S.quick_grid, "quick")
  in
  let small = if full then S.quick_grid else grid in
  let table = experiments ~grid ~small in
  let only =
    let rec find = function
      | "--only" :: rest -> Some (match rest with id :: _ -> id | [] -> "")
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  (match only with
   | Some id when not (List.mem_assoc id table) ->
     Printf.eprintf "%s; valid ids: %s\n"
       (if id = "" then "--only needs an experiment id"
        else "unknown experiment id: " ^ id)
       (String.concat " " (List.map fst table));
     exit 2
   | _ -> ());
  (* every experiment starts from an empty world: the process-global
     memos would otherwise grow across the whole run *)
  let run_experiment id =
    S.reset_world ();
    (List.assoc id table) ()
  in
  if List.mem "--bechamel" argv then begin
    header "Bechamel micro-benchmarks (pipeline stages behind the tables)";
    run_bechamel ()
  end
  else begin
    match only with
    | Some id ->
      header (Printf.sprintf "Experiment %s (%s mode)" id mode_name);
      print_string (run_experiment id)
    | None ->
      header
        (Printf.sprintf "Gadget-Planner evaluation — all experiments (%s mode)"
           mode_name);
      List.iter
        (fun (id, _) ->
          Printf.printf "\n[%s]\n%!" id;
          print_string (run_experiment id))
        table
  end
