(* Test entry point: one alcotest run per library, aggregated.

   Each suite runs with [~and_exit:false] so a failure in one library
   doesn't hide the others; a per-suite PASS/FAIL summary is printed at
   the end and the process exits nonzero if any suite failed.

   SUITES=name1,name2 restricts the run to the named suites (used by
   `make check-plan-par` to sweep one suite across job counts without
   paying for the whole matrix). *)

let suites =
  [ ("util", Test_util.suite);
    ("x86", Test_x86.suite);
    ("smt", Test_smt.suite);
    ("minic", Test_minic.suite);
    ("ir", Test_ir.suite);
    ("codegen", Test_codegen.suite);
    ("emu", Test_emu.suite);
    ("obf", Test_obf.suite);
    ("symx", Test_symx.suite);
    ("gadget", Test_gadget.suite);
    ("planner", Test_planner.suite);
    ("payload", Test_payload.suite);
    ("baselines", Test_baselines.suite);
    ("corpus", Test_corpus.suite);
    ("harness", Test_harness.suite);
    ("runner", Test_runner.suite);
    ("resilience", Test_resilience.suite);
    ("par", Test_par.suite);
    ("sweep", Test_sweep.suite);
    ("plan_par", Test_plan_par.suite);
    ("incr", Test_incr.suite);
    ("screen", Test_screen.suite);
    ("serve", Test_serve.suite);
    ("integration", Test_integration.suite) ]

let () =
  let suites =
    match Sys.getenv_opt "SUITES" with
    | None | Some "" -> suites
    | Some names ->
      let wanted = String.split_on_char ',' names in
      let unknown =
        List.filter (fun n -> not (List.mem_assoc n suites)) wanted
      in
      if unknown <> [] then begin
        Printf.eprintf "unknown suite(s) in SUITES: %s\n"
          (String.concat ", " unknown);
        exit 2
      end;
      List.filter (fun (name, _) -> List.mem name wanted) suites
  in
  let results =
    List.map
      (fun (name, suite) ->
        let ok =
          match
            Alcotest.run ~and_exit:false ("gadget_planner." ^ name)
              [ (name, suite) ]
          with
          | () -> true
          | exception Alcotest.Test_error -> false
        in
        (name, ok))
      suites
  in
  print_newline ();
  List.iter
    (fun (name, ok) ->
      Printf.printf "[suite] %-12s %s\n" name (if ok then "PASS" else "FAIL"))
    results;
  let failed = List.filter (fun (_, ok) -> not ok) results in
  if failed <> [] then begin
    Printf.printf "%d of %d suites failed\n" (List.length failed)
      (List.length results);
    exit 1
  end
  else Printf.printf "all %d suites passed\n" (List.length results)
