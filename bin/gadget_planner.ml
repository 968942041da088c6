(* Command-line front end.

     gadget_planner compile  <prog> [--obf PRESET]    run a corpus program
     gadget_planner scan     <prog> [--obf PRESET]    gadget census
     gadget_planner plan     <prog> [--obf PRESET] [--goal G] [--max N]
     gadget_planner survey   [--manifest DIR] [--resume]   checkpointed sweep
     gadget_planner netperf  [--obf PRESET]           end-to-end case study
     gadget_planner serve    --socket PATH                resident daemon
     gadget_planner submit   <prog> --socket PATH [--goal G]   ask the daemon
     gadget_planner list                              list corpus programs

   <prog> is a corpus program name (see `list`) or a path to a mini-C
   source file.

   Failure exit codes follow the Fail taxonomy (DESIGN.md §13):
   75 transient timeout/budget, 70 hard analysis fault, 76 daemon
   wire fault; cmdliner owns usage errors (124). *)

open Cmdliner

let corpus = Gp_corpus.Programs.all @ Gp_corpus.Spec.all @ [ Gp_corpus.Netperf.entry ]

(* Input values are parsed by converters, so a bad one is a usage error
   (exit 124) that names the valid values, never an uncaught exception. *)

(* PROGRAM, parsed to its mini-C source text; a source file must also
   get through the front end (parse, check, lower) *)
let source_conv =
  let parse prog =
    if Sys.file_exists prog then
      match In_channel.with_open_bin prog In_channel.input_all with
      | exception Sys_error why -> Error (`Msg why)
      | source -> (
        match Gp_codegen.Pipeline.to_ir source with
        | _ -> Ok source
        | exception (Failure why | Gp_minic.Check.Check_error why
                    | Gp_ir.Lower.Lower_error why) ->
          Error (`Msg (prog ^ ": " ^ why)))
    else
      match
        List.find_opt (fun (e : Gp_corpus.Programs.entry) -> e.name = prog) corpus
      with
      | Some e -> Ok e.Gp_corpus.Programs.source
      | None ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown program %S: expected a mini-C source file or one of %s"
               prog
               (String.concat ", "
                  (List.map (fun (e : Gp_corpus.Programs.entry) -> e.name) corpus))))
  in
  Arg.conv ~docv:"PROGRAM" (parse, fun ppf _ -> Format.pp_print_string ppf "<source>")

let obf_of_name = function
  | "none" | "original" -> Gp_obf.Obf.none
  | "ollvm" | "llvm-obf" -> Gp_obf.Obf.ollvm
  | "tigress" -> Gp_obf.Obf.tigress
  | s -> Gp_obf.Obf.single (Gp_obf.Obf.pass_of_name s)

(* --obf, parsed to the preset's name and configuration *)
let obf_conv =
  let parse name =
    match obf_of_name name with
    | cfg -> Ok (name, cfg)
    | exception Invalid_argument _ ->
      Error
        (`Msg
          (Printf.sprintf
             "unknown obfuscation %S: expected none, ollvm, tigress or a \
              single pass (%s)"
             name
             (String.concat ", " (List.map Gp_obf.Obf.pass_name Gp_obf.Obf.all_passes))))
  in
  Arg.conv ~docv:"PRESET" (parse, fun ppf (name, _) -> Format.pp_print_string ppf name)

(* [conv]'s values that satisfy [ok]; any other is a usage error *)
let restrict conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

(* --max, --jobs, --max-attempts *)
let positive_int_conv = restrict Arg.int ~expected:"a positive integer" (fun n -> n > 0)

(* --budget *)
let seconds_conv =
  restrict Arg.float ~expected:"a positive finite number of seconds" (fun x ->
      x > 0. && Float.is_finite x)

let prog_arg =
  Arg.(required & pos 0 (some source_conv) None & info [] ~docv:"PROGRAM")

let obf_arg =
  Arg.(value & opt obf_conv ("none", Gp_obf.Obf.none)
       & info [ "obf" ] ~docv:"PRESET"
           ~doc:"Obfuscation: none, ollvm, tigress, or a single pass name.")

(* --goal, parsed to a name [Serve.goal_of_name] accepts *)
let goal_arg =
  Arg.(value
       & opt (enum (List.map (fun g -> (g, g)) [ "execve"; "mprotect"; "mmap" ])) "execve"
       & info [ "goal" ] ~docv:"GOAL" ~doc:"execve, mprotect, or mmap.")

let budget_arg =
  Arg.(value & opt (some seconds_conv) None
       & info [ "budget" ] ~docv:"SECONDS"
           ~doc:"Wall-clock budget for the whole pipeline run.")

let budget_of = Option.map (fun s -> Gp_core.Budget.create ~label:"cli" ~seconds:s ())

(* survey cells and daemon requests run concurrently, each on one
   domain; a single request is sequential *)
let jobs_arg =
  Arg.(value & opt positive_int_conv 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Domains running cells (survey) or requests (serve) \
                 concurrently, one domain each (results are \
                 deterministic and identical to -j 1).")

let max_arg =
  Arg.(value & opt positive_int_conv 8 & info [ "max" ] ~docv:"N" ~doc:"Payloads to emit.")

let json_errors_arg =
  Arg.(value & flag
       & info [ "json-errors" ]
           ~doc:"Emit each failure as a one-line JSON record on stderr \
                 (class, detail, exit code) for machine supervision; \
                 the process exit code matches the record's.")

(* One failure on stderr: structured when --json-errors, human text
   otherwise.  The label keys both the record's class and the exit
   code (Fail.exit_code_of_label). *)
let emit_failure ~json label detail =
  if json then prerr_endline (Gp_core.Fail.json_record ~label ~detail)
  else Printf.eprintf "error: %s: %s\n%!" label detail

let compile_image source (_, cfg) =
  Gp_codegen.Pipeline.compile ~transform:(Gp_obf.Obf.transform cfg) source

(* ----- compile ----- *)

let compile_cmd =
  let run prog obf =
    let image = compile_image prog obf in
    Printf.printf "code: %d bytes, data: %d bytes, entry 0x%Lx\n"
      (Gp_util.Image.code_size image) (Gp_util.Image.data_size image)
      image.Gp_util.Image.entry;
    let m = Gp_emu.Machine.create image in
    Gp_emu.Memory.write64 m.Gp_emu.Machine.mem Gp_corpus.Netperf.input_area 2L;
    match Gp_emu.Machine.run ~fuel:50_000_000 m with
    | Gp_emu.Machine.Exited v -> Printf.printf "exited with %Ld\n" v
    | Gp_emu.Machine.Fault msg -> Printf.printf "fault: %s\n" msg
    | Gp_emu.Machine.Attacked _ -> print_endline "attacked?!"
    | Gp_emu.Machine.Timeout -> print_endline "timeout"
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile (and optionally obfuscate) and run.")
    Term.(const run $ prog_arg $ obf_arg)

(* ----- scan ----- *)

let scan_cmd =
  let run prog obf =
    let image = compile_image prog obf in
    let counts = Gp_core.Extract.raw_counts image in
    let total = List.fold_left (fun a (_, c) -> a + c) 0 counts in
    Printf.printf "raw gadget census (%d total):\n" total;
    List.iter
      (fun (k, c) -> Printf.printf "  %-6s %6d\n" (Gp_core.Gadget.kind_name k) c)
      counts;
    let a = Gp_core.Api.analyze image in
    Printf.printf
      "planner pool: %d summaries -> %d deduped -> pool %d (%d cut by the \
       bucket cap)\n"
      a.Gp_core.Api.raw_extracted a.Gp_core.Api.deduped
      (Gp_core.Pool.size a.Gp_core.Api.pool) a.Gp_core.Api.subsume_capped
  in
  Cmd.v (Cmd.info "scan" ~doc:"Count gadgets (the Fig. 1 / Table I census).")
    Term.(const run $ prog_arg $ obf_arg)

(* ----- plan ----- *)

let plan_cmd =
  let stats_arg =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print per-stage statistics (planner counters, memo \
                   hits, stage seconds).")
  in
  let run prog obf goal maxn budget stats json_errors =
    let image = compile_image prog obf in
    let o =
      Gp_core.Api.run ?budget:(budget_of budget)
        ~planner_config:{ Gp_core.Planner.default_config with max_plans = maxn }
        image (Gp_harness.Serve.goal_of_name goal)
    in
    Printf.printf "pool %d gadgets; %d validated payload(s); rungs: %s\n"
      o.Gp_core.Api.stats.Gp_core.Api.pool_size
      (List.length o.Gp_core.Api.chains)
      (String.concat ","
         (List.map Gp_core.Api.rung_name o.Gp_core.Api.rungs));
    let st = o.Gp_core.Api.stats in
    let quarantined = st.Gp_core.Api.quarantined in
    if st.Gp_core.Api.budget_hits <> [] then
      Printf.printf "budget exhausted in: %s\n"
        (String.concat ", " st.Gp_core.Api.budget_hits);
    if quarantined <> [] then
      Printf.printf "quarantined: %s\n"
        (String.concat ", "
           (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) quarantined));
    if stats then begin
      Printf.printf
        "stage 2: %d summaries -> %d deduped -> pool %d (%d cut by the \
         bucket cap)\n"
        st.Gp_core.Api.extracted st.Gp_core.Api.deduped
        st.Gp_core.Api.pool_size st.Gp_core.Api.subsume_capped;
      Printf.printf
        "planner: %d nodes expanded, peak queue %d, %d rankings shared across roots, \
         %d cand-memo hits, %d plans discarded\n"
        st.Gp_core.Api.plan_expanded st.Gp_core.Api.plan_peak_queue
        st.Gp_core.Api.plan_inst_hits st.Gp_core.Api.plan_cand_hits
        st.Gp_core.Api.plan_discarded;
      Printf.printf
        "solver memo: %d hits / %d misses; %d unknowns\n"
        st.Gp_core.Api.cache_hits st.Gp_core.Api.cache_misses
        st.Gp_core.Api.solver_unknowns;
      Printf.printf
        "image memo: %d starts replayed / %d executed; %d decodes saved\n"
        st.Gp_core.Api.summary_hits st.Gp_core.Api.summary_misses
        st.Gp_core.Api.decode_saved;
      Printf.printf
        "times: extract %.3fs, subsume %.3fs, plan %.3fs (validate %.3fs)\n"
        st.Gp_core.Api.extract_time st.Gp_core.Api.subsume_time
        st.Gp_core.Api.plan_time st.Gp_core.Api.validate_time
    end;
    print_newline ();
    List.iteri
      (fun i c ->
        Printf.printf "--- payload %d ---\n%s\n" (i + 1)
          (Gp_core.Payload.describe c))
      o.Gp_core.Api.chains;
    if json_errors then
      List.iter
        (fun (label, n) ->
          emit_failure ~json:true label
            (Printf.sprintf "%d item(s) quarantined" n))
        quarantined;
    (* an empty result caused by budget starvation is a timeout, not
       "no chains exist" — surface it in the exit code *)
    if o.Gp_core.Api.chains = [] && st.Gp_core.Api.budget_hits <> [] then begin
      emit_failure ~json:json_errors "budget"
        ("no payload before budget ran out in: "
         ^ String.concat ", " st.Gp_core.Api.budget_hits);
      exit (Gp_core.Fail.exit_code_of_label "budget")
    end
  in
  Cmd.v (Cmd.info "plan" ~doc:"Build validated code-reuse payloads.")
    Term.(const run $ prog_arg $ obf_arg $ goal_arg $ max_arg
          $ budget_arg $ stats_arg $ json_errors_arg)

(* ----- survey ----- *)

(* Checkpointed grid sweep (program x obfuscation config) through the
   supervised corpus runner (DESIGN.md §13).  With --manifest the
   per-cell completion manifest lives in DIR, fsync'd as the sweep
   progresses; a killed sweep re-run with --resume replays completed
   cells and recomputes the rest, bit-identical to an uninterrupted
   run. *)

let survey_cmd =
  let manifest_arg =
    Arg.(value & opt (some string) None
         & info [ "manifest" ] ~docv:"DIR"
             ~doc:"Checkpoint directory: the per-cell completion \
                   manifest is fsync'd here as the sweep progresses, so \
                   a killed sweep can be picked up with $(b,--resume).")
  in
  let resume_arg =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Replay cells already recorded in the manifest \
                   instead of recomputing them (requires \
                   $(b,--manifest)).  A resumed sweep's results are \
                   bit-identical to an uninterrupted one.")
  in
  let full_arg =
    Arg.(value & flag
         & info [ "full" ]
             ~doc:"Sweep the full corpus grid instead of the quick \
                   subset.")
  in
  let attempts_arg =
    Arg.(value & opt positive_int_conv 3
         & info [ "max-attempts" ] ~docv:"N"
             ~doc:"Attempts per cell before a transient failure \
                   (timeout, exhausted budget) is recorded as final.")
  in
  let run goal manifest resume full budget jobs max_attempts json_errors =
    let module R = Gp_harness.Runner in
    let module Sv = Gp_harness.Survey in
    let module S = Gp_harness.Sched in
    if resume && manifest = None then begin
      emit_failure ~json:json_errors "usage" "--resume requires --manifest DIR";
      exit Cmd.Exit.cli_error
    end;
    let policy =
      { R.default_policy with R.max_attempts; attempt_seconds = budget }
    in
    (* one pool task per cell (DESIGN.md §14): [jobs] sizes the pool
       ACROSS cells; results are bit-identical to the sequential loop at
       any job count *)
    let cells =
      Sv.sweep_cells ~goal:(Gp_harness.Serve.goal_of_name goal)
        (if full then Sv.full_grid else Sv.quick_grid)
    in
    let run ?manifest ~resume () =
      S.run_cells ~policy ?manifest ~resume ~encode:Sv.resume_payload_encode
        ~decode:Sv.resume_payload_decode ~jobs cells
    in
    let outcomes, report =
      match manifest with
      | Some dir ->
        Sv.sweep ~dir ~resume (fun ~manifest ~resume -> run ~manifest ~resume ())
      | None -> run ~resume:false ()
    in
    List.iter
      (fun (c : Sv.resume_payload R.cell_outcome) ->
        match c.R.c_result with
        | Ok p ->
          Printf.printf "%-32s %s  pool %4d  chains %d  rungs %s%s\n"
            c.R.c_key
            (if c.R.c_resumed then "resumed " else "computed")
            p.Sv.rp_pool
            (List.length p.Sv.rp_chains)
            (String.concat "," p.Sv.rp_rungs)
            (if c.R.c_retries > 0 then
               Printf.sprintf "  (%d retries)" c.R.c_retries
             else "")
        | Error f ->
          Printf.printf "%-32s FAILED: %s\n" c.R.c_key
            (Gp_core.Fail.to_string f))
      outcomes;
    Printf.printf "\n%d cell(s): %d computed, %d resumed, %d retries, %d failed\n"
      report.R.r_total report.R.r_computed report.R.r_resumed
      report.R.r_retries
      (List.length report.R.r_failed);
    match report.R.r_failed with
    | [] -> ()
    | ((_, first) :: _) as fails ->
      List.iter
        (fun (k, f) ->
          emit_failure ~json:json_errors (Gp_core.Fail.label f)
            (k ^ ": " ^ Gp_core.Fail.to_string f))
        fails;
      exit (Gp_core.Fail.exit_code first)
  in
  Cmd.v
    (Cmd.info "survey"
       ~doc:"Checkpointed corpus sweep with crash-safe resume.")
    Term.(const run $ goal_arg $ manifest_arg $ resume_arg
          $ full_arg $ budget_arg $ jobs_arg $ attempts_arg
          $ json_errors_arg)

(* ----- netperf ----- *)

let netperf_cmd =
  let run (config_name, cfg) budget json_errors =
    let budget = budget_of budget in
    match
      Gp_harness.Netperf_attack.run ?budget
        (Gp_harness.Workspace.build ~config_name ~cfg ?budget
           Gp_corpus.Netperf.entry)
    with
    | None ->
      emit_failure ~json:json_errors "emu"
        "probe failed: overflow did not reach the return-address cell";
      exit (Gp_core.Fail.exit_code_of_label "emu")
    | Some r ->
      Printf.printf "return-address cell at 0x%Lx (%d filler words)\n"
        r.Gp_harness.Netperf_attack.probe.Gp_harness.Netperf_attack.ret_cell
        r.Gp_harness.Netperf_attack.probe.Gp_harness.Netperf_attack.filler_words;
      Printf.printf "%d chain(s) confirmed end-to-end\n"
        (List.length r.Gp_harness.Netperf_attack.chains);
      match r.Gp_harness.Netperf_attack.chains with
      | c :: _ -> print_string (Gp_core.Payload.describe c)
      | [] -> ()
  in
  Cmd.v (Cmd.info "netperf" ~doc:"Run the netperf end-to-end case study.")
    Term.(const run $ obf_arg $ budget_arg $ json_errors_arg)

(* ----- serve / submit (DESIGN.md §15) ----- *)

let socket_arg =
  Arg.(value & opt string "/tmp/gadget_planner.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket the daemon listens on.")

let serve_cmd =
  let run socket jobs json_errors =
    let module Sv = Gp_harness.Serve in
    let sm = Sv.serve { Sv.d_socket = socket; d_jobs = jobs } in
    Printf.printf "served %d analyses\n" sm.Sv.sm_served;
    if sm.Sv.sm_faults <> [] then begin
      Printf.printf "wire faults quarantined: %s\n"
        (String.concat ", "
           (List.map
              (fun (k, n) -> Printf.sprintf "%s=%d" k n)
              sm.Sv.sm_faults));
      if json_errors then
        List.iter
          (fun (label, n) ->
            emit_failure ~json:true label
              (Printf.sprintf "%d frame(s) quarantined" n))
          sm.Sv.sm_faults
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the resident analysis daemon: the image memo and the \
             solver memo stay memory-hot across requests (nothing is \
             persisted), and concurrent requests run on different \
             workers of one domain pool.  Stops on a client \
             $(b,shutdown) request.")
    Term.(const run $ socket_arg $ jobs_arg $ json_errors_arg)

let submit_cmd =
  let shutdown_arg =
    Arg.(value & flag
         & info [ "shutdown" ]
             ~doc:"After the analysis, ask the daemon to shut down.")
  in
  let run prog obf goal maxn budget socket shutdown json_errors =
    let module Sv = Gp_harness.Serve in
    let fail label detail =
      emit_failure ~json:json_errors label detail;
      exit (Gp_core.Fail.exit_code_of_label label)
    in
    let image = compile_image prog obf in
    let rq =
      { (Sv.default_request image) with
        Sv.rq_goal = goal;
        rq_budget_s = Option.value budget ~default:0.;
        rq_max_plans = maxn }
    in
    match Sv.Client.connect socket with
    | Error why -> fail "frame-disconnect" ("cannot reach daemon: " ^ why)
    | Ok cl ->
      let finish () =
        if shutdown then ignore (Sv.Client.shutdown cl);
        Sv.Client.close cl
      in
      (match Sv.Client.submit cl rq with
      | Error f ->
        finish ();
        fail (Gp_core.Fail.label f) (Gp_core.Fail.to_string f)
      | Ok r ->
        finish ();
        (* same report shape as `plan`, fed from the daemon's reply *)
        Printf.printf "pool %d gadgets; %d validated payload(s); rungs: %s\n"
          r.Sv.sr_pool
          (List.length r.Sv.sr_chains)
          (String.concat "," r.Sv.sr_rungs);
        if r.Sv.sr_budget_hits <> [] then
          Printf.printf "budget exhausted in: %s\n"
            (String.concat ", " r.Sv.sr_budget_hits);
        if r.Sv.sr_quarantined <> [] then
          Printf.printf "quarantined: %s\n"
            (String.concat ", "
               (List.map
                  (fun (k, n) -> Printf.sprintf "%s=%d" k n)
                  r.Sv.sr_quarantined));
        print_newline ();
        List.iteri
          (fun i (_, desc) ->
            Printf.printf "--- payload %d ---\n%s\n" (i + 1) desc)
          r.Sv.sr_chains;
        if json_errors then
          List.iter
            (fun (label, n) ->
              emit_failure ~json:true label
                (Printf.sprintf "%d item(s) quarantined" n))
            r.Sv.sr_quarantined;
        if r.Sv.sr_chains = [] && r.Sv.sr_budget_hits <> [] then begin
          emit_failure ~json:json_errors "budget"
            ("no payload before budget ran out in: "
             ^ String.concat ", " r.Sv.sr_budget_hits);
          exit (Gp_core.Fail.exit_code_of_label "budget")
        end)
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Compile a program and submit it to a running daemon; the \
             report is identical to running $(b,plan) locally.")
    Term.(const run $ prog_arg $ obf_arg $ goal_arg $ max_arg $ budget_arg
          $ socket_arg $ shutdown_arg $ json_errors_arg)

(* ----- disasm ----- *)

let disasm_cmd =
  let run prog obf =
    let image = compile_image prog obf in
    let code = image.Gp_util.Image.code in
    let base = image.Gp_util.Image.code_base in
    let pos = ref 0 in
    while !pos < Bytes.length code do
      let addr = Int64.add base (Int64.of_int !pos) in
      (match Gp_util.Image.symbol_at image addr with
       | Some s when s.Gp_util.Image.sym_addr = addr ->
         Printf.printf "\n%s:\n" s.Gp_util.Image.sym_name
       | _ -> ());
      match Gp_x86.Decode.decode code !pos with
      | Some (insn, len) ->
        Printf.printf "  %08Lx  %-24s %s\n" addr
          (Gp_util.Hex.of_bytes (Bytes.sub code !pos len))
          (Gp_x86.Insn.to_string insn);
        pos := !pos + len
      | None ->
        Printf.printf "  %08Lx  %02x                      (bad)\n" addr
          (Bytes.get_uint8 code !pos);
        incr pos
    done
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Linear disassembly of a compiled program.")
    Term.(const run $ prog_arg $ obf_arg)

(* ----- list ----- *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Gp_corpus.Programs.entry) ->
        Printf.printf "%-16s %s\n" e.Gp_corpus.Programs.name
          e.Gp_corpus.Programs.description)
      (Gp_corpus.Programs.all @ Gp_corpus.Spec.all @ [ Gp_corpus.Netperf.entry ])
  in
  Cmd.v (Cmd.info "list" ~doc:"List the corpus programs.") Term.(const run $ const ())

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "gadget_planner" ~version:"1.0.0"
             ~doc:"Code-reuse attack construction on obfuscated binaries.")
          [ compile_cmd; scan_cmd; plan_cmd; survey_cmd; netperf_cmd;
            serve_cmd; submit_cmd; disasm_cmd; list_cmd ]))
