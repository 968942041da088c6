(* End-to-end, layer-by-layer benchmark of the shipped pipeline.

     dune exec bench/e2e/main.exe -- --seed 1                # all four workloads
     dune exec bench/e2e/main.exe -- --workload plan-cold --seed 3 --seconds 12
     dune exec bench/e2e/main.exe -- --seed 1 --trace        # per-layer metrics
     dune exec bench/e2e/main.exe -- --seed 1 --out runs.jsonl
     dune exec bench/e2e/main.exe -- --compare base.jsonl new.jsonl
     dune exec bench/e2e/main.exe -- --smoke                 # tiny inputs
     dune exec bench/e2e/main.exe -- --pin                   # rewrite pins.txt

   Run from the repository root.  Each workload runs in child processes
   of this executable (--child ...): set-up samples, the timed phase,
   and for --trace an untraced and a traced pass over the same items;
   --trace also runs bench/main.exe --bechamel for the micro-benchmarks
   (build it first, or use run.sh).  The last line of standard output is one
   JSON object: correct, attempted, failed, metrics.  README.md explains
   the workloads, the metrics and how to read a trace. *)

let end_to_end =
  [ ("setup_s", "s"); ("throughput_per_s", "1/s"); ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms"); ("cpu_ms_per_item", "ms"); ("peak_rss_mb", "MB") ]

let per_layer =
  let l unit names = List.map (fun n -> (n, unit)) names in
  l "s" [ "codegen.compile_s" ]
  @ l "KB" [ "codegen.code_kb" ]
  @ l "s" [ "extract.self_s" ]
  @ l "count"
      [ "extract.summaries"; "extract.summary_hits"; "extract.summary_misses";
        "extract.suffix_hits"; "extract.suffix_misses"; "extract.substitutions";
        "extract.decode_saved"; "extract.quarantined" ]
  @ l "s" [ "decode.self_s" ]
  @ l "count" [ "decode.offsets" ]
  @ l "s" [ "subsume.self_s" ]
  @ l "count" [ "subsume.pool" ]
  @ l "ratio" [ "subsume.keep_ratio" ]
  @ l "count" [ "solver.memo_hits"; "solver.memo_misses" ]
  @ l "ratio" [ "solver.hit_ratio" ]
  @ l "count"
      [ "solver.unknowns"; "solver.screen_refuted"; "solver.screen_decided";
        "solver.concrete_refuted"; "solver.elim_reused"; "solver.fp_refuted";
        "solver.memo_entries"; "term.memo_hits"; "term.memo_misses" ]
  @ l "ratio" [ "term.hit_ratio" ]
  @ l "s" [ "plan.self_s" ]
  @ l "count"
      [ "plan.expanded"; "plan.peak_queue"; "plan.inst_hits"; "plan.cand_hits";
        "plan.plans_found"; "plan.discarded" ]
  @ l "ratio" [ "plan.yield_ratio" ]
  @ l "s" [ "validate.self_s" ]
  @ l "count"
      [ "validate.chains_built"; "validate.chains_validated"; "validate.faults";
        "validate.timeouts" ]
  @ l "ratio" [ "validate.accept_ratio" ]
  @ l "s" [ "finalize.self_s" ]
  @ l "count"
      [ "ladder.extra_rungs"; "incr.entries"; "incr.suffix_entries"; "incr.fp_entries";
        "gc.minor_collections"; "gc.major_collections"; "gc.major_words" ]
  @ l "MB" [ "gc.top_heap_mb" ]
  @ l "s" [ "serve.codec_s" ]
  @ l "KB" [ "serve.request_kb" ]
  @ l "count" [ "serve.counter_drift" ]
  @ l "s" [ "emu.replay_s" ]
  @ l "count" [ "emu.replays" ]
  @ l "ratio" [ "trace.overhead_ratio" ]
  @ l "ms" [ "host.probe_ms" ]
  @ l "ns"
      [ "micro.raw_scan_ns"; "micro.harvest_ns"; "micro.subsume_ns"; "micro.plan_ns";
        "micro.compile_ns"; "micro.emulate_ns" ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit 2) fmt

(* ----- arguments ----- *)

let argv = Array.to_list Sys.argv

let opt name =
  let rec find = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find argv

let flag name = List.mem name argv

let int_opt name default =
  match opt name with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with
    | Some n -> n
    | None -> die "%s: not an integer: %s" name v)

(* --trace 0|1 (BENCHMARK.json's form) or a bare --trace *)
let traced =
  match opt "--trace" with
  | Some "0" -> false
  | Some "1" -> true
  | _ -> flag "--trace"

let seed = int_opt "--seed" 1
let seconds = float_of_int (int_opt "--seconds" 12)

(* ----- child processes ----- *)

let vm_hwm_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec go () =
      match input_line ic with
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb -> kb /. 1024.)
      | _ -> go ()
      | exception End_of_file -> nan
    in
    let v = go () in
    close_in ic;
    v
  with Sys_error _ -> nan

let common_child_args () =
  (if !Inputs.tiny then [ "--tiny" ] else []) @ List.filter flag [ "--no-pins" ]

(* Run this executable as a child; its last stdout line is its JSON
   result.  The child is waited for before returning. *)
let run_child args =
  let exe = Sys.executable_name in
  let args = args @ common_child_args () in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> die "child %s exited with %d" (String.concat " " args) n
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    die "child %s killed by signal %d" (String.concat " " args) n);
  match List.rev (String.split_on_char '\n' (String.trim out)) with
  | last :: _ -> (
    try Json.parse last with Json.Parse_error e -> die "child output: %s" e)
  | [] -> die "child %s printed nothing" (String.concat " " args)

(* The micro-benchmarks are bench/main.exe's Bechamel suite, run as a
   child and read back from its "NAME  NS ns/run" lines: the OLS estimate
   of one call, per test. *)
let micro_tests =
  [ ("fig1/raw_scan", "micro.raw_scan_ns"); ("tab4/harvest", "micro.harvest_ns");
    ("tab4/subsume", "micro.subsume_ns"); ("tab4/plan", "micro.plan_ns");
    ("fig5/obfuscate+compile", "micro.compile_ns"); ("fig8/emulate", "micro.emulate_ns") ]

let micro () =
  let exe =
    Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "main.exe"
  in
  if not (Sys.file_exists exe) then die "%s is not built: dune build bench/main.exe" exe;
  let ic = Unix.open_process_args_in exe [| exe; "--bechamel" |] in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> die "%s --bechamel failed" exe);
  let estimates =
    List.filter_map
      (fun line ->
        match List.filter (( <> ) "") (String.split_on_char ' ' line) with
        | [ name; ns; "ns/run" ] -> Option.map (fun v -> (name, v)) (float_of_string_opt ns)
        | _ -> None)
      (String.split_on_char '\n' out)
  in
  List.map
    (fun (test, metric) ->
      match List.assoc_opt ("gadget-planner/" ^ test) estimates with
      | Some v -> (metric, v)
      | None -> die "bench/main.exe --bechamel gave no estimate for %s" test)
    micro_tests

let child_main role workload =
  match role with
  | "setup" | "measure" ->
    let setup_only = role = "setup" in
    let tr = Trace.create ~enabled:(flag "--traced") in
    let ck = Oracle.create ~workload ~seed ~use_pins:(not (flag "--no-pins")) in
    let items = int_opt "--items" 0 in
    (* the timed phase's wall-clock guard, for a host far slower than usual *)
    let max_wall = 3. *. seconds in
    let r = Workloads.run workload ~seed ~items ~max_wall ~setup_only tr ck in
    let n = List.length r.latencies in
    if tr.enabled then begin
      Workloads.ensure_out_dir ();
      Trace.write tr
        (Filename.concat Workloads.out_dir
           (Printf.sprintf "%s-seed%d.trace.json" workload seed));
      Trace.set tr "emu.replay_s" ck.replay_s;
      Trace.set tr "emu.replays" (float ck.replays)
    end;
    let num f = Json.Num f in
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("setup_s", num r.setup_s);
              ("setup_probe", num r.setup_probe);
              ("items", num (float n));
              ("cpu_s", num r.cpu_s);
              ("latencies", Json.Arr (List.map num r.latencies));
              ("probes", Json.Arr (List.map num r.probes));
              ("peak_rss_mb", num (vm_hwm_mb ()));
              ("failed", num (float ck.failed));
              ("reasons", Json.Arr (List.rev_map (fun s -> Json.Str s) ck.reasons));
              ( "digests",
                Json.Arr
                  (List.rev_map
                     (fun (k, d) -> Json.Arr [ Json.Str k; Json.Str d ])
                     ck.digests) );
              ("counts", Json.Obj (List.map (fun (k, v) -> (k, num (float v))) r.counts));
              ( "sums",
                Json.Obj
                  (Hashtbl.fold (fun k v acc -> (k, num v) :: acc) tr.Trace.sums []) ) ]))
  | r -> die "unknown child role %s" r

(* ----- one workload ----- *)

let num_of j k = Option.value (Json.num_member k j) ~default:nan

let child_args ?(seconds = seconds) role workload extra =
  [ "--child"; role; "--workload"; workload; "--seed"; string_of_int seed;
    "--seconds"; string_of_int (int_of_float seconds) ]
  @ extra

let report_failures workload j =
  match Json.member "reasons" j with
  | Some (Json.Arr l) ->
    List.iter
      (function Json.Str s -> Printf.eprintf "e2e: %s: %s\n%!" workload s | _ -> ())
      l
  | _ -> ()

let sorted_digests j =
  match Json.member "digests" j with
  | Some (Json.Arr l) -> List.sort compare l
  | _ -> []

(* Set-up is sampled this many times, each in a fresh process (the
   timed child's own set-up is one of them), and reported as the median. *)
let setup_samples = 3

type outcome = {
  workload : string;
  metrics : (string * float) list;
  raw : (string * float) list;   (* the same before host adjustment *)
  attempted : int;
  failed : int;
  counts : Json.t;
}

let nums j k =
  match Json.member k j with
  | Some (Json.Arr l) -> List.filter_map Json.to_num l
  | _ -> []

let sum = List.fold_left ( +. ) 0.

(* A timed child's items: raw and host-adjusted latencies (Host). *)
let latencies j =
  let raw = nums j "latencies" in
  (raw, List.map2 ( *. ) raw (Host.factors (nums j "probes")))

let adjusted_setup j = num_of j "setup_s" *. Host.reference_s /. num_of j "setup_probe"

(* The end-to-end metrics of one timed child: latencies, CPU time and
   set-up adjusted, or raw. *)
let end_to_end_values ~setups j ~adjusted =
  let raw, adj = latencies j in
  let lats = if adjusted then adj else raw in
  let n = float (List.length lats) in
  let clients =
    Option.value
      (Option.bind (Json.member "counts" j) (Json.num_member "clients"))
      ~default:1.
  in
  (* CPU time is adjusted by the latency-weighted mean factor *)
  let cpu_s = num_of j "cpu_s" *. if adjusted then sum adj /. sum raw else 1. in
  let setup = if adjusted then adjusted_setup else fun j -> num_of j "setup_s" in
  let ms p = Stats.percentile lats p *. 1000. in
  [ ("setup_s", Stats.median (List.map setup (j :: setups)));
    (* a closed loop: clients / mean latency *)
    ("throughput_per_s", clients *. n /. sum lats);
    ("latency_p50_ms", ms 50.);
    ("latency_p90_ms", ms 90.);
    ("cpu_ms_per_item", cpu_s *. 1000. /. n);
    ("peak_rss_mb", num_of j "peak_rss_mb") ]

let untraced workload =
  let items = Workloads.phase_items workload ~seconds in
  let setups =
    List.init (setup_samples - 1) (fun _ -> run_child (child_args "setup" workload []))
  in
  let m = run_child (child_args "measure" workload [ "--items"; string_of_int items ]) in
  report_failures workload m;
  { workload;
    metrics = end_to_end_values ~setups m ~adjusted:true;
    raw =
      end_to_end_values ~setups m ~adjusted:false
      @ [ ("probe_ms", Stats.median (nums m "probes") *. 1000.) ];
    attempted = int_of_float (num_of m "items");
    failed = int_of_float (num_of m "failed");
    counts = Option.value (Json.member "counts" m) ~default:Json.Null }

let ratio a b = if b = 0. then 0. else a /. b

(* Per-layer metrics: an untraced and a traced pass over the same items,
   the traced pass's sums, and the micro-benchmarks.  Times in seconds
   are host-adjusted by the traced pass's latency-weighted mean factor.
   --smoke skips the micro-benchmarks (they take about 11 s) and reports
   them as 0. *)
let traced_run workload =
  let n = Workloads.phase_items workload ~seconds:(seconds /. 2.) in
  let items = [ "--items"; string_of_int n ] in
  let u = run_child (child_args "measure" workload items) in
  let t = run_child (child_args "measure" workload (items @ [ "--traced" ])) in
  let micro =
    if !Inputs.tiny then List.map (fun (_, m) -> (m, 0.)) micro_tests else micro ()
  in
  report_failures workload u;
  report_failures workload t;
  (* traced items whose digest the untraced pass did not produce; at
     least 1 whenever the two multisets differ *)
  let mismatch =
    let du = sorted_digests u and dt = sorted_digests t in
    if du = dt then 0
    else begin
      Printf.eprintf "e2e: %s: traced results differ from the untraced run\n%!" workload;
      max 1 (List.length (List.filter (fun d -> not (List.mem d du)) dt))
    end
  in
  let t_raw, t_adj = latencies t and _, u_adj = latencies u in
  let factor = ratio (sum t_adj) (sum t_raw) in
  let sums = Option.value (Json.member "sums" t) ~default:(Json.Obj []) in
  let s k = Option.value (Json.num_member k sums) ~default:0. in
  let derived =
    [ ("subsume.keep_ratio", ratio (s "subsume.pool") (s "extract.summaries"));
      ( "solver.hit_ratio",
        ratio (s "solver.memo_hits") (s "solver.memo_hits" +. s "solver.memo_misses") );
      ( "term.hit_ratio",
        ratio (s "term.memo_hits") (s "term.memo_hits" +. s "term.memo_misses") );
      ( "plan.yield_ratio",
        ratio (s "plan.plans_found") (s "plan.plans_found" +. s "plan.discarded") );
      ( "validate.accept_ratio",
        ratio (s "validate.chains_built")
          (s "validate.chains_built" +. s "validate.faults" +. s "validate.timeouts") );
      ("trace.overhead_ratio", (sum t_adj /. sum u_adj) -. 1.);
      ("host.probe_ms", Stats.median (nums t "probes") *. 1000.) ]
  in
  let value (name, unit) =
    match (List.assoc_opt name derived, List.assoc_opt name micro) with
    | Some v, _ | None, Some v -> (name, v)
    | None, None -> (name, if unit = "s" then s name *. factor else s name)
  in
  let iu = int_of_float (num_of u "items") and it = int_of_float (num_of t "items") in
  { workload;
    metrics = List.map value per_layer;
    raw = [];
    attempted = iu + it;
    failed = int_of_float (num_of u "failed" +. num_of t "failed") + mismatch;
    counts = Option.value (Json.member "counts" t) ~default:Json.Null }

let catalog () = if traced then per_layer else end_to_end

let metrics_json o =
  Json.Obj
    (List.map
       (fun (name, unit) ->
         ( name,
           Json.Obj
             [ ("value", Json.Num (List.assoc name o.metrics));
               ("unit", Json.Str unit) ] ))
       (catalog ()))

let print_metrics o =
  List.iter
    (fun (name, unit) ->
      Printf.printf "%-14s %-28s %16.6g %s%s\n" o.workload name
        (List.assoc name o.metrics) unit
        (match List.assoc_opt name o.raw with
        | Some r when r <> List.assoc name o.metrics -> Printf.sprintf "  (raw %.6g)" r
        | _ -> ""))
    (catalog ())

(* ----- provenance and --out ----- *)

let git_info () =
  if not (Sys.file_exists ".git") then ("unknown", false)
  else
    let dirty =
      try
        let ic =
          Unix.open_process_in "git status --porcelain --untracked-files=no 2>/dev/null"
        in
        let out = In_channel.input_all ic in
        ignore (Unix.close_process_in ic);
        String.trim out <> ""
      with _ -> false
    in
    (Gp_harness.Experiments.git_rev (), dirty)

let append_out path outcomes =
  let rev, dirty = git_info () in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  List.iter
    (fun o ->
      let rec_ =
        Json.Obj
          [ ("workload", Json.Str o.workload);
            ("seed", Json.Num (float seed));
            ("trace", Json.Bool traced);
            ("seconds", Json.Num seconds);
            ("git_rev", Json.Str rev);
            ("dirty", Json.Bool dirty);
            ("hostname", Json.Str (try Unix.gethostname () with _ -> "unknown"));
            ("ocaml_version", Json.Str Sys.ocaml_version);
            ("cores", Json.Num (float (Gp_util.Par.available ())));
            ( "jobs",
              Json.Num
                (Option.value (Json.num_member "clients" o.counts) ~default:1.) );
            ("items", o.counts);
            ("correct", Json.Bool (o.failed = 0 && o.attempted > 0));
            ("attempted", Json.Num (float o.attempted));
            ("failed", Json.Num (float o.failed));
            ("metrics", metrics_json o);
            ("raw", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) o.raw)) ]
      in
      output_string oc (Json.to_string rec_);
      output_char oc '\n')
    outcomes;
  close_out oc

let run_workloads workloads =
  let outcomes =
    List.map
      (fun w ->
        let o = if traced then traced_run w else untraced w in
        print_metrics o;
        o)
      workloads
  in
  Option.iter (fun p -> append_out p outcomes) (opt "--out");
  outcomes

let summary outcomes =
  let attempted = List.fold_left (fun s o -> s + o.attempted) 0 outcomes in
  let failed = List.fold_left (fun s o -> s + o.failed) 0 outcomes in
  let correct = failed = 0 && attempted > 0 in
  let metrics =
    match outcomes with
    | [ o ] -> metrics_json o
    | _ ->
      Json.Obj
        (List.concat_map
           (fun o ->
             match metrics_json o with
             | Json.Obj l -> List.map (fun (k, v) -> (o.workload ^ "/" ^ k, v)) l
             | _ -> [])
           outcomes)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Num (float attempted));
            ("failed", Json.Num (float failed));
            ("metrics", metrics) ]));
  if not correct then exit 1

(* ----- --pin ----- *)

let pin () =
  let streams =
    [ ("scan-cold", List.length (Inputs.scan_items ~seed));
      ("plan-cold", List.length (Inputs.plan_cold_items ~seed));
      ("plan-resident", List.length (Inputs.resident_items ~seed)) ]
  in
  let lines =
    List.concat_map
      (fun (w, n) ->
        Printf.eprintf "e2e: pinning %s (%d items)\n%!" w n;
        let j =
          run_child
            (child_args ~seconds:1e6 "measure" w [ "--items"; string_of_int n; "--no-pins" ])
        in
        if num_of j "failed" > 0. then begin
          report_failures w j;
          die "%s: oracle failures; not pinning" w
        end;
        List.filter_map
          (function
            | Json.Arr [ Json.Str k; Json.Str d ] ->
              Some (Printf.sprintf "%s %s %s" w k d)
            | _ -> None)
          (sorted_digests j))
      streams
  in
  let oc = open_out Oracle.pins_file in
  List.iter (fun l -> output_string oc (l ^ "\n")) (List.sort_uniq compare lines);
  close_out oc;
  Printf.printf "wrote %d pinned digests for seed %d to %s\n" (List.length lines) seed
    Oracle.pins_file

(* ----- --smoke ----- *)

(* Every workload at one program, one config, one goal: the untraced
   and traced result lines must carry exactly BENCHMARK.json's metric
   names and pass the oracle. *)
let smoke () =
  let bench = Json.parse (Json.read_file "BENCHMARK.json") in
  let names key =
    match Json.member key bench with
    | Some (Json.Arr l) -> List.filter_map (Json.str_member "name") l
    | _ -> die "BENCHMARK.json: no %s" key
  in
  let check what expected got =
    if List.sort compare expected <> List.sort compare got then
      die "smoke: %s metric names differ from BENCHMARK.json" what
  in
  check "end_to_end" (names "end_to_end") (List.map fst end_to_end);
  check "per_layer" (names "per_layer") (List.map fst per_layer);
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let j =
            run_child
              [ "--workload"; w; "--seed"; string_of_int seed; "--seconds"; "1";
                "--trace"; trace ]
          in
          let keys = match j with Json.Obj l -> List.map fst l | _ -> [] in
          if keys <> [ "correct"; "attempted"; "failed"; "metrics" ] then
            die "smoke: %s: result keys %s" w (String.concat "," keys);
          if Json.member "correct" j <> Some (Json.Bool true) then
            die "smoke: %s (trace %s) not correct" w trace;
          let got =
            match Json.member "metrics" j with
            | Some (Json.Obj l) ->
              List.iter
                (fun (k, v) ->
                  if Json.num_member "value" v = None || Json.str_member "unit" v = None
                  then die "smoke: %s: metric %s malformed" w k)
                l;
              List.map fst l
            | _ -> []
          in
          check (w ^ "/trace " ^ trace)
            (names (if trace = "1" then "per_layer" else "end_to_end"))
            got;
          Printf.printf "smoke %-14s trace=%s ok\n%!" w trace)
        [ "0"; "1" ])
    Workloads.names;
  print_endline "smoke ok"

let () =
  if flag "--tiny" then Inputs.tiny := true;
  match (opt "--child", opt "--workload") with
  | Some role, Some w -> child_main role w
  | Some _, None -> die "--child needs --workload"
  | None, _ when flag "--compare" -> (
    let rec files = function
      | "--compare" :: base :: next :: _ -> Some (base, next)
      | _ :: rest -> files rest
      | [] -> None
    in
    match files argv with
    | Some (base, next) -> Compare.run ~bench:"BENCHMARK.json" base next
    | None -> die "usage: --compare BASE.jsonl NEW.jsonl")
  | None, _ when flag "--smoke" ->
    Inputs.tiny := true;
    smoke ()
  | None, _ when flag "--pin" -> pin ()
  | None, Some w ->
    if not (List.mem w Workloads.names) then die "unknown workload %s" w;
    summary (run_workloads [ w ])
  | None, None -> summary (run_workloads Workloads.names)
