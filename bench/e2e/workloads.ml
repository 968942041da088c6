(* The four workloads, each a set-up plus a closed-loop timed phase.

   A workload runs in a process of its own (see main.ml), so peak RSS,
   GC state and the process-global memos belong to it alone.  The timed
   phase is a fixed number of items, so every run of a seed covers the
   same inputs whatever the host's speed (up to a wall-clock guard, see
   [closed_loop]).  Item streams are cyclic; an item past the end of the
   stream repeats an earlier input, and its digest must then repeat too.

   Everything untimed per item — cache resets for the cold workloads,
   the oracle, trace-only replays, the host probe — happens between
   timed calls, so latency and CPU time cover the program's calls alone. *)

open Gp_core
module E = Gp_harness.Experiments
module Serve = Gp_harness.Serve

let names = [ "scan-cold"; "plan-cold"; "plan-resident"; "serve-2c" ]

(* Items in a timed phase per second of --seconds: about the rate of the
   reference host at its usual speed, except for plan-cold, whose phase
   covers its whole 180-request stream at the default 12 s.  Its peak
   RSS is set by the largest request the phase meets; over 108 requests
   it depended on which ones, and spread 14.5% across seeds, against 10%
   over all 180. *)
let items_per_second = function "scan-cold" -> 20. | "plan-cold" -> 15. | _ -> 9.

(* At the default 12 s: 240, 180, 108 and 108 items, so p90 has at least
   10 items beyond it. *)
let phase_items workload ~seconds =
  if !Inputs.tiny then 2
  else max 1 (Float.to_int (Float.round (items_per_second workload *. seconds)))

type result = {
  setup_s : float;
  setup_probe : float;      (* median Host.probe time around the set-up *)
  latencies : float list;   (* seconds per item, in item order *)
  probes : float list;      (* Host.probe time after each item, same order *)
  cpu_s : float;            (* user+sys over the program's calls *)
  counts : (string * int) list;
}

let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed f =
  let c0 = cpu () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  (r, t1 -. t0, cpu () -. c0)

(* Host probes taken around and during a set-up, and the time spent in
   those taken during it. *)
let setup_probes = ref []
let setup_probe_s = ref 0.

let setup_probe () =
  let p = Host.probe () in
  setup_probes := p :: !setup_probes;
  setup_probe_s := !setup_probe_s +. p

(* The set-up, its time less the probes it made, and the median probe
   time around and during it. *)
let timed_setup f =
  for _ = 1 to 3 do setup_probe () done;
  setup_probe_s := 0.;
  let r, setup_s = Api.timed f in
  let setup_s = setup_s -. !setup_probe_s in
  for _ = 1 to 3 do setup_probe () done;
  (r, setup_s, Stats.median !setup_probes)

(* ----- set-up helpers ----- *)

(* Compile every distinct cell once; returns key -> image. *)
let compile_cells tr ~seed cells =
  let images = Hashtbl.create 512 in
  Trace.span tr ~cat:"setup" ~self:"codegen.compile_s" ~counted:false "codegen"
    (fun () ->
      List.iter
        (fun (c : Inputs.cell) ->
          let k = Inputs.cell_key c in
          if not (Hashtbl.mem images k) then
            Hashtbl.add images k (Inputs.compile ~seed c))
        cells);
  Hashtbl.iter
    (fun _ img ->
      Trace.add tr "codegen.code_kb" (float (Gp_util.Image.code_size img) /. 1024.))
    images;
  images

(* ----- per-layer sums of the program's own outputs ----- *)

let add_analysis tr (a : Api.analysis) =
  let f = float in
  Trace.add tr "extract.summaries" (f a.raw_extracted);
  Trace.add tr "extract.summary_hits" (f a.analysis_summary_hits);
  Trace.add tr "extract.summary_misses" (f a.analysis_summary_misses);
  Trace.add tr "extract.suffix_hits" (f a.analysis_suffix_hits);
  Trace.add tr "extract.suffix_misses" (f a.analysis_suffix_misses);
  Trace.add tr "extract.substitutions" (f a.analysis_substitutions);
  Trace.add tr "extract.decode_saved" (f a.analysis_decode_saved);
  Trace.add tr "extract.quarantined"
    (f (List.fold_left (fun s (_, n) -> s + n) 0 a.quarantined));
  Trace.add tr "subsume.pool" (f (Pool.size a.pool))

let peak tr name v = Trace.set tr name (Float.max v (Trace.get tr name))

(* Stage 3-4 tallies, from an outcome's stats or a daemon reply's
   counters (same names, see Serve.invariant_counters). *)
let add_plan_counters tr get =
  let f k = float (get k) in
  Trace.add tr "plan.expanded" (f "plan_expanded");
  peak tr "plan.peak_queue" (f "plan_peak_queue");
  Trace.add tr "plan.inst_hits" (f "plan_inst_hits");
  Trace.add tr "plan.cand_hits" (f "plan_cand_hits");
  Trace.add tr "plan.plans_found" (f "plans_found");
  Trace.add tr "plan.discarded" (f "plan_discarded");
  Trace.add tr "validate.chains_built" (f "chains_built");
  Trace.add tr "validate.chains_validated" (f "chains_validated");
  Trace.add tr "validate.faults" (f "validate_faults");
  Trace.add tr "validate.timeouts" (f "validate_timeouts")

(* After one rung: plan.self_s is the stage_plan span minus the time the
   program's own timer charged to validation inside it. *)
let add_outcome tr (o : Api.outcome) =
  let c = Serve.report_of_outcome o in
  add_plan_counters tr (fun k ->
      Option.value (List.assoc_opt k c.sr_counters) ~default:0);
  Trace.add tr "validate.self_s" o.stats.validate_time;
  Trace.add tr "plan.self_s" (-.o.stats.validate_time)

(* The decode layer, replayed: Decode.decode at every byte offset of
   the image's code, as the harvest's decode-once memo does. *)
let decode_replay tr image =
  let code = image.Gp_util.Image.code in
  Trace.span tr ~cat:"replay" ~self:"decode.self_s" ~counted:false "decode.replay"
    (fun () ->
      for p = 0 to Bytes.length code - 1 do
        ignore (Gp_x86.Decode.decode code p)
      done);
  Trace.add tr "decode.offsets" (float (Bytes.length code))

let end_of_phase tr (gc0 : Gc.stat) =
  let gc1 = Gc.quick_stat () in
  let delta f = float (f gc1 - f gc0) in
  Trace.set tr "gc.minor_collections" (delta (fun g -> g.minor_collections));
  Trace.set tr "gc.major_collections" (delta (fun g -> g.major_collections));
  Trace.set tr "gc.major_words" (gc1.major_words -. gc0.major_words);
  Trace.set tr "gc.top_heap_mb"
    (float gc1.top_heap_words *. float (Sys.word_size / 8) /. 1048576.);
  Trace.set tr "incr.entries" (float (Incr.size ()));
  Trace.set tr "incr.suffix_entries" (float (Incr.suffix_size ()));
  Trace.set tr "incr.fp_entries" (float (Incr.fp_size ()));
  Trace.set tr "solver.memo_entries" (float (Gp_smt.Solver.memo_count ()))

(* ----- the closed loop of one client ----- *)

let setup_result ~setup_s ~setup_probe counts =
  { setup_s; setup_probe; latencies = []; probes = []; cpu_s = 0.; counts }

(* [step i] handles item [i] and returns the latency and CPU time of the
   program's call.  A host probe follows each item.  The phase stops
   early after [max_wall] seconds, a guard for a host slowed far beyond
   its usual speed. *)
let closed_loop tr ~setup_s ~setup_probe ~items ~max_wall step counts =
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let lats = ref [] and probes = ref [] and cpu_s = ref 0. and i = ref 0 in
  while !i < items && now () -. t0 < max_wall do
    let lat, c = step !i in
    lats := lat :: !lats;
    probes := Host.probe () :: !probes;
    cpu_s := !cpu_s +. c;
    incr i
  done;
  end_of_phase tr gc0;
  { setup_s; setup_probe; latencies = List.rev !lats; probes = List.rev !probes;
    cpu_s = !cpu_s; counts }

let nth arr i = arr.(i mod Array.length arr)

(* ----- scan-cold ----- *)

let scan_cold ~seed ~items ~max_wall ~setup_only tr ck =
  let (stream, images), setup_s, setup_probe =
    timed_setup (fun () ->
        let stream = Array.of_list (Inputs.scan_items ~seed) in
        (stream, compile_cells tr ~seed (Array.to_list stream)))
  in
  let counts = [ ("stream", Array.length stream); ("images", Hashtbl.length images) ] in
  if setup_only then setup_result ~setup_s ~setup_probe counts
  else begin
    let step i =
      let c = nth stream i in
      let key = Inputs.cell_key c in
      let image = Hashtbl.find images key in
      E.reset_world ();
      let a, lat, cpu =
        timed (fun () ->
            Trace.span tr ~cat:"item" ~item:i ~counted:false "scan" (fun () ->
                let ex =
                  Trace.span tr ~self:"extract.self_s" ~item:i "extract" (fun () ->
                      Api.stage_extract ~ids:(Gadget.local_ids ()) image)
                in
                fst
                  (Trace.span tr ~self:"subsume.self_s" ~item:i "subsume" (fun () ->
                       Api.stage_subsume ex))))
      in
      if tr.Trace.enabled then begin
        add_analysis tr a;
        decode_replay tr image
      end;
      Oracle.record ck ~key ~projection:(Oracle.scan_projection a)
        (Oracle.scan_problems a);
      (lat, cpu)
    in
    closed_loop tr ~setup_s ~setup_probe ~items ~max_wall step counts
  end

(* ----- plan-cold ----- *)

(* [Api.run] through the staged API, one span per stage and per ladder
   rung: the same stage calls, budgets and ladder condition as Api.run,
   so the outcome is the same. *)
let staged_run tr ~item planner_config image goal =
  let root = Budget.unlimited () in
  let ex =
    Trace.span tr ~self:"extract.self_s" ~item "extract" (fun () ->
        Api.stage_extract ~budget:root ~ids:(Gadget.local_ids ()) image)
  in
  let a_full, harvested =
    Trace.span tr ~self:"subsume.self_s" ~item "subsume" (fun () ->
        Api.stage_subsume ~budget:root ex)
  in
  add_analysis tr a_full;
  let a_degraded = lazy (Api.dedup_analysis a_full harvested) in
  let rec ladder tried last = function
    | rung :: rest
      when match last with
           | None -> true
           | Some (o : Api.outcome) -> o.chains = [] && not (Budget.exhausted root) ->
      let a = if rung = Api.Full then a_full else Lazy.force a_degraded in
      let rb = Budget.sub root ~label:(Api.rung_name rung) ~fraction:0.6 () in
      let planned =
        Trace.span tr ~self:"plan.self_s" ~item ("plan:" ^ Api.rung_name rung) (fun () ->
            Api.stage_plan
              ~planner_config:(Api.rung_planner_config planner_config rung)
              ~budget:rb a goal)
      in
      let o =
        Trace.span tr ~self:"finalize.self_s" ~item "finalize" (fun () ->
            Api.stage_finalize planned)
      in
      add_outcome tr o;
      ladder (rung :: tried) (Some o) rest
    | _ -> (
      match last with
      | Some o -> { o with Api.rungs = List.rev tried }
      | None -> assert false)
  in
  let o =
    ladder [] None [ Api.Full; Api.Dedup_only; Api.Wider_branch; Api.Relaxed_steps ]
  in
  Trace.add tr "ladder.extra_rungs" (float (List.length o.rungs - 1));
  o

let plan_cold ~seed ~items ~max_wall ~setup_only tr ck =
  let cfg = Inputs.plan_config in
  let (stream, images), setup_s, setup_probe =
    timed_setup (fun () ->
        let stream = Array.of_list (Inputs.plan_cold_items ~seed) in
        ( stream,
          compile_cells tr ~seed
            (List.map (fun (r : Inputs.request) -> r.cell) (Array.to_list stream)) ))
  in
  let counts = [ ("stream", Array.length stream); ("images", Hashtbl.length images) ] in
  if setup_only then setup_result ~setup_s ~setup_probe counts
  else begin
    let step i =
      let r = nth stream i in
      let image = Hashtbl.find images (Inputs.cell_key r.cell) in
      let goal = Serve.goal_of_name r.goal in
      E.reset_world ();
      let o, lat, cpu =
        timed (fun () ->
            if tr.Trace.enabled then
              Trace.span tr ~cat:"item" ~item:i ~counted:false "request" (fun () ->
                  staged_run tr ~item:i cfg image goal)
            else Api.run ~planner_config:cfg ~ids:(Gadget.local_ids ()) image goal)
      in
      if tr.Trace.enabled then decode_replay tr image;
      Oracle.record_plan ck ~key:(Inputs.request_key r) image r.goal o;
      (lat, cpu)
    in
    closed_loop tr ~setup_s ~setup_probe ~items ~max_wall step counts
  end

(* ----- plan-resident ----- *)

let plan_resident ~seed ~items ~max_wall ~setup_only tr ck =
  let cfg = Inputs.plan_config in
  let (stream, analyses), setup_s, setup_probe =
    timed_setup (fun () ->
        E.reset_world ();
        let cells = Inputs.resident_cells () in
        let images = compile_cells tr ~seed cells in
        let analyses = Hashtbl.create 64 in
        List.iter
          (fun c ->
            let k = Inputs.cell_key c in
            let ex =
              Trace.span tr ~cat:"setup" ~counted:false "extract" (fun () ->
                  Api.stage_extract ~ids:(Gadget.local_ids ())
                    (Hashtbl.find images k))
            in
            let a, _ =
              Trace.span tr ~cat:"setup" ~counted:false "subsume" (fun () ->
                  Api.stage_subsume ex)
            in
            Hashtbl.replace analyses k a;
            setup_probe ())
          cells;
        (Array.of_list (Inputs.resident_items ~seed), analyses))
  in
  let counts = [ ("stream", Array.length stream); ("images", Hashtbl.length analyses) ] in
  if setup_only then setup_result ~setup_s ~setup_probe counts
  else begin
    let step i =
      let r = nth stream i in
      let a = Hashtbl.find analyses (Inputs.cell_key r.cell) in
      let goal = Serve.goal_of_name r.goal in
      let o, lat, cpu =
        timed (fun () ->
            if tr.Trace.enabled then
              Trace.span tr ~cat:"item" ~item:i ~counted:false "request" (fun () ->
                  let planned =
                    Trace.span tr ~self:"plan.self_s" ~item:i "plan:full" (fun () ->
                        Api.stage_plan ~planner_config:cfg a goal)
                  in
                  let o =
                    Trace.span tr ~self:"finalize.self_s" ~item:i "finalize" (fun () ->
                        Api.stage_finalize planned)
                  in
                  add_outcome tr o;
                  o)
            else Api.run_with_analysis ~planner_config:cfg a goal)
      in
      Oracle.record_plan ck ~key:(Inputs.request_key r) a.image r.goal o;
      (lat, cpu)
    in
    closed_loop tr ~setup_s ~setup_probe ~items ~max_wall step counts
  end

(* ----- serve-2c ----- *)

let out_dir = "bench/e2e/_out"

let ensure_out_dir () =
  try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let serve_request cfg image goal =
  { (Serve.default_request image) with
    Serve.rq_goal = goal;
    rq_max_plans = cfg.Planner.max_plans;
    rq_node_budget = cfg.Planner.node_budget;
    rq_time_budget = cfg.Planner.time_budget;
    rq_branch_cap = cfg.Planner.branch_cap;
    rq_goal_cap = cfg.Planner.goal_cap;
    rq_max_steps = cfg.Planner.max_steps }

(* Two closed-loop connections, never more than the host has cores. *)
let clients () = min 2 (Gp_util.Par.available ())

(* Replies are recomputed in-process from a cold state after the daemon
   has stopped, for the first [cold_samples] keys (every key in a traced
   pass): the plan-cold answer they must equal. *)
let cold_samples = 6

let serve_2c ~seed ~items ~max_wall ~setup_only tr ck =
  let cfg = Inputs.plan_config in
  let clients = clients () in
  ensure_out_dir ();
  let sock =
    Filename.concat out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))
  in
  let (stream, images, daemon, conns), setup_s, setup_probe =
    timed_setup (fun () ->
        let stream = Array.of_list (Inputs.serve_items ~seed) in
        let images =
          compile_cells tr ~seed
            (List.map (fun (r : Inputs.request) -> r.cell) (Array.to_list stream))
        in
        let daemon =
          Domain.spawn (fun () ->
              Serve.serve
                { (Serve.default_config ~socket:sock) with Serve.d_jobs = clients })
        in
        let rec connect tries =
          match Serve.Client.connect sock with
          | Ok c -> c
          | Error why ->
            if tries > 1000 then failwith ("serve-2c: daemon never came up: " ^ why);
            Unix.sleepf 0.005;
            connect (tries + 1)
        in
        (stream, images, daemon, Array.init clients (fun _ -> connect 0)))
  in
  let stop () =
    ignore (Serve.Client.shutdown conns.(0));
    Array.iter Serve.Client.close conns;
    ignore (Domain.join daemon)
  in
  let counts =
    [ ("stream", Array.length stream); ("images", Hashtbl.length images);
      ("clients", clients) ]
  in
  if setup_only then begin
    stop ();
    setup_result ~setup_s ~setup_probe counts
  end
  else begin
    let request_of i =
      let r = nth stream i in
      (r, serve_request cfg (Hashtbl.find images (Inputs.cell_key r.cell)) r.goal)
    in
    let gc0 = Gc.quick_stat () in
    let c0 = Trace.counters () in
    let t0 = now () in
    let request k i =
      let r, rq = request_of i in
      let reply, dt =
        Api.timed (fun () ->
            Trace.span tr ~cat:"item" ~item:i ~tid:(k + 1) ~counted:false "request"
              (fun () -> Serve.Client.submit conns.(k) rq))
      in
      (i, r, rq, reply, dt)
    in
    (* The clients go in rounds: each sends one request, all at once, and
       the round ends when every reply is in.  So a request always shares
       the daemon with the same others, whatever the timing.  The host is
       probed between rounds, while the daemon is idle, on as many domains
       as there are clients: a probe beside the daemon's domains would
       time their work and their collections, not the host. *)
    let rec rounds start served probes cpu_s =
      if start >= items || now () -. t0 >= max_wall then (served, probes, cpu_s)
      else begin
        let n = min clients (items - start) in
        let c = cpu () in
        let got =
          List.init n (fun k -> Domain.spawn (fun () -> request k (start + k)))
          |> List.map Domain.join
        in
        let cpu_s = cpu_s +. (cpu () -. c) in
        let p = Host.probes ~domains:clients 1 in
        rounds (start + n) (got @ served) (List.map (fun _ -> p) got @ probes) cpu_s
      end
    in
    let served, probes, cpu_s = rounds 0 [] [] 0. in
    List.iter
      (fun (k, v) -> Trace.add tr k (float v))
      (Trace.counter_deltas c0 (Trace.counters ()));
    end_of_phase tr gc0;
    stop ();
    let served = List.sort (fun (i, _, _, _, _) (j, _, _, _, _) -> compare i j) served in
    (* The first few keys answered (all, when traced) are recomputed cold
       in-process — the plan-cold answer — and their chains replayed in
       the emulator. *)
    let cold = Hashtbl.create 8 in
    List.iter
      (fun (_, (r : Inputs.request), _, reply, _) ->
        let key = Inputs.request_key r in
        if Result.is_ok reply
           && (tr.Trace.enabled || Hashtbl.length cold < cold_samples)
           && not (Hashtbl.mem cold key)
        then begin
          E.reset_world ();
          let image = Hashtbl.find images (Inputs.cell_key r.cell) in
          let o =
            Api.run ~planner_config:cfg ~ids:(Gadget.local_ids ()) image
              (Serve.goal_of_name r.goal)
          in
          Hashtbl.add cold key
            (Serve.report_of_outcome o, Oracle.plan_problems ck image r.goal o)
        end)
      served;
    (* Replies: the oracle, and counter drift — a reply whose counters
       differ from the first answer seen for its key (the cold one for
       sampled keys). *)
    let first_counters = Hashtbl.create 256 in
    Hashtbl.iter
      (fun k ((c : Serve.report), _) -> Hashtbl.add first_counters k c.sr_counters)
      cold;
    let drift = ref 0 in
    List.iter
      (fun (i, (r : Inputs.request), rq, reply, _) ->
        let key = Inputs.request_key r in
        match reply with
        | Error f ->
          Oracle.record ck ~key ~projection:("error:" ^ Fail.label f)
            [ "error reply: " ^ Fail.to_string f ]
        | Ok (rep : Serve.report) ->
          let vs_cold =
            match Hashtbl.find_opt cold key with
            | Some (c, problems) ->
              Hashtbl.remove cold key;
              problems
              @
              if Oracle.report_projection c <> Oracle.report_projection rep then
                [ "daemon reply differs from the cold in-process run" ]
              else []
            | None -> []
          in
          Oracle.record ck ~key ~projection:(Oracle.report_projection rep)
            (Oracle.report_problems rep @ vs_cold);
          (match Hashtbl.find_opt first_counters key with
          | None -> Hashtbl.add first_counters key rep.sr_counters
          | Some c -> if c <> rep.sr_counters then incr drift);
          if tr.Trace.enabled then begin
            add_plan_counters tr (fun k ->
                Option.value (List.assoc_opt k rep.sr_counters) ~default:0);
            Trace.add tr "serve.request_kb"
              (float (String.length (Serve.request_encode rq)) /. 1024.);
            Trace.span tr ~cat:"replay" ~self:"serve.codec_s" ~item:i ~counted:false
              "codec.replay" (fun () ->
                ignore (Serve.request_decode (Serve.request_encode rq) (ref 0));
                ignore (Serve.report_decode (Serve.report_encode rep) (ref 0)))
          end)
      served;
    Trace.set tr "serve.counter_drift" (float !drift);
    let n = List.length served in
    if n > 0 then
      Trace.set tr "serve.request_kb" (Trace.get tr "serve.request_kb" /. float n);
    { setup_s;
      setup_probe;
      latencies = List.map (fun (_, _, _, _, dt) -> dt) served;
      probes = List.rev probes;
      cpu_s;
      counts = counts @ [ ("counter_drift", !drift) ] }
  end

let run name =
  match name with
  | "scan-cold" -> scan_cold
  | "plan-cold" -> plan_cold
  | "plan-resident" -> plan_resident
  | "serve-2c" -> serve_2c
  | w -> invalid_arg ("unknown workload: " ^ w)
