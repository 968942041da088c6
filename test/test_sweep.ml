(* Pipelined corpus scheduler tests (DESIGN.md §14).  Four angles:

   - scheduler core properties: random step chains driven on the pool
     run every link exactly once, in chain order, and finish exactly
     once at 1-8 workers; random forests of chains that fan out from
     inside a step (disconnected components, dynamic growth) always
     complete and never run a node before its parent; a budget
     exhaustion escaping a step finishes
     the chain as a typed failure; the work-stealing deque obeys
     owner-LIFO / thief-FIFO semantics and loses nothing under
     concurrent pop/steal;
   - shared-state stress: the [Incr] summary table and the solver-memo
     [Cache] hammered from 4 domains over overlapping content keys —
     first-write-wins, no lost updates, counters that add up;
   - the acceptance differential: the pooled sweep at jobs 1, 2, and
     JOBS produces byte-identical encoded payloads to the sequential
     cell loop over the full quick survey corpus, including under 10%
     keyed fault injection (Faultsim's schedules are keyed, not
     streamed, so the injected fault set is interleaving-proof); a
     cell whose Full rung finds no chain climbs the degradation ladder
     and pays out exactly what [Api.run] returns;
   - crash/resume composed with the scheduler: kill a checkpointed
     scheduled sweep at the wal-append and mid-stage crash points,
     resume, and require byte-equality with the uninterrupted
     sequential reference (which an uninterrupted scheduled sweep must
     already match).

   JOBS sweeps the worker count (make check-sweep runs 1 and 4). *)

module Survey = Gp_harness.Survey
module S = Gp_harness.Sched
module R = Gp_harness.Runner

let jobs_under_test =
  match Sys.getenv_opt "JOBS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "gp-sweep-test-%d-%d" (Unix.getpid ()) !n)
    in
    Survey.rm_rf d;
    d

(* ----- deque semantics ----- *)

let test_deque_owner_lifo_thief_fifo () =
  let d = S.Deque.create () in
  List.iter (S.Deque.push d) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "length" 5 (S.Deque.length d);
  Alcotest.(check (option int)) "owner pops newest" (Some 5) (S.Deque.pop d);
  Alcotest.(check (option int)) "thief steals oldest" (Some 1)
    (S.Deque.steal d);
  Alcotest.(check (option int)) "owner again" (Some 4) (S.Deque.pop d);
  Alcotest.(check (option int)) "thief again" (Some 2) (S.Deque.steal d);
  Alcotest.(check (option int)) "last item either end" (Some 3)
    (S.Deque.pop d);
  Alcotest.(check (option int)) "empty pop" None (S.Deque.pop d);
  Alcotest.(check (option int)) "empty steal" None (S.Deque.steal d)

(* Owner pushes and pops while a thief steals: every pushed item comes
   out exactly once, whichever end it left by. *)
let test_deque_concurrent_conservation () =
  let d = S.Deque.create () in
  let n = 2000 in
  let stolen = ref [] in
  let thief =
    Domain.spawn (fun () ->
        let rec loop misses =
          if misses < 10_000 then
            match S.Deque.steal d with
            | Some x ->
              stolen := x :: !stolen;
              loop 0
            | None ->
              Domain.cpu_relax ();
              loop (misses + 1)
        in
        loop 0)
  in
  let popped = ref [] in
  for i = 1 to n do
    S.Deque.push d i;
    if i mod 3 = 0 then
      match S.Deque.pop d with
      | Some x -> popped := x :: !popped
      | None -> ()
  done;
  let rec drain () =
    match S.Deque.pop d with
    | Some x ->
      popped := x :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  Domain.join thief;
  (* the thief may still have missed a late push; drain once more *)
  drain ();
  let all = List.sort compare (!popped @ !stolen) in
  Alcotest.(check int) "nothing lost, nothing duplicated" n
    (List.length all);
  Alcotest.(check bool) "exactly the pushed set" true
    (all = List.init n (fun i -> i + 1))

(* ----- step chains on the pool ----- *)

(* Random chain shape: how many chains, and each one's length (0 = a
   chain that is already [Finished]), driven at a random worker count.
   Every link records itself; the chain's result is its own index. *)
let chains_gen =
  QCheck2.Gen.(pair (int_range 1 8) (list_size (int_range 0 12) (int_range 0 10)))

let run_chains ~jobs lengths =
  let lengths = Array.of_list lengths in
  let n = Array.length lengths in
  let m = Mutex.create () in
  let links = Array.make n [] in
  let finished = Array.make n [] in
  let sv = S.Service.start ~jobs in
  Array.iteri
    (fun c len ->
      let rec link i =
        if i = len then S.Finished c
        else
          S.Next
            (fun () ->
              Mutex.protect m (fun () -> links.(c) <- i :: links.(c));
              link (i + 1))
      in
      S.drive sv (link 0) ~finish:(fun r ->
          Mutex.protect m (fun () -> finished.(c) <- r :: finished.(c))))
    lengths;
  S.Service.stop sv;
  (lengths, Array.map List.rev links, finished)

let qcheck_chains_complete =
  QCheck2.Test.make ~count:120 ~name:"random step chains complete at 1-8 workers"
    chains_gen (fun (jobs, lengths) ->
      let lengths, links, finished = run_chains ~jobs lengths in
      let ok = ref true in
      Array.iteri
        (fun c len ->
          (* every link exactly once, in chain order; one finish *)
          ok :=
            !ok
            && links.(c) = List.init len Fun.id
            && finished.(c) = [ Ok c ])
        lengths;
      !ok)

(* Random forests grown on the pool: the graph shape the pool still
   runs without edges.  Node i has at most one parent, chosen among
   earlier nodes (no parent = a root, so disconnected components arise
   naturally).  Running a node continues its chain into its first child
   and drives every further child as a new chain from inside the step,
   the way the daemon resubmits continuations.  Each chain ends at a
   leaf and finishes with that leaf's index. *)
let forest_gen =
  QCheck2.Gen.(
    pair (int_range 1 8) (list_size (int_range 0 30) (option (int_bound 1000))))

let parents_of_shape shape =
  List.mapi
    (fun i raw ->
      match raw with Some p when i > 0 -> Some (p mod i) | _ -> None)
    shape

let run_forest ~jobs shape =
  let parents = Array.of_list (parents_of_shape shape) in
  let n = Array.length parents in
  let children = Array.make n [] in
  for i = n - 1 downto 0 do
    Option.iter (fun p -> children.(p) <- i :: children.(p)) parents.(i)
  done;
  let m = Mutex.create () in
  let order = ref [] in
  let finished = ref [] in
  let sv = S.Service.start ~jobs in
  let finish r = Mutex.protect m (fun () -> finished := r :: !finished) in
  let rec node i =
    S.Next
      (fun () ->
        Mutex.protect m (fun () -> order := i :: !order);
        match children.(i) with
        | [] -> S.Finished i
        | first :: rest ->
            List.iter (fun c -> S.drive sv (node c) ~finish) rest;
            node first)
  in
  Array.iteri (fun i p -> if p = None then S.drive sv (node i) ~finish) parents;
  S.Service.stop sv;
  (parents, children, List.rev !order, !finished)

let qcheck_forest_completes =
  QCheck2.Test.make ~count:120 ~name:"random DAGs complete at 1-8 workers"
    forest_gen (fun (jobs, shape) ->
      let parents, children, order, finished = run_forest ~jobs shape in
      let n = Array.length parents in
      let leaves =
        List.filter (fun i -> children.(i) = []) (List.init n Fun.id)
      in
      (* every node exactly once; one finish per chain, i.e. per leaf *)
      List.sort compare order = List.init n Fun.id
      && List.sort compare finished = List.map (fun l -> Ok l) leaves)

let qcheck_forest_respects_parents =
  QCheck2.Test.make ~count:120
    ~name:"no node runs before its predecessors" forest_gen
    (fun (jobs, shape) ->
      let parents, _, order, _ = run_forest ~jobs shape in
      let pos = Hashtbl.create 16 in
      List.iteri (fun at i -> Hashtbl.replace pos i at) order;
      let ok = ref true in
      Array.iteri
        (fun i p ->
          Option.iter
            (fun p -> ok := !ok && Hashtbl.find pos p < Hashtbl.find pos i)
            p)
        parents;
      !ok)

let test_drive_budget_exhausted () =
  let sv = S.Service.start ~jobs:jobs_under_test in
  let got = ref [] in
  S.drive sv
    (S.Next
       (fun () ->
         S.Next
           (fun () ->
             raise (Gp_core.Budget.Exhausted ("cell:x", Gp_core.Budget.Fuel)))))
    ~finish:(fun r -> got := r :: !got);
  S.Service.stop sv;
  match !got with
  | [ Error (Gp_core.Fail.Budget_exhausted ("cell:x", `Fuel)) ] -> ()
  | [ Error f ] -> Alcotest.failf "wrong failure: %s" (Gp_core.Fail.to_string f)
  | _ -> Alcotest.fail "the chain must finish exactly once, with an error"

let qcheck_deque_steal_order =
  (* thief-FIFO: stealing k times from a freshly pushed deque yields
     the oldest k items in push order; the owner's pops then resume
     LIFO on what's left *)
  QCheck2.Test.make ~count:200 ~name:"deque owner-LIFO / thief-FIFO"
    QCheck2.Gen.(pair (int_range 0 20) (int_range 0 20))
    (fun (npush, nsteal) ->
      let d = S.Deque.create () in
      for i = 1 to npush do
        S.Deque.push d i
      done;
      let stolen = List.init (min nsteal npush) (fun _ -> S.Deque.steal d) in
      let expected_stolen =
        List.init (min nsteal npush) (fun i -> Some (i + 1))
      in
      let rec pops acc =
        match S.Deque.pop d with
        | Some x -> pops (x :: acc)
        | None -> List.rev acc
      in
      let popped = pops [] in
      let expected_popped =
        (* remaining items, newest first *)
        List.init (npush - min nsteal npush) (fun i -> npush - i)
      in
      stolen = expected_stolen && popped = expected_popped)

(* ----- shared-state stress from 4 domains ----- *)

let test_incr_table_stress () =
  Survey.reset_world ();
  let nkeys = 50 in
  let key i = Printf.sprintf "stress-image-%02d" i in
  let value i = { Gp_core.Incr.v_starts = i; v_records = [] } in
  let domains =
    List.init 4 (fun w ->
        Domain.spawn (fun () ->
            (* every domain walks ALL keys, offset so lookups and
               inserts of the same key collide across domains *)
            for round = 0 to 40 do
              for j = 0 to nkeys - 1 do
                let i = (j + (w * 13) + round) mod nkeys in
                match Gp_core.Incr.find (key i) with
                | Some v -> assert (v = value i)
                | None -> Gp_core.Incr.add (key i) (value i)
              done
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost updates, no phantom keys" nkeys
    (Gp_core.Incr.size ());
  for i = 0 to nkeys - 1 do
    match Gp_core.Incr.find (key i) with
    | Some v -> Alcotest.(check bool) (key i) true (v = value i)
    | None -> Alcotest.fail (key i ^ " lost")
  done;
  Survey.reset_world ()

let test_cache_stress () =
  (* [Gp_smt.Cache] is the implementation under every solver memo
     (check/equal/pool); hammer a fresh instance the way planner
     workers hammer those *)
  let c : (int, int) Gp_smt.Cache.t = Gp_smt.Cache.create () in
  let nkeys = 100 in
  let per_domain = 5000 in
  let computed = Atomic.make 0 in
  let domains =
    List.init 4 (fun w ->
        Domain.spawn (fun () ->
            for k = 0 to per_domain - 1 do
              let key = (k + (w * 31)) mod nkeys in
              let v =
                Gp_smt.Cache.find_or_add c key (fun () ->
                    Atomic.incr computed;
                    key * 7)
              in
              assert (v = key * 7)
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "every key present once" nkeys
    (Gp_smt.Cache.length c);
  (* counter determinism: every lookup was either a hit or a miss *)
  Alcotest.(check int) "hits + misses = lookups" (4 * per_domain)
    (Gp_smt.Cache.hits c + Gp_smt.Cache.misses c);
  (* first-write-wins may duplicate a compute under a race, but never
     more than once per racing domain *)
  Alcotest.(check bool) "computes bounded" true
    (Atomic.get computed >= nkeys && Atomic.get computed <= 4 * nkeys)

(* ----- the acceptance differential ----- *)

let goal = Gp_core.Goal.Execve "/bin/sh"

let sweep_payloads outcomes =
  List.map
    (fun (c : Survey.resume_payload R.cell_outcome) ->
      match c.R.c_result with
      | Ok p -> (c.R.c_key, Survey.resume_payload_encode p)
      | Error f -> (c.R.c_key, "FAIL:" ^ Gp_core.Fail.label f))
    outcomes

let sequential_reference cells =
  Survey.reset_world ();
  let outcomes, _ =
    R.run_corpus ~encode:Survey.resume_payload_encode
      ~decode:Survey.resume_payload_decode (Survey.sweep_cells_sequential cells)
  in
  sweep_payloads outcomes

let scheduled ~jobs cells =
  Survey.reset_world ();
  let outcomes, report =
    S.run_cells ~encode:Survey.resume_payload_encode
      ~decode:Survey.resume_payload_decode ~jobs cells
  in
  (sweep_payloads outcomes, report)

(* The pooled sweep at jobs 1, 2, and JOBS equals the sequential cell loop byte
   for byte over the full quick survey corpus (4 programs x 3 configs,
   tigress included). *)
let test_differential_sweep () =
  let cells = Survey.sweep_cell_steps ~goal Survey.quick_grid in
  let reference = sequential_reference cells in
  Alcotest.(check int) "full quick grid" 12 (List.length reference);
  Alcotest.(check bool) "no failed cells in reference" true
    (List.for_all
       (fun (_, p) -> not (String.length p >= 5 && String.sub p 0 5 = "FAIL:"))
       reference);
  List.iter
    (fun j ->
      let got, report = scheduled ~jobs:j cells in
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d: byte-identical to sequential loop" j)
        true (got = reference);
      Alcotest.(check int)
        (Printf.sprintf "jobs %d: everything computed" j)
        (List.length reference) report.R.r_computed)
    (List.sort_uniq compare [ 1; 2; jobs_under_test ])

(* Same differential under 10% keyed fault injection: Faultsim's
   decode/solver/mem schedules are keyed on content, not streamed, so
   the injected fault set — and therefore every payload — must be
   interleaving-invariant too. *)
let test_differential_under_injection () =
  let cells =
    Survey.sweep_cell_steps ~goal
      { Survey.quick_grid with
        entries = [ Gp_corpus.Programs.find "fibonacci" ] }
  in
  let cfg = Gp_harness.Faultsim.uniform ~seed:11 0.1 in
  Gp_harness.Faultsim.with_faults cfg (fun () ->
      let reference = sequential_reference cells in
      Alcotest.(check int) "one program, all configs" 3
        (List.length reference);
      let got, report = scheduled ~jobs:jobs_under_test cells in
      Alcotest.(check bool) "injected sweep byte-identical" true
        (got = reference);
      Alcotest.(check int) "every cell terminated" 3
        (report.R.r_computed + List.length report.R.r_failed))

(* A survey cell whose Full rung finds no chain climbs the degradation
   ladder exactly as the CLI does.  The emulator refuses an mprotect of
   an unaligned address, so no rung can validate a chain: the payload
   must record all four rungs and equal the payload built from
   [Api.run] on the same image, planner limits and goal — driven inline
   and on the pool at JOBS workers. *)
let test_cells_climb_the_ladder () =
  let entry = Gp_corpus.Programs.find "fibonacci" in
  let goal = Gp_core.Goal.Mprotect (0x1001L, 0x1000L, 7L) in
  let cells =
    Survey.sweep_cell_steps ~goal
      { Survey.entries = [ entry ]; configs = [ ("original", Gp_obf.Obf.none) ] }
  in
  Survey.reset_world ();
  let o =
    Gp_core.Api.run
      ~planner_config:
        { Gp_core.Planner.default_config with
          Gp_core.Planner.node_budget = 1200; max_plans = 6 }
      ~ids:(Gp_core.Gadget.local_ids ())
      (Gp_codegen.Pipeline.compile
         ~transform:(Gp_obf.Obf.transform Gp_obf.Obf.none)
         entry.Gp_corpus.Programs.source)
      goal
  in
  let expected =
    { Survey.rp_program = "fibonacci";
      rp_config = "original";
      rp_pool = o.Gp_core.Api.stats.Gp_core.Api.pool_size;
      rp_chains = List.map Gp_core.Payload.chain_set_key o.Gp_core.Api.chains;
      rp_rungs = List.map Gp_core.Api.rung_name o.Gp_core.Api.rungs;
      rp_counters = Gp_core.Api.invariant_counters o }
  in
  Alcotest.(check (list string)) "Api.run climbs every rung"
    [ "full"; "dedup-only"; "wider-branch"; "relaxed-steps" ]
    expected.Survey.rp_rungs;
  let reference =
    [ ("fibonacci/original", Survey.resume_payload_encode expected) ]
  in
  Alcotest.(check bool) "inline cell == Api.run" true
    (sequential_reference cells = reference);
  Alcotest.(check bool)
    (Printf.sprintf "pooled cell (jobs %d) == Api.run" jobs_under_test)
    true
    (fst (scheduled ~jobs:jobs_under_test cells) = reference)

(* ----- crash/resume composed with the scheduler ----- *)

(* The acceptance differential of the crash-safe sweep (DESIGN.md §13):
   kill a checkpointed scheduled sweep at each injected durability
   point, resume it in a fresh world, and require the resumed sweep's
   encoded payloads to equal the uninterrupted sequential reference
   byte for byte. *)

let crash_cells () =
  Survey.sweep_cell_steps ~goal
    { Survey.entries = [ Gp_corpus.Programs.find "fibonacci" ];
      configs =
        List.filter
          (fun (n, _) -> n = "original" || n = "tigress")
          Gp_harness.Workspace.obf_configs }

let sequential_run ~manifest ~resume =
  R.run_corpus ~manifest ~resume ~encode:Survey.resume_payload_encode
    ~decode:Survey.resume_payload_decode
    (Survey.sweep_cells_sequential (crash_cells ()))

let scheduled_run ~jobs ~manifest ~resume =
  S.run_cells ~manifest ~resume ~encode:Survey.resume_payload_encode
    ~decode:Survey.resume_payload_decode ~jobs (crash_cells ())

let check_sched_crash_resume jobs () =
  (* uninterrupted references: the sequential loop and the scheduler
     must already agree *)
  let seqdir = tmp_dir () in
  Survey.reset_world ();
  let so, _ = Survey.sweep ~dir:seqdir ~resume:false sequential_run in
  let reference = sweep_payloads so in
  Survey.rm_rf seqdir;
  Alcotest.(check int) "reference covers the grid" 2 (List.length reference);
  let refdir = tmp_dir () in
  Survey.reset_world ();
  let ro, _ = Survey.sweep ~dir:refdir ~resume:false (scheduled_run ~jobs) in
  Survey.rm_rf refdir;
  Alcotest.(check bool) "scheduled == sequential, uninterrupted" true
    (sweep_payloads ro = reference);
  List.iter
    (fun (point, hits) ->
      let dir = tmp_dir () in
      Survey.reset_world ();
      let crashed =
        match
          Gp_harness.Faultsim.with_crash_at ~hits ~point (fun () ->
              Survey.sweep ~dir ~resume:false (scheduled_run ~jobs))
        with
        | Ok _ -> false
        | Error p ->
          Alcotest.(check string) "died at the armed point" point p;
          true
      in
      Alcotest.(check bool) (point ^ ": fuse fired") true crashed;
      Survey.reset_world ();
      let ro2, report = Survey.sweep ~dir ~resume:true (scheduled_run ~jobs) in
      Alcotest.(check bool)
        (Printf.sprintf "%s (jobs %d): resume == uninterrupted" point jobs)
        true
        (sweep_payloads ro2 = reference);
      Alcotest.(check int)
        (point ^ ": resume covers everything")
        2
        (report.R.r_resumed + report.R.r_computed);
      Survey.rm_rf dir)
    (* the second manifest append: one cell is durable, the other lost *)
    [ ("wal-append", 2); ("mid-stage", 2) ]

let suite =
  [ Alcotest.test_case "deque owner-LIFO thief-FIFO" `Quick
      test_deque_owner_lifo_thief_fifo;
    Alcotest.test_case "deque concurrent conservation" `Quick
      test_deque_concurrent_conservation;
    QCheck_alcotest.to_alcotest qcheck_chains_complete;
    QCheck_alcotest.to_alcotest qcheck_forest_completes;
    QCheck_alcotest.to_alcotest qcheck_forest_respects_parents;
    Alcotest.test_case "drive: budget exhaustion is a failure" `Quick
      test_drive_budget_exhausted;
    QCheck_alcotest.to_alcotest qcheck_deque_steal_order;
    Alcotest.test_case "Incr table stress (4 domains)" `Quick
      test_incr_table_stress;
    Alcotest.test_case "solver-memo cache stress (4 domains)" `Quick
      test_cache_stress;
    Alcotest.test_case
      (Printf.sprintf "differential sweep (jobs %d)" jobs_under_test)
      `Slow test_differential_sweep;
    Alcotest.test_case "differential under 10% injection" `Slow
      test_differential_under_injection;
    Alcotest.test_case "survey cells climb the ladder" `Slow
      test_cells_climb_the_ladder;
    Alcotest.test_case
      (Printf.sprintf "crash/resume with scheduler (jobs %d)" jobs_under_test)
      `Slow
      (check_sched_crash_resume jobs_under_test) ]
