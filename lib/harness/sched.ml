(* Corpus-level pipelined scheduler (DESIGN.md §14).

   A survey sweep is a product of (program x config) CELLS, each a
   four-stage pipeline.  [Par] parallelizes within one stage of one
   cell, but the sweep itself was a sequential cell loop: extract-heavy
   cells left the solver domains idle and solver-heavy cells left the
   decoder idle.  This module schedules the whole corpus as a task DAG
   — nodes are (cell x stage) units of work, edges are the stage order
   within a cell — executed by one shared domain pool with per-worker
   deques and work stealing, so stage 3 of cell A overlaps stage 1 of
   cell B instead of fencing at every stage boundary.

   Determinism contract: the scheduler moves WHEN work runs, never what
   it computes.  Each cell draws gadget ids from its own local source,
   compiles are pure functions of (source, config) (Obf.apply resets
   the pass counters), and every cross-cell shared table — the [Incr]
   summary table, the solver memos — is first-write-wins over
   content-addressed keys whose values are deterministic, so a hit
   returns the same bytes whichever cell populated the entry.  Cell
   payloads are therefore bit-identical at any job count, including
   jobs = 1 and the sequential reference loop ([Runner.run_corpus]).

   [Faultsim.Crashed] is never caught: simulated process death aborts
   the pool (workers stop claiming, every domain is joined) and then
   unwinds out of [run], exactly like the sequential sweep. *)

open Gp_core

(* ----- work-stealing deque ----- *)

(* Owner pushes and pops at the BOTTOM (newest first: LIFO keeps a
   cell's next stage hot on the worker that just produced its input);
   thieves steal from the TOP (oldest first: FIFO steals the work the
   owner would get to last, typically another cell's opening stage).
   Mutex-guarded list, head = bottom: node counts are small (cells x
   stages), so O(n) steal never shows up next to stage runtimes. *)
module Deque = struct
  type 'a t = { m : Mutex.t; mutable items : 'a list }

  let create () = { m = Mutex.create (); items = [] }
  let push d x = Mutex.protect d.m (fun () -> d.items <- x :: d.items)

  let pop d =
    Mutex.protect d.m (fun () ->
        match d.items with
        | [] -> None
        | x :: tl ->
          d.items <- tl;
          Some x)

  let steal d =
    Mutex.protect d.m (fun () ->
        match d.items with
        | [] -> None
        | [ x ] ->
          d.items <- [];
          Some x
        | items ->
          let rec split acc = function
            | [ oldest ] -> (List.rev acc, oldest)
            | x :: tl -> split (x :: acc) tl
            | [] -> assert false
          in
          let rest, oldest = split [] items in
          d.items <- rest;
          Some oldest)

  let length d = Mutex.protect d.m (fun () -> List.length d.items)
end

(* ----- task DAG ----- *)

module Dag = struct
  type state = Waiting | Ready | Done

  type node = {
    n_id : int;
    n_label : string;
    n_fn : unit -> unit;
    mutable n_deps : int;       (* unfinished predecessors *)
    mutable n_succs : int list; (* reverse creation order *)
    mutable n_state : state;
  }

  (* Live only while [run] is active: the deques and the domain ->
     worker-index map, so [node] called from inside a running node can
     hand a ready task to the creating worker's own deque. *)
  type run_state = {
    rs_deques : int Deque.t array;
    rs_m : Mutex.t;
    rs_assign : (int, int) Hashtbl.t; (* Domain id -> worker index *)
  }

  type t = {
    g_m : Mutex.t; (* guards g_nodes, g_next, g_failed, node fields *)
    g_nodes : (int, node) Hashtbl.t;
    mutable g_next : int;
    g_outstanding : int Atomic.t; (* nodes not yet Done *)
    g_abort : bool Atomic.t;
    mutable g_failed : (int * exn) list;
    mutable g_run : run_state option;
  }

  let create () =
    { g_m = Mutex.create ();
      g_nodes = Hashtbl.create 64;
      g_next = 0;
      g_outstanding = Atomic.make 0;
      g_abort = Atomic.make false;
      g_failed = [];
      g_run = None }

  let node_count t = Mutex.protect t.g_m (fun () -> Hashtbl.length t.g_nodes)

  let worker_index rs =
    Mutex.protect rs.rs_m (fun () ->
        match Hashtbl.find_opt rs.rs_assign (Domain.self () :> int) with
        | Some w -> w
        | None -> 0)

  (* Add a node.  [after] may only name EXISTING node ids, so the graph
     is acyclic by construction — an edge always points from an earlier
     creation to a later one.  Calling this from inside a running node
     is the supported way to grow the graph dynamically (the cell
     pipeline chains each stage as it learns the next); a node created
     ready during a run goes straight onto the creating worker's deque,
     where owner-LIFO order runs it next. *)
  let node t ?(after = []) ?(label = "") (fn : unit -> unit) : int =
    let id, ready_now =
      Mutex.protect t.g_m (fun () ->
          let id = t.g_next in
          t.g_next <- t.g_next + 1;
          let deps =
            List.fold_left
              (fun acc p ->
                match Hashtbl.find_opt t.g_nodes p with
                | Some pn when pn.n_state <> Done ->
                  pn.n_succs <- id :: pn.n_succs;
                  acc + 1
                | Some _ -> acc
                | None -> invalid_arg "Sched.Dag.node: unknown predecessor")
              0 after
          in
          let n =
            { n_id = id;
              n_label = label;
              n_fn = fn;
              n_deps = deps;
              n_succs = [];
              n_state = (if deps = 0 then Ready else Waiting) }
          in
          Hashtbl.replace t.g_nodes id n;
          Atomic.incr t.g_outstanding;
          (id, n.n_state = Ready))
    in
    (match t.g_run with
    | Some rs when ready_now ->
      Deque.push rs.rs_deques.(worker_index rs) id
    | _ -> ());
    id

  let label t id =
    Mutex.protect t.g_m (fun () ->
        match Hashtbl.find_opt t.g_nodes id with
        | Some n -> n.n_label
        | None -> "")

  (* Mark [id] done and ready its unblocked successors onto worker
     [w]'s deque (locality: the finishing worker just built their
     input).  The outstanding counter is decremented LAST so it can
     only reach zero when no successor is still being readied. *)
  let complete t rs w id =
    let ready =
      Mutex.protect t.g_m (fun () ->
          let n = Hashtbl.find t.g_nodes id in
          n.n_state <- Done;
          List.filter_map
            (fun sid ->
              let sn = Hashtbl.find t.g_nodes sid in
              sn.n_deps <- sn.n_deps - 1;
              if sn.n_deps = 0 && sn.n_state = Waiting then begin
                sn.n_state <- Ready;
                Some sid
              end
              else None)
            (List.rev n.n_succs))
    in
    List.iter (fun sid -> Deque.push rs.rs_deques.(w) sid) ready;
    Atomic.decr t.g_outstanding

  (* One worker: drain own deque bottom-first, then steal round-robin
     from the others top-first.  When the graph is busy but nothing is
     claimable (a predecessor is mid-run on another domain), spin
     briefly, then back off into short sleeps: a sleeping domain sits
     in a blocking section — GC-safe and off the core — so on an
     oversubscribed host the workers that HAVE work get the
     timeslices instead of idle ones burning them.  Exit when every
     node is done or a sibling aborted. *)
  let rec worker t rs w ~idle =
    if Atomic.get t.g_abort then ()
    else begin
      let task =
        match Deque.pop rs.rs_deques.(w) with
        | Some id -> Some id
        | None ->
          let jobs = Array.length rs.rs_deques in
          let rec scan k =
            if k >= jobs then None
            else
              match Deque.steal rs.rs_deques.((w + k) mod jobs) with
              | Some id -> Some id
              | None -> scan (k + 1)
          in
          scan 1
      in
      match task with
      | Some id ->
        let n = Mutex.protect t.g_m (fun () -> Hashtbl.find t.g_nodes id) in
        (match n.n_fn () with
        | () -> complete t rs w id
        | exception e ->
          Mutex.protect t.g_m (fun () ->
              t.g_failed <- (id, e) :: t.g_failed);
          Atomic.set t.g_abort true);
        worker t rs w ~idle:0
      | None ->
        if Atomic.get t.g_outstanding = 0 then ()
        else begin
          if idle < 100 then Domain.cpu_relax ()
          else Unix.sleepf (Float.min 0.002 (0.0001 *. float_of_int (idle - 99)));
          worker t rs w ~idle:(idle + 1)
        end
    end

  (* Execute until every node is done or a node fails.  [jobs] is the
     worker count (the calling domain is worker 0) and is deliberately
     NOT clamped to the core count: correctness may not depend on
     real parallelism, so oversubscribed workers — timesliced by the
     OS — must produce the same results, and tests exercise exactly
     that.  On failure: stop claiming work, join every domain, then
     re-raise the exception of the lowest-numbered failed node
     (deterministic whichever worker hit it first). *)
  let run ?(jobs = 1) t =
    let jobs = max 1 jobs in
    let rs =
      { rs_deques = Array.init jobs (fun _ -> Deque.create ());
        rs_m = Mutex.create ();
        rs_assign = Hashtbl.create 8 }
    in
    (* Seed: distribute the initially ready nodes round-robin in id
       order, each deque's batch pushed in reverse so the owner pops
       its lowest id first. *)
    let ready0 =
      Mutex.protect t.g_m (fun () ->
          Hashtbl.fold
            (fun id n acc -> if n.n_state = Ready then id :: acc else acc)
            t.g_nodes []
          |> List.sort compare)
    in
    let batches = Array.make jobs [] in
    List.iteri
      (fun i id -> batches.(i mod jobs) <- id :: batches.(i mod jobs))
      ready0;
    Array.iteri
      (fun w batch -> List.iter (fun id -> Deque.push rs.rs_deques.(w) id) batch)
      batches;
    t.g_run <- Some rs;
    let register w =
      Mutex.protect rs.rs_m (fun () ->
          Hashtbl.replace rs.rs_assign (Domain.self () :> int) w)
    in
    (* Same hardening as Par.run: keep every successful spawn, always
       join every domain, degrade to fewer workers if a spawn fails. *)
    let spawned = ref [] in
    (try
       for w = 1 to jobs - 1 do
         spawned :=
           Domain.spawn (fun () ->
               register w;
               worker t rs w ~idle:0)
           :: !spawned
       done
     with _ -> ());
    register 0;
    let caller_exn = (try worker t rs 0 ~idle:0; None with e -> Some e) in
    let join_exns =
      List.filter_map
        (fun d -> try Domain.join d; None with e -> Some e)
        !spawned
    in
    t.g_run <- None;
    let failed =
      Mutex.protect t.g_m (fun () -> List.sort compare t.g_failed)
    in
    match failed with
    | (_, e) :: _ -> raise e
    | [] -> (
      match caller_exn with
      | Some e -> raise e
      | None -> (match join_exns with e :: _ -> raise e | [] -> ()))
end

(* ----- persistent worker pool: the daemon's execution substrate ----- *)

(* [Dag.run] is a batch construct: workers exit when the outstanding
   count hits zero, which for a daemon is just "between requests".
   [Service] keeps the same deques, stealing discipline and idle
   backoff, but workers park until an explicit [stop] — the resident
   pool requests are dispatched onto (DESIGN.md §15).

   Failure discipline differs from the batch DAG on purpose: a request
   handler owns its errors (it catches everything and turns it into an
   error response — one poisoned request must not kill the daemon), so
   any exception that still reaches a worker is by definition fatal to
   the process ([Faultsim.Crashed], or a handler bug).  The first one
   is kept, the pool stops, and [check]/[stop] re-raise it on the
   daemon's main loop — where the journal teardown lives, exactly like
   a crashed sweep. *)
module Service = struct
  type t = {
    sv_deques : (unit -> unit) Deque.t array;
    sv_m : Mutex.t;
    sv_assign : (int, int) Hashtbl.t; (* Domain id -> worker index *)
    sv_stop : bool Atomic.t;
    sv_fatal : exn option Atomic.t;   (* first fatal exception, kept *)
    sv_pending : int Atomic.t;        (* submitted, not yet finished *)
    sv_rr : int Atomic.t;             (* round-robin for outside submits *)
    mutable sv_domains : unit Domain.t list;
  }

  let jobs sv = Array.length sv.sv_deques
  let pending sv = Atomic.get sv.sv_pending

  let worker_index_opt sv =
    Mutex.protect sv.sv_m (fun () ->
        Hashtbl.find_opt sv.sv_assign (Domain.self () :> int))

  (* Queue one task.  From a worker domain it lands on that worker's
     own deque (owner-LIFO keeps a request's next stage hot, thieves
     take other requests' opening stages from the top — the same
     pipelining as [Dag.node] during a run); from any other domain
     (the daemon's accept loop) tasks are spread round-robin. *)
  let submit sv (fn : unit -> unit) =
    Atomic.incr sv.sv_pending;
    let w =
      match worker_index_opt sv with
      | Some w -> w
      | None -> Atomic.fetch_and_add sv.sv_rr 1 mod jobs sv
    in
    Deque.push sv.sv_deques.(w) fn

  let fatal sv e =
    ignore (Atomic.compare_and_set sv.sv_fatal None (Some e));
    Atomic.set sv.sv_stop true

  let rec worker sv w ~idle =
    if Atomic.get sv.sv_fatal <> None then ()
    else begin
      let task =
        match Deque.pop sv.sv_deques.(w) with
        | Some fn -> Some fn
        | None ->
          let jobs = Array.length sv.sv_deques in
          let rec scan k =
            if k >= jobs then None
            else
              match Deque.steal sv.sv_deques.((w + k) mod jobs) with
              | Some fn -> Some fn
              | None -> scan (k + 1)
          in
          scan 1
      in
      match task with
      | Some fn ->
        (match fn () with
        | () -> ()
        | exception e -> fatal sv e);
        Atomic.decr sv.sv_pending;
        worker sv w ~idle:0
      | None ->
        if Atomic.get sv.sv_stop && Atomic.get sv.sv_pending = 0 then ()
        else begin
          (* same spin-then-sleep backoff as [Dag.worker]: parked
             daemon workers must not burn the cores the active ones
             need *)
          if idle < 100 then Domain.cpu_relax ()
          else Unix.sleepf (Float.min 0.002 (0.0001 *. float_of_int (idle - 99)));
          worker sv w ~idle:(idle + 1)
        end
    end

  let start ~jobs:n =
    let n = max 1 n in
    let sv =
      { sv_deques = Array.init n (fun _ -> Deque.create ());
        sv_m = Mutex.create ();
        sv_assign = Hashtbl.create 8;
        sv_stop = Atomic.make false;
        sv_fatal = Atomic.make None;
        sv_pending = Atomic.make 0;
        sv_rr = Atomic.make 0;
        sv_domains = [] }
    in
    (* Unlike [Dag.run] the caller is NOT a worker: the daemon's main
       domain stays in its accept/select loop.  Same spawn hardening —
       keep every successful spawn, degrade to fewer workers. *)
    (try
       for w = 0 to n - 1 do
         sv.sv_domains <-
           Domain.spawn (fun () ->
               Mutex.protect sv.sv_m (fun () ->
                   Hashtbl.replace sv.sv_assign (Domain.self () :> int) w);
               worker sv w ~idle:0)
           :: sv.sv_domains
       done
     with _ -> ());
    sv

  let check sv =
    match Atomic.get sv.sv_fatal with Some e -> raise e | None -> ()

  (* Drain and join.  Queued work still runs (a shutdown request must
     not drop in-flight analyses) unless a fatal exception already
     stopped the pool; the fatal exception, if any, is re-raised after
     every domain is joined. *)
  let stop sv =
    Atomic.set sv.sv_stop true;
    List.iter
      (fun d -> try Domain.join d with e -> fatal sv e)
      sv.sv_domains;
    sv.sv_domains <- [];
    check sv
end

(* ----- staged cells: the corpus pipeline on the DAG ----- *)

(* A cell's work as a chain of resumable steps.  Each [Next] becomes
   its own DAG node, so the scheduler can interleave one cell's plan
   stage with another's extract stage on the shared pool. *)
type 'a step =
  | Finished of ('a, Fail.t) result
  | Next of string * (unit -> 'a step)

let watchdog (policy : Runner.retry_policy) key =
  match policy.attempt_seconds with
  | Some s -> Budget.create ~label:("cell:" ^ key) ~seconds:s ()
  | None -> Budget.unlimited ~label:("cell:" ^ key) ()

(* [Runner.run_corpus] semantics on the DAG: same resume replay, same
   per-attempt watchdog budgets, same transient/permanent retry ladder
   with the same deterministic backoff schedule, same
   manifest-record-then-journal-checkpoint commit (serialized under one
   mutex so concurrent cells' WAL appends never interleave a commit).
   A retried cell restarts from its FIRST stage with a fresh watchdog,
   exactly like the sequential runner. *)
let run_cells ?(policy = Runner.default_policy) ?manifest ?(resume = false)
    ~(encode : 'a -> string) ~(decode : string -> 'a) ~jobs
    (cells : (string * (attempt:int -> Budget.t -> 'a step)) list) :
    'a Runner.cell_outcome list * Runner.report =
  let n = List.length cells in
  let outcomes : 'a Runner.cell_outcome option array = Array.make n None in
  let commit_m = Mutex.create () in
  let dag = Dag.create () in
  let commit key v =
    Mutex.protect commit_m (fun () ->
        (match manifest with
        | Some m -> Runner.Manifest.record m ~key ~payload:(encode v)
        | None -> ());
        if Incr.journaling () then ignore (Incr.journal_checkpoint ()))
  in
  (* All of [step_run] executes INSIDE a node fn on some worker; each
     [Next] continuation becomes a fresh ready node on that worker's
     deque, where owner-LIFO order keeps the cell flowing while thieves
     take other cells' opening stages from the top. *)
  let rec step_run idx key sc ~attempt b (thunk : unit -> 'a step) =
    let step =
      match thunk () with
      | s -> s
      | exception Budget.Exhausted (label, reason) ->
        (* the attempt watchdog fired past a stage boundary: transient,
           like the sequential runner *)
        Finished
          (Error
             (Fail.Budget_exhausted
                ( label,
                  match reason with
                  | Budget.Deadline -> `Time
                  | Budget.Fuel -> `Fuel )))
    in
    match step with
    | Next (stage, k) ->
      ignore
        (Dag.node dag ~label:(key ^ "/" ^ stage) (fun () ->
             step_run idx key sc ~attempt b k))
    | Finished (Ok v) ->
      commit key v;
      outcomes.(idx) <-
        Some
          { Runner.c_key = key; c_result = Ok v; c_retries = attempt - 1;
            c_resumed = false }
    | Finished (Error f) ->
      if Fail.retryable f && attempt < policy.Runner.max_attempts then
        attempt_node idx key sc ~attempt:(attempt + 1)
      else
        outcomes.(idx) <-
          Some
            { Runner.c_key = key; c_result = Error f;
              c_retries = attempt - 1; c_resumed = false }
  and attempt_node idx key sc ~attempt =
    ignore
      (Dag.node dag ~label:(Printf.sprintf "%s#%d" key attempt) (fun () ->
           (* the backoff sleep for the PREVIOUS attempt's failure,
              then a fresh watchdog whose clock starts now — when the
              attempt actually begins, not when it was scheduled *)
           if attempt > 1 then
             !Runner.sleep_hook
               (Runner.backoff_delay policy ~key ~attempt:(attempt - 1));
           let b = watchdog policy key in
           step_run idx key sc ~attempt b (fun () -> sc ~attempt b)))
  in
  List.iteri
    (fun idx (key, sc) ->
      let replay =
        if resume then
          match manifest with
          | Some m -> (
            match Runner.Manifest.find m key with
            | Some e -> Some e.Runner.Manifest.e_payload
            | None -> None)
          | None -> None
        else None
      in
      match replay with
      | Some payload ->
        outcomes.(idx) <-
          Some
            { Runner.c_key = key; c_result = Ok (decode payload);
              c_retries = 0; c_resumed = true }
      | None -> attempt_node idx key sc ~attempt:1)
    cells;
  Dag.run ~jobs dag;
  let outcomes =
    Array.to_list
      (Array.map
         (function
           | Some o -> o
           | None ->
             (* unreachable: every non-replayed chain ends by writing
                its slot, and Dag.run re-raises on any failed node *)
             assert false)
         outcomes)
  in
  let computed =
    List.length
      (List.filter
         (fun o ->
           (not o.Runner.c_resumed) && Result.is_ok o.Runner.c_result)
         outcomes)
  in
  let resumed = List.length (List.filter (fun o -> o.Runner.c_resumed) outcomes) in
  let retries =
    List.fold_left (fun acc o -> acc + o.Runner.c_retries) 0 outcomes
  in
  let failed =
    List.filter_map
      (fun o ->
        match o.Runner.c_result with
        | Error f -> Some (o.Runner.c_key, f)
        | Ok _ -> None)
      outcomes
  in
  ( outcomes,
    { Runner.r_total = n;
      r_computed = computed;
      r_resumed = resumed;
      r_retries = retries;
      r_failed = failed } )
