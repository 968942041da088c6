(* Corpus-level pipelined scheduler (DESIGN.md §14).

   A survey sweep is a product of (program x config) CELLS, each a
   four-stage pipeline.  [Par] parallelizes within one stage of one
   cell, but the sweep itself was a sequential cell loop: extract-heavy
   cells left the solver domains idle and solver-heavy cells left the
   decoder idle.  This module runs the whole corpus on one shared
   domain pool with per-worker deques and work stealing: every stage of
   every cell is its own task, submitted as the previous stage returns
   it, so stage 3 of cell A overlaps stage 1 of cell B instead of
   fencing at every stage boundary.  The daemon's requests run on the
   same pool through the same chain driver (DESIGN.md §15).

   Determinism contract: the scheduler moves WHEN work runs, never what
   it computes.  Each cell draws gadget ids from its own local source,
   compiles are pure functions of (source, config) (Obf.apply resets
   the pass counters), and every cross-cell shared table — the [Incr]
   image memo, the solver memos — is first-write-wins over
   content-addressed keys whose values are deterministic, so a hit
   returns the same bytes whichever cell populated the entry.  Cell
   payloads are therefore bit-identical at any job count, including
   jobs = 1 and the sequential reference loop ([Runner.run_corpus]).

   [Faultsim.Crashed] is never caught: simulated process death stops
   the pool (workers stop claiming, every domain is joined) and then
   unwinds out of [run_cells], exactly like the sequential sweep. *)

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

(* ----- the worker pool ----- *)

(* Workers park until an explicit [stop] — the daemon's resident pool
   (DESIGN.md §15) and, started and stopped around one sweep, the
   survey's.

   Failure discipline: a task owns its errors (a request handler turns
   everything into an error response — one poisoned request must not
   kill the daemon; a cell chain turns failures into outcomes), so any
   exception that still reaches a worker is by definition fatal to the
   process ([Faultsim.Crashed], or a bug).  The first one is kept, the
   pool stops claiming work, and [check]/[stop] re-raise it on the
   caller's domain — where the teardown (the daemon's socket, the
   sweep's manifest) lives. *)
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
     own deque (owner-LIFO keeps a chain's next stage hot, thieves take
     other chains' opening stages from the top); from any other domain
     (the daemon's accept loop, the sweep's submitter) tasks are spread
     round-robin. *)
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
          (* spin briefly, then back off into short sleeps: a sleeping
             domain sits in a blocking section — GC-safe and off the
             core — so on an oversubscribed host the workers that HAVE
             work get the timeslices instead of idle ones burning them *)
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
    (* The caller is NOT a worker: the daemon's main domain stays in
       its accept/select loop.  Same hardening as Par.run — keep every
       successful spawn and degrade to fewer workers (thieves drain the
       orphaned deques) — but a pool with NO worker would queue work
       forever, so a failure of the very first spawn is raised. *)
    (match
       for w = 0 to n - 1 do
         sv.sv_domains <-
           Domain.spawn (fun () ->
               Mutex.protect sv.sv_m (fun () ->
                   Hashtbl.replace sv.sv_assign (Domain.self () :> int) w);
               worker sv w ~idle:0)
           :: sv.sv_domains
       done
     with
    | () -> ()
    | exception e -> if sv.sv_domains = [] then raise e);
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

(* ----- step chains ----- *)

(* A cell's (or a request's) work as a chain of resumable steps. *)
type 'a step = 'a Api.step = Finished of 'a | Next of (unit -> 'a step)

(* Each [Next] continuation is its own task, submitted from the worker
   that produced its input, where owner-LIFO order keeps the chain
   flowing while thieves take other chains' opening stages from the
   top.  A [Budget.Exhausted] escaping a step (a watchdog firing past a
   stage boundary) finishes the chain as a typed, transient failure. *)
let rec drive sv step ~finish =
  match step with
  | Finished v -> finish (Ok v)
  | Next k ->
    Service.submit sv (fun () ->
        match k () with
        | next -> drive sv next ~finish
        | exception Budget.Exhausted (label, reason) ->
          finish (Error (Fail.of_budget label reason)))

(* [Runner.run_corpus] semantics on the pool: same resume replay, same
   per-attempt watchdog budgets, same transient/permanent retry ladder
   with the same deterministic backoff schedule, same manifest-record
   commit.
   A retried cell restarts from its FIRST stage with a fresh watchdog,
   exactly like the sequential runner. *)
let run_cells ?(policy = Runner.default_policy) ?manifest ?(resume = false)
    ~(encode : 'a -> string) ~(decode : string -> 'a) ~jobs
    (cells : (string * (attempt:int -> Budget.t -> 'a step)) list) :
    'a Runner.cell_outcome list * Runner.report =
  let outcomes : 'a Runner.cell_outcome option array =
    Array.make (List.length cells) None
  in
  let commit key v =
    match manifest with
    | Some m -> Runner.Manifest.record m ~key ~payload:(encode v)
    | None -> ()
  in
  let settle idx key ~attempt ~resumed result =
    outcomes.(idx) <-
      Some
        { Runner.c_key = key; c_result = result; c_retries = attempt - 1;
          c_resumed = resumed }
  in
  (* completed cells replay from the manifest before anything runs *)
  let todo =
    List.concat
      (List.mapi
         (fun idx (key, sc) ->
           match Runner.replay ?manifest ~resume ~decode key with
           | Some v ->
             settle idx key ~attempt:1 ~resumed:true (Ok v);
             []
           | None -> [ (idx, key, sc) ])
         cells)
  in
  let sv = Service.start ~jobs in
  let rec run_attempt idx key sc ~attempt =
    drive sv
      (Next
         (fun () ->
           (* the backoff sleep for the PREVIOUS attempt's failure, then
              a fresh watchdog whose clock starts now — when the attempt
              actually begins, not when it was scheduled *)
           if attempt > 1 then
             !Runner.sleep_hook
               (Runner.backoff_delay policy ~key ~attempt:(attempt - 1));
           sc ~attempt (Runner.watchdog policy ~key)))
      ~finish:(function
        | Ok v ->
          commit key v;
          settle idx key ~attempt ~resumed:false (Ok v)
        | Error f when Fail.retryable f && attempt < policy.Runner.max_attempts
          ->
          run_attempt idx key sc ~attempt:(attempt + 1)
        | Error f -> settle idx key ~attempt ~resumed:false (Error f))
  in
  List.iter (fun (idx, key, sc) -> run_attempt idx key sc ~attempt:1) todo;
  (* drains every chain, joins every domain, re-raises the first fatal
     exception ([Faultsim.Crashed] included) *)
  Service.stop sv;
  let outcomes =
    List.map
      (function
        | Some o -> o
        | None ->
          (* unreachable: every non-replayed chain ends by writing its
             slot, and [Service.stop] re-raises on any fatal task *)
          assert false)
      (Array.to_list outcomes)
  in
  let count p = List.length (List.filter p outcomes) in
  ( outcomes,
    { Runner.r_total = List.length outcomes;
      r_computed =
        count (fun o -> (not o.Runner.c_resumed) && Result.is_ok o.c_result);
      r_resumed = count (fun o -> o.Runner.c_resumed);
      r_retries = List.fold_left (fun acc o -> acc + o.Runner.c_retries) 0 outcomes;
      r_failed =
        List.filter_map
          (fun o ->
            match o.Runner.c_result with
            | Error f -> Some (o.Runner.c_key, f)
            | Ok _ -> None)
          outcomes } )
