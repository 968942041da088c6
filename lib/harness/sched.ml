(* The domain pool that runs survey cells and daemon requests
   (DESIGN.md §14).

   A survey sweep is a product of (program x config) CELLS.  [Par]
   parallelizes within one stage of one cell; this module parallelizes
   across cells: each cell is one task that runs its whole pipeline —
   compile, extract, subsume, the degradation ladder — on one worker,
   and the workers take tasks from one FIFO queue.  The daemon's
   requests run on the same pool, one task per request (DESIGN.md §15).

   Determinism contract: the pool moves WHEN work runs, never what it
   computes.  Each cell draws gadget ids from its own local source,
   compiles are pure functions of (source, config) (Obf.apply resets
   the pass counters), and every cross-cell shared table — the [Incr]
   image memo, the solver memos — is first-write-wins over
   content-addressed keys whose values are deterministic, so a hit
   returns the same bytes whichever cell populated the entry.  Cell
   payloads are therefore bit-identical at any job count, including
   jobs = 1 and the sequential reference loop ([Runner.run_corpus]).

   [Faultsim.Crashed] is never caught: simulated process death stops
   the pool (workers stop claiming, every domain is joined) and then
   unwinds out of [run_cells], exactly like the sequential sweep.

   Each worker domain runs on its own 8 MB minor heap
   ([worker_minor_heap_words]).  In OCaml 5 every minor collection
   stops every domain, so a busy worker on the default 256K-word
   (2 MB) heap would interrupt the other workers about ten times per
   request.  [Gc.set] from a domain resizes only that domain's minor
   heap (OCaml 5.1: the worker reads the new size, the main domain and
   later spawns keep 262,144 words), so the setting is worker-only by
   construction: the caller's domain and the process-wide default are
   never changed.  A process-wide heap was measured and rejected: with
   OCAMLRUNPARAM=s=1M, one-domain scan-cold read 13.4-13.5 -> 13.1-13.2
   ms cpu per item and plan-cold 19.3-19.4 -> 19.5-19.9 ms, while peak
   RSS rose 11-12% on both; s=8M cost plan-cold +33% cpu. *)

open Gp_core

(* ----- the worker pool ----- *)

(* Failure discipline: a task owns its errors (a request handler turns
   everything into an error response — one poisoned request must not
   kill the daemon; a cell turns failures into outcomes), so any
   exception that still reaches a worker is by definition fatal to the
   process ([Faultsim.Crashed], or a bug).  The first one is kept, the
   pool stops claiming work, and [check]/[stop] re-raise it on the
   caller's domain — where the teardown (the daemon's socket, the
   sweep's manifest) lives. *)
module Service = struct
  type t = {
    sv_m : Mutex.t;                   (* guards the three fields below *)
    sv_ready : Condition.t;           (* work queued, stop, or fatal *)
    sv_queue : (unit -> unit) Queue.t;
    mutable sv_stop : bool;
    mutable sv_fatal : exn option;    (* first fatal exception, kept *)
    sv_pending : int Atomic.t;        (* submitted, not yet finished *)
    mutable sv_domains : unit Domain.t list;
  }

  let pending sv = Atomic.get sv.sv_pending

  let submit sv (fn : unit -> unit) =
    Atomic.incr sv.sv_pending;
    Mutex.protect sv.sv_m (fun () ->
        Queue.push fn sv.sv_queue;
        Condition.signal sv.sv_ready)

  let fatal sv e =
    Mutex.protect sv.sv_m (fun () ->
        if sv.sv_fatal = None then sv.sv_fatal <- Some e;
        Condition.broadcast sv.sv_ready)

  (* The next task, or [None] once the pool is done: a fatal exception
     stops claiming at once; [stop] lets the queue drain first. *)
  let next sv =
    Mutex.protect sv.sv_m (fun () ->
        let rec wait () =
          if sv.sv_fatal <> None then None
          else
            match Queue.take_opt sv.sv_queue with
            | Some fn -> Some fn
            | None when sv.sv_stop -> None
            | None ->
              Condition.wait sv.sv_ready sv.sv_m;
              wait ()
        in
        wait ())

  (* 1M words = 8 MB on 64-bit.  Sweep on the 2-core reference host,
     serve-2c (2 workers), cpu_ms_per_item over 2 runs each, against
     27.0-31.1 ms at the default heap: 512K words 23.9/24.8 ms at 175
     MB peak RSS, 1M 21.7/21.8 ms at 180-182 MB, 2M 22.9/23.0 ms at
     197-198 MB — a bigger heap costs RSS and buys nothing. *)
  let worker_minor_heap_words = 1 lsl 20

  let rec worker sv =
    match next sv with
    | None -> ()
    | Some fn ->
      (try fn () with e -> fatal sv e);
      Atomic.decr sv.sv_pending;
      worker sv

  let start ~jobs:n =
    let sv =
      { sv_m = Mutex.create ();
        sv_ready = Condition.create ();
        sv_queue = Queue.create ();
        sv_stop = false;
        sv_fatal = None;
        sv_pending = Atomic.make 0;
        sv_domains = [] }
    in
    (* The caller is NOT a worker: the daemon's main domain stays in
       its accept/select loop.  A failed spawn must not orphan the
       domains already running: keep every
       successful spawn and degrade to fewer workers — but a pool with
       NO worker would queue work forever, so a failure of the very
       first spawn is raised. *)
    (match
       for _ = 1 to max 1 n do
         sv.sv_domains <-
           Domain.spawn (fun () ->
               Gc.set
                 { (Gc.get ()) with minor_heap_size = worker_minor_heap_words };
               worker sv)
           :: sv.sv_domains
       done
     with
    | () -> ()
    | exception e -> if sv.sv_domains = [] then raise e);
    sv

  let check sv =
    match Mutex.protect sv.sv_m (fun () -> sv.sv_fatal) with
    | Some e -> raise e
    | None -> ()

  (* Drain and join.  Queued work still runs (a shutdown request must
     not drop in-flight analyses) unless a fatal exception already
     stopped the pool; the fatal exception, if any, is re-raised after
     every domain is joined. *)
  let stop sv =
    Mutex.protect sv.sv_m (fun () ->
        sv.sv_stop <- true;
        Condition.broadcast sv.sv_ready);
    List.iter (fun d -> try Domain.join d with e -> fatal sv e) sv.sv_domains;
    sv.sv_domains <- [];
    check sv
end

(* [Runner.run_corpus] on the pool: one task per cell, each running
   [Runner.corpus_cell] — the same replay, per-attempt watchdog, retry
   and backoff schedule, and manifest record as the sequential loop —
   into the cell's own slot. *)
let run_cells ?policy ?manifest ?(resume = false) ~encode ~decode ~jobs
    (cells : (string * (attempt:int -> Budget.t -> ('a, Fail.t) result)) list)
    : 'a Runner.cell_outcome list * Runner.report =
  let slots = Array.make (List.length cells) None in
  let sv = Service.start ~jobs in
  List.iteri
    (fun i cell ->
      Service.submit sv (fun () ->
          slots.(i) <-
            Some
              (Runner.corpus_cell ?policy ?manifest ~resume ~encode ~decode
                 cell)))
    cells;
  (* drains every cell, joins every domain, re-raises the first fatal
     exception ([Faultsim.Crashed] included) *)
  Service.stop sv;
  let outcomes = List.map Option.get (Array.to_list slots) in
  (outcomes, Runner.report_of outcomes)
