(* Analysis-as-a-service: the resident daemon (DESIGN.md §15).

   Every CLI invocation is a cold process: it analyzes one (binary,
   config, goal) cell and dies, taking its image memo and solver memo
   with it.  This module keeps one process resident:
   a Unix-domain socket accepts a stream of framed requests
   ([Gp_util.Frame]: length-prefixed, FNV-checksummed), each carrying a
   binary image, a goal, and planner knobs; each request is dispatched
   onto a persistent [Sched.Service] work-stealing pool as [Api.steps]'
   chain of stage tasks ([Sched.drive], the survey's chain driver), so
   one request's plan stage overlaps another's extract.
   The [Incr] image memo and the solver memo stay hot, so a repeated
   image costs one digest.  Nothing is persisted: a restarted daemon
   starts cold.

   Determinism: a served request draws gadget ids from a local source
   ([Gadget.local_ids]) and runs the chain [Api.run] finishes inline,
   degradation ladder included, so the response is bit-identical to a
   cold CLI run of the same request (the serve suite diffs the encoded
   reports at jobs 1 and 4).

   Failure model: wire damage (torn frame, checksum mismatch, client
   hangup) is quarantined per connection under the [Fail.Frame_fault]
   labels and the connection dropped — resident caches are never
   touched by a request that did not parse.  [Faultsim.Crashed] is
   never caught: it stops the pool, every worker is joined, the socket
   is closed and unlinked, and the exception re-raises, exactly like a
   crashed sweep. *)

open Gp_core
module B = Gp_util.Store.Bin
module Frame = Gp_util.Frame

(* ----- request / report payloads ----- *)

type request = {
  rq_image : Gp_util.Image.t;  (* the binary under analysis *)
  rq_goal : string;            (* "execve" | "mprotect" | "mmap" *)
  rq_budget_s : float;         (* 0. = unlimited *)
  rq_max_plans : int;
  rq_node_budget : int;
  rq_time_budget : float;
  rq_branch_cap : int;
  rq_goal_cap : int;
  rq_max_steps : int;
  rq_jobs : int;               (* within-stage domains (default 1) *)
}

let default_request image =
  let c = Planner.default_config in
  { rq_image = image;
    rq_goal = "execve";
    rq_budget_s = 0.;
    rq_max_plans = c.Planner.max_plans;
    rq_node_budget = c.Planner.node_budget;
    rq_time_budget = c.Planner.time_budget;
    rq_branch_cap = c.Planner.branch_cap;
    rq_goal_cap = c.Planner.goal_cap;
    rq_max_steps = c.Planner.max_steps;
    rq_jobs = 1 }

type report = {
  sr_pool : int;
  sr_chains : (string * string) list;  (* (chain_set_key, describe) *)
  sr_rungs : string list;
  sr_budget_hits : string list;
  sr_quarantined : (string * int) list;
  sr_counters : (string * int) list;   (* jobs/temperature-invariant *)
}

let goal_of_name = function
  | "execve" -> Goal.Execve "/bin/sh"
  | "mprotect" -> Goal.Mprotect (Gp_emu.Machine.stack_base, 0x1000L, 7L)
  | "mmap" -> Goal.Mmap (0L, 0x1000L, 7L)
  | s -> invalid_arg ("unknown goal: " ^ s)

let planner_config_of rq =
  { Planner.max_plans = rq.rq_max_plans;
    node_budget = rq.rq_node_budget;
    time_budget = rq.rq_time_budget;
    branch_cap = rq.rq_branch_cap;
    goal_cap = rq.rq_goal_cap;
    max_steps = rq.rq_max_steps }

let report_of_outcome (o : Api.outcome) : report =
  { sr_pool = o.Api.stats.Api.pool_size;
    sr_chains =
      List.map (fun c -> (Payload.chain_set_key c, Payload.describe c)) o.Api.chains;
    sr_rungs = List.map Api.rung_name o.Api.rungs;
    sr_budget_hits = o.Api.stats.Api.budget_hits;
    sr_quarantined = o.Api.stats.Api.quarantined;
    sr_counters = Api.invariant_counters o }

(* ----- binary codecs (Frame payload bodies) ----- *)

let f64 b f = B.i64 b (Int64.bits_of_float f)
let gf64 s pos = Int64.float_of_bits (B.gi64 s pos)

let image_encode b (img : Gp_util.Image.t) =
  B.i64 b img.Gp_util.Image.code_base;
  B.str b (Bytes.to_string img.Gp_util.Image.code);
  B.i64 b img.Gp_util.Image.data_base;
  B.str b (Bytes.to_string img.Gp_util.Image.data);
  B.i64 b img.Gp_util.Image.entry;
  B.list b
    (fun (s : Gp_util.Image.symbol) ->
      B.str b s.Gp_util.Image.sym_name;
      B.i64 b s.Gp_util.Image.sym_addr;
      B.int_ b s.Gp_util.Image.sym_size)
    img.Gp_util.Image.symbols

let image_decode s pos : Gp_util.Image.t =
  let code_base = B.gi64 s pos in
  let code = Bytes.of_string (B.gstr s pos) in
  let data_base = B.gi64 s pos in
  let data = Bytes.of_string (B.gstr s pos) in
  let entry = B.gi64 s pos in
  let symbols =
    B.glist s pos (fun () ->
        let sym_name = B.gstr s pos in
        let sym_addr = B.gi64 s pos in
        let sym_size = B.gint s pos in
        { Gp_util.Image.sym_name; sym_addr; sym_size })
  in
  Gp_util.Image.create ~code_base ~data_base ~symbols ~entry ~code ~data ()

let request_encode rq =
  let b = Buffer.create (Bytes.length rq.rq_image.Gp_util.Image.code + 256) in
  image_encode b rq.rq_image;
  B.str b rq.rq_goal;
  f64 b rq.rq_budget_s;
  B.int_ b rq.rq_max_plans;
  B.int_ b rq.rq_node_budget;
  f64 b rq.rq_time_budget;
  B.int_ b rq.rq_branch_cap;
  B.int_ b rq.rq_goal_cap;
  B.int_ b rq.rq_max_steps;
  B.int_ b rq.rq_jobs;
  Buffer.contents b

let request_decode s pos =
  let rq_image = image_decode s pos in
  let rq_goal = B.gstr s pos in
  let rq_budget_s = gf64 s pos in
  let rq_max_plans = B.gint s pos in
  let rq_node_budget = B.gint s pos in
  let rq_time_budget = gf64 s pos in
  let rq_branch_cap = B.gint s pos in
  let rq_goal_cap = B.gint s pos in
  let rq_max_steps = B.gint s pos in
  let rq_jobs = B.gint s pos in
  { rq_image; rq_goal; rq_budget_s; rq_max_plans; rq_node_budget;
    rq_time_budget; rq_branch_cap; rq_goal_cap; rq_max_steps; rq_jobs }

let pairs_encode b l =
  B.list b
    (fun (k, v) ->
      B.str b k;
      B.int_ b v)
    l

let pairs_decode s pos =
  B.glist s pos (fun () ->
      let k = B.gstr s pos in
      (k, B.gint s pos))

let report_encode r =
  let b = Buffer.create 512 in
  B.int_ b r.sr_pool;
  B.list b
    (fun (k, d) ->
      B.str b k;
      B.str b d)
    r.sr_chains;
  B.list b (B.str b) r.sr_rungs;
  B.list b (B.str b) r.sr_budget_hits;
  pairs_encode b r.sr_quarantined;
  pairs_encode b r.sr_counters;
  Buffer.contents b

let report_decode s pos =
  let sr_pool = B.gint s pos in
  let sr_chains =
    B.glist s pos (fun () ->
        let k = B.gstr s pos in
        (k, B.gstr s pos))
  in
  let sr_rungs = B.glist s pos (fun () -> B.gstr s pos) in
  let sr_budget_hits = B.glist s pos (fun () -> B.gstr s pos) in
  let sr_quarantined = pairs_decode s pos in
  let sr_counters = pairs_decode s pos in
  { sr_pool; sr_chains; sr_rungs; sr_budget_hits; sr_quarantined; sr_counters }

(* ----- wire messages ----- *)

(* One frame payload = one message: a tag byte then the body.  Version
   skew is handled at the frame layer (Frame.format_version); unknown
   tags and undecodable bodies are `Checksum-class frame faults — the
   bytes arrived intact but do not mean anything. *)

type daemon_stats = {
  ds_served : int;                      (* analyses completed *)
  ds_faults : (string * int) list;      (* frame-fault ledger *)
  ds_incr_size : int;                   (* images in the resident memo *)
  ds_memo_entries : int;                (* resident solver-memo entries *)
}

type msg =
  | Analyze of request
  | Stats
  | Shutdown

type reply =
  | Report of report
  | Stats_reply of daemon_stats
  | Shutdown_ack
  | Err_reply of string * string  (* Fail label, detail *)

let msg_encode = function
  | Analyze rq ->
    let b = Buffer.create 256 in
    B.u8 b 1;
    Buffer.add_string b (request_encode rq);
    Buffer.contents b
  | Stats ->
    let b = Buffer.create 4 in
    B.u8 b 2;
    Buffer.contents b
  | Shutdown ->
    let b = Buffer.create 4 in
    B.u8 b 3;
    Buffer.contents b

let msg_decode s =
  let pos = ref 0 in
  match B.gu8 s pos with
  | 1 -> Analyze (request_decode s pos)
  | 2 -> Stats
  | 3 -> Shutdown
  | _ -> raise Frame.Truncated

let reply_encode = function
  | Report r ->
    let b = Buffer.create 512 in
    B.u8 b 1;
    Buffer.add_string b (report_encode r);
    Buffer.contents b
  | Stats_reply ds ->
    let b = Buffer.create 128 in
    B.u8 b 2;
    B.int_ b ds.ds_served;
    pairs_encode b ds.ds_faults;
    B.int_ b ds.ds_incr_size;
    B.int_ b ds.ds_memo_entries;
    Buffer.contents b
  | Shutdown_ack ->
    let b = Buffer.create 4 in
    B.u8 b 3;
    Buffer.contents b
  | Err_reply (label, detail) ->
    let b = Buffer.create 64 in
    B.u8 b 9;
    B.str b label;
    B.str b detail;
    Buffer.contents b

let reply_decode s =
  let pos = ref 0 in
  match B.gu8 s pos with
  | 1 -> Report (report_decode s pos)
  | 2 ->
    let ds_served = B.gint s pos in
    let ds_faults = pairs_decode s pos in
    let ds_incr_size = B.gint s pos in
    let ds_memo_entries = B.gint s pos in
    Stats_reply { ds_served; ds_faults; ds_incr_size; ds_memo_entries }
  | 3 -> Shutdown_ack
  | 9 ->
    let label = B.gstr s pos in
    Err_reply (label, B.gstr s pos)
  | _ -> raise Frame.Truncated

(* ----- request execution ----- *)

let budget_of rq =
  if rq.rq_budget_s > 0. then
    Some (Budget.create ~label:"serve" ~seconds:rq.rq_budget_s ())
  else None

(* Inline (CLI-path) execution: exactly what `gadget_planner plan`
   does, with a request-local gadget id source — the differential
   reference for the daemon's scheduled path. *)
let handle (rq : request) : report =
  report_of_outcome
    (Api.run ?budget:(budget_of rq)
       ~planner_config:(planner_config_of rq)
       ~jobs:rq.rq_jobs
       ~ids:(Gadget.local_ids ())
       rq.rq_image (goal_of_name rq.rq_goal))

(* The same request as [Api.steps]'s chain, so the Service pool can
   interleave one request's plan rung with another's extract.
   Bit-identity with {!handle} is asserted by the serve suite at jobs 1
   and 4. *)
let request_steps (rq : request) : report Sched.step =
  Api.map_step report_of_outcome
    (Api.steps ?budget:(budget_of rq)
       ~planner_config:(planner_config_of rq)
       ~jobs:rq.rq_jobs
       ~ids:(Gadget.local_ids ())
       rq.rq_image (goal_of_name rq.rq_goal))

(* ----- socket plumbing ----- *)

(* SIGPIPE is process-wide.  A write to a peer that has gone away must
   come back as EPIPE — an error the caller quarantines — and never kill
   the process, so SIGPIPE is ignored while any daemon runs or any
   client connection is open, and the disposition found before the
   first user is restored after the last one.  Counting users keeps one
   party's teardown (a daemon stopping) from exposing another's writes
   (an in-process client still talking to it). *)
let sigpipe_users = ref 0
let sigpipe_saved = ref None
let sigpipe_lock = Mutex.create ()

(* Every acquire (re)installs Ignore, so a disposition someone else set
   in between never leaves a new user exposed. *)
let sigpipe_acquire () =
  Mutex.protect sigpipe_lock (fun () ->
      let prev =
        try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
        with Invalid_argument _ -> None
      in
      if !sigpipe_users = 0 then sigpipe_saved := prev;
      incr sigpipe_users)

let sigpipe_release () =
  Mutex.protect sigpipe_lock (fun () ->
      decr sigpipe_users;
      if !sigpipe_users = 0 then
        match !sigpipe_saved with
        | Some b -> (
          try Sys.set_signal Sys.sigpipe b with Invalid_argument _ -> ())
        | None -> ())

let write_all fd s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* ----- client ----- *)

module Client = struct
  type t = {
    cl_fd : Unix.file_descr;
    cl_buf : Buffer.t;          (* read accumulator across frames *)
    mutable cl_closed : bool;
  }

  let connect path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      sigpipe_acquire ();
      Ok { cl_fd = fd; cl_buf = Buffer.create 4096; cl_closed = false }
    | exception Unix.Unix_error (e, fn, _) ->
      Unix.close fd;
      Error (fn ^ ": " ^ Unix.error_message e)

  let close t =
    if not t.cl_closed then begin
      t.cl_closed <- true;
      (try Unix.close t.cl_fd with Unix.Unix_error _ -> ());
      sigpipe_release ()
    end

  (* Send one message as a frame, applying any installed wire-fault
     schedule ([Frame.mangle]); a mangled send that must also tear the
     connection closes it and reports which fault fired. *)
  let send t m =
    let payload = msg_encode m in
    let frame = Frame.encode payload in
    let bytes_, slam = Frame.mangle ~payload frame in
    match write_all t.cl_fd bytes_ with
    | () ->
      if slam then begin
        close t;
        Error `Slammed
      end
      else Ok ()
    | exception Unix.Unix_error (e, fn, _) ->
      close t;
      Error (`Io (fn ^ ": " ^ Unix.error_message e))

  (* Read until one whole frame is buffered; returns its payload. *)
  let recv t =
    let chunk = Bytes.create 65536 in
    let rec go () =
      match
        Frame.parse ~off:0 ~len:(Buffer.length t.cl_buf)
          (Buffer.contents t.cl_buf)
      with
      | Frame.Complete (payload, used) ->
        let rest =
          Buffer.sub t.cl_buf used (Buffer.length t.cl_buf - used)
        in
        Buffer.clear t.cl_buf;
        Buffer.add_string t.cl_buf rest;
        Ok payload
      | Frame.Malformed e -> Error ("reply frame: " ^ Frame.error_reason e)
      | Frame.Incomplete -> (
        match Unix.read t.cl_fd chunk 0 (Bytes.length chunk) with
        | 0 -> Error "connection closed by daemon"
        | n ->
          Buffer.add_subbytes t.cl_buf chunk 0 n;
          go ()
        | exception Unix.Unix_error (e, fn, _) ->
          Error (fn ^ ": " ^ Unix.error_message e))
    in
    go ()

  let roundtrip t m =
    match send t m with
    | Error `Slammed ->
      (* the injected fault tore our own connection: the daemon never
         saw a complete request, so there is nothing to read *)
      Error (Fail.Frame_fault (`Disconnect, "injected client fault"))
    | Error (`Io why) -> Error (Fail.Frame_fault (`Disconnect, why))
    | Ok () -> (
      match recv t with
      | Error why -> Error (Fail.Frame_fault (`Torn, why))
      | Ok payload -> (
        match reply_decode payload with
        | r -> Ok r
        | exception Frame.Truncated ->
          Error (Fail.Frame_fault (`Checksum, "undecodable reply body"))))

  let submit t rq =
    match roundtrip t (Analyze rq) with
    | Ok (Report r) -> Ok r
    | Ok (Err_reply (label, detail)) ->
      Error (Fail.Frame_fault (`Checksum, label ^ ": " ^ detail))
    | Ok _ -> Error (Fail.Frame_fault (`Checksum, "unexpected reply kind"))
    | Error f -> Error f

  let stats t =
    match roundtrip t Stats with
    | Ok (Stats_reply ds) -> Ok ds
    | Ok _ -> Error (Fail.Frame_fault (`Checksum, "unexpected reply kind"))
    | Error f -> Error f

  let shutdown t =
    match roundtrip t Shutdown with
    | Ok Shutdown_ack -> Ok ()
    | Ok _ -> Error (Fail.Frame_fault (`Checksum, "unexpected reply kind"))
    | Error f -> Error f
end

(* ----- daemon ----- *)

type config = {
  d_socket : string;
  d_jobs : int;                (* Service pool workers *)
}

let default_config ~socket = { d_socket = socket; d_jobs = 4 }

type summary = {
  sm_served : int;
  sm_faults : (string * int) list;
}

(* Per-connection state.  The main domain owns reads and parsing;
   worker domains write replies under [cn_wm].  [cn_inflight] counts
   analyses still running for this connection so an EOF (client done
   sending) does not close the fd out from under a worker's reply
   write — a genuinely vanished client surfaces as EPIPE there and is
   quarantined as a `Disconnect frame fault. *)
type conn = {
  cn_fd : Unix.file_descr;
  cn_buf : Buffer.t;
  cn_wm : Mutex.t;
  mutable cn_open : bool;      (* fd still valid (main domain decides) *)
  mutable cn_eof : bool;
  cn_inflight : int Atomic.t;
}

type daemon = {
  dm_sv : Sched.Service.t;
  mutable dm_conns : conn list;
  mutable dm_running : bool;
  dm_served : int Atomic.t;
  dm_faults : Fail.tally;
  dm_faults_m : Mutex.t;
}

let quarantine d f =
  Mutex.protect d.dm_faults_m (fun () -> Fail.tally_add d.dm_faults f)

(* Main-domain only.  Closing is serialized with worker reply writes
   under [cn_wm]: a worker either sees [cn_open = false] (and
   quarantines a disconnect) or finishes its write before the fd — a
   number the kernel will happily reuse — goes away. *)
let conn_close d c =
  Mutex.protect c.cn_wm (fun () ->
      if c.cn_open then begin
        c.cn_open <- false;
        try Unix.close c.cn_fd with Unix.Unix_error _ -> ()
      end);
  d.dm_conns <- List.filter (fun c' -> c' != c) d.dm_conns

(* Reply writes happen on worker domains; the write mutex serializes
   them per connection, and a vanished peer (EPIPE/reset/fd already
   closed) is the `Disconnect fault. *)
let send_reply d c reply =
  let frame = Frame.encode (reply_encode reply) in
  let ok =
    Mutex.protect c.cn_wm (fun () ->
        if not c.cn_open then Error "connection already closed"
        else
          match write_all c.cn_fd frame with
          | () -> Ok ()
          | exception Unix.Unix_error (e, fn, _) ->
            Error (fn ^ ": " ^ Unix.error_message e))
  in
  match ok with
  | Ok () -> ()
  | Error why -> quarantine d (Fail.Frame_fault (`Disconnect, why))

let dispatch d c payload =
  match msg_decode payload with
  | exception _ ->
    (* checksummed bytes that don't decode: protocol skew or a fuzzed
       client.  Reply (our write side still works), then drop the
       connection — after a body we cannot parse, trusting the stream
       further would be guessing. *)
    let f = Fail.Frame_fault (`Checksum, "undecodable request body") in
    quarantine d f;
    send_reply d c (Err_reply (Fail.label f, Fail.to_string f));
    conn_close d c
  | Stats ->
    send_reply d c
      (Stats_reply
         { ds_served = Atomic.get d.dm_served;
           ds_faults =
             Mutex.protect d.dm_faults_m (fun () ->
                 Fail.tally_list d.dm_faults);
           ds_incr_size = Incr.size ();
           ds_memo_entries = Gp_smt.Solver.memo_count () })
  | Shutdown ->
    send_reply d c Shutdown_ack;
    d.dm_running <- false
  | Analyze rq ->
    (match goal_of_name rq.rq_goal with
    | exception Invalid_argument why ->
      let f = Fail.Frame_fault (`Checksum, why) in
      quarantine d f;
      send_reply d c (Err_reply (Fail.label f, Fail.to_string f))
    | _ ->
      Atomic.incr c.cn_inflight;
      (* each stage is its own pool task, so the pool interleaves
         stages of concurrent requests (owner-LIFO keeps a request
         flowing; thieves take other requests' opening stages) *)
      Sched.drive d.dm_sv (request_steps rq) ~finish:(fun r ->
          send_reply d c
            (match r with
            | Ok report -> Report report
            | Error f -> Err_reply (Fail.label f, Fail.to_string f));
          Atomic.decr c.cn_inflight;
          Atomic.incr d.dm_served))

(* Drain every complete frame in the connection's buffer. *)
let rec parse_conn d c =
  if c.cn_open then
    match
      Frame.parse ~off:0 ~len:(Buffer.length c.cn_buf)
        (Buffer.contents c.cn_buf)
    with
    | Frame.Complete (payload, used) ->
      let rest = Buffer.sub c.cn_buf used (Buffer.length c.cn_buf - used) in
      Buffer.clear c.cn_buf;
      Buffer.add_string c.cn_buf rest;
      dispatch d c payload;
      parse_conn d c
    | Frame.Incomplete -> ()
    | Frame.Malformed e ->
      (* damaged on the wire (Faultsim's Flip_sum, or a real flipped
         bit): quarantine, tell the peer, drop the connection.  The
         request never decoded, so no resident state saw it. *)
      let f = Fail.Frame_fault (`Checksum, Frame.error_reason e) in
      quarantine d f;
      send_reply d c (Err_reply (Fail.label f, Fail.to_string f));
      conn_close d c

let read_conn d c =
  let chunk = Bytes.create 65536 in
  match Unix.read c.cn_fd chunk 0 (Bytes.length chunk) with
  | 0 ->
    c.cn_eof <- true;
    if Buffer.length c.cn_buf > 0 then begin
      (* EOF mid-frame: the peer died between writing the length and
         the payload (Faultsim's Torn_len / Torn_body) *)
      quarantine d
        (Fail.Frame_fault
           ( `Torn,
             Printf.sprintf "connection closed with %d buffered byte(s) mid-frame"
               (Buffer.length c.cn_buf) ));
      Buffer.clear c.cn_buf
    end;
    if Atomic.get c.cn_inflight = 0 then conn_close d c
  | n ->
    Buffer.add_subbytes c.cn_buf chunk 0 n;
    parse_conn d c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (e, fn, _) ->
    quarantine d
      (Fail.Frame_fault (`Disconnect, fn ^ ": " ^ Unix.error_message e));
    if Atomic.get c.cn_inflight = 0 then conn_close d c else c.cn_eof <- true

let serve (cfg : config) : summary =
  let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink cfg.d_socket with Unix.Unix_error _ -> ());
  Unix.bind lsock (Unix.ADDR_UNIX cfg.d_socket);
  Unix.listen lsock 64;
  (* worker domains write replies to sockets whose peer may be gone;
     that must be EPIPE (quarantined), not process death *)
  sigpipe_acquire ();
  let d =
    { dm_sv = Sched.Service.start ~jobs:cfg.d_jobs;
      dm_conns = [];
      dm_running = true;
      dm_served = Atomic.make 0;
      dm_faults = Fail.tally_create ();
      dm_faults_m = Mutex.create () }
  in
  let teardown () =
    (try Unix.close lsock with Unix.Unix_error _ -> ());
    List.iter (fun c -> conn_close d c) d.dm_conns;
    (try Unix.unlink cfg.d_socket with Unix.Unix_error _ -> ());
    sigpipe_release ()
  in
  match
    while d.dm_running do
      (* fatal worker exceptions (Crashed, handler bugs) re-raise here
         on the main domain, where the teardown lives *)
      Sched.Service.check d.dm_sv;
      let rds =
        lsock :: List.filter_map
                   (fun c -> if c.cn_open && not c.cn_eof then Some c.cn_fd else None)
                   d.dm_conns
      in
      let ready, _, _ =
        try Unix.select rds [] [] 0.05
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          if fd = lsock then begin
            match Unix.accept lsock with
            | cfd, _ ->
              d.dm_conns <-
                { cn_fd = cfd;
                  cn_buf = Buffer.create 4096;
                  cn_wm = Mutex.create ();
                  cn_open = true;
                  cn_eof = false;
                  cn_inflight = Atomic.make 0 }
                :: d.dm_conns
            | exception Unix.Unix_error _ -> ()
          end
          else
            match List.find_opt (fun c -> c.cn_fd = fd && c.cn_open) d.dm_conns with
            | Some c -> read_conn d c
            | None -> ())
        ready;
      (* close connections whose peer is gone and whose last reply has
         been written *)
      List.iter
        (fun c ->
          if c.cn_eof && Atomic.get c.cn_inflight = 0 then conn_close d c)
        d.dm_conns
    done;
    (* graceful shutdown: stopping the pool drains in-flight analyses
       (their replies still go out) and re-raises a fatal one *)
    Sched.Service.stop d.dm_sv
  with
  | () ->
    teardown ();
    { sm_served = Atomic.get d.dm_served;
      sm_faults =
        Mutex.protect d.dm_faults_m (fun () -> Fail.tally_list d.dm_faults) }
  | exception e ->
    (* simulated process death or a fatal bug: join the pool first —
       no worker may still be running a request step once the daemon
       is gone — and let [e] keep unwinding (the pool's own re-raise of
       a worker's fatal exception is dropped here). *)
    (try Sched.Service.stop d.dm_sv with _ -> ());
    teardown ();
    raise e
