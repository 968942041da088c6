(* Supervised corpus runner (DESIGN.md §13).

   Survey sweeps are long products of (program x obfuscation x goal)
   cells; at that scale the interesting failure modes are operational,
   not semantic: a cell starves under a shared-machine stall, a
   process dies mid-sweep, a previous run left half its work behind.
   This module supervises per-cell execution:

     - every attempt runs under its own watchdog [Budget] deadline;
     - failures are split transient/permanent through the [Fail]
       taxonomy ([Fail.retryable]), and transient ones are retried
       with exponential backoff + jitter whose schedule is a pure
       function of (policy seed, cell key, attempt) — reproducible
       like everything else in the tree;
     - completed cells are recorded in a WAL-backed manifest (cell
       key, payload digest, payload), fsync'd per cell, so a killed
       sweep resumes by replaying recorded results instead of
       recomputing them.  The resume contract is bit-identical output:
       payloads carry only cache-temperature-independent data, so a
       replayed cell equals a recomputed one byte for byte.

   The retry ladder COMPOSES with the degradation ladder of
   [Api.steps], the chain every survey cell runs: a retried attempt
   restarts that chain from stage 1 with a fresh watchdog, so "retry"
   means "try the whole degradation cascade again", not "jump to the
   loosest rung".

   [Faultsim.Crashed] is deliberately NOT caught anywhere here: it
   simulates process death and must unwind the whole sweep. *)

open Gp_core

(* ----- retry policy ----- *)

type retry_policy = {
  max_attempts : int;   (* total attempts per cell, >= 1 *)
  base_delay_s : float; (* backoff after the first failed attempt *)
  max_delay_s : float;  (* backoff cap *)
  jitter : float;       (* +/- fraction of the delay, in [0, 1) *)
  seed : int;           (* keys the jitter stream *)
  attempt_seconds : float option; (* watchdog deadline per attempt *)
}

let default_policy =
  { max_attempts = 3;
    base_delay_s = 0.05;
    max_delay_s = 2.0;
    jitter = 0.25;
    seed = 0x5e7;
    attempt_seconds = None }

(* Pluggable so tests assert on computed delays instead of sleeping
   through them. *)
let sleep_hook : (float -> unit) ref =
  ref (fun s -> if s > 0. then Unix.sleepf s)

(* Deterministic: doubled base capped at [max_delay_s], then jittered
   by a stream keyed on (seed, key, attempt).  No global RNG state —
   the same cell failing the same way sleeps the same schedule in
   every run and at every job count. *)
let backoff_delay policy ~key ~attempt =
  let base = policy.base_delay_s *. (2. ** float_of_int (attempt - 1)) in
  let capped = Float.min base policy.max_delay_s in
  if policy.jitter <= 0. then capped
  else begin
    let rng =
      Gp_util.Rng.create (policy.seed lxor Hashtbl.hash (key, attempt))
    in
    let u = float_of_int (Gp_util.Rng.int rng 10_000) /. 10_000. in
    capped *. (1. -. policy.jitter +. (2. *. policy.jitter *. u))
  end

let classify f = if Fail.retryable f then `Transient else `Permanent

(* ----- single supervised cell ----- *)

(* A fresh per-attempt watchdog; the pooled sweep ([Sched.run_cells])
   creates its attempts' budgets here too. *)
let watchdog policy ~key =
  match policy.attempt_seconds with
  | Some s -> Budget.create ~label:("cell:" ^ key) ~seconds:s ()
  | None -> Budget.unlimited ~label:("cell:" ^ key) ()

(* Run one cell under the policy.  [f] gets the 1-based attempt number
   and a fresh watchdog budget each time; an uncaught
   [Budget.Exhausted] from inside counts as a transient failure (the
   watchdog fired past a stage boundary).  Returns the outcome plus
   the number of retries consumed (attempts - 1). *)
let run_cell ?(policy = default_policy) ~key
    (f : attempt:int -> Budget.t -> ('a, Fail.t) result) :
    ('a, Fail.t) result * int =
  let rec go attempt =
    let outcome =
      match f ~attempt (watchdog policy ~key) with
      | r -> r
      | exception Budget.Exhausted (label, reason) ->
        Error (Fail.of_budget label reason)
    in
    match outcome with
    | Ok v -> (Ok v, attempt - 1)
    | Error fail when Fail.retryable fail && attempt < policy.max_attempts ->
      !sleep_hook (backoff_delay policy ~key ~attempt);
      go (attempt + 1)
    | Error fail -> (Error fail, attempt - 1)
  in
  go 1

(* ----- checkpoint manifest ----- *)

module Manifest = struct
  (* Journal of completed cells, one WAL record per cell under the
     "cells" section: value = digest (fnv64 of payload) + payload.
     The digest is redundant with the WAL's own record checksum but
     survives compaction-free inspection and lets resume verify the
     payload it is about to trust. *)

  let schema_version = 1
  let file_name = "manifest"
  let section = "cells"
  let lock_name = ".manifest.lock"

  type entry = { e_digest : int64; e_payload : string }

  type t = {
    m_tbl : (string, entry) Hashtbl.t;
    m_mutex : Mutex.t;
        (* guards m_tbl AND the append+fsync pair: scheduler workers
           record cells from several domains, and a record must be
           atomic against a concurrent find/completed (DESIGN.md §14) *)
    m_wal : Gp_util.Store.Wal.t option; (* None = read-only *)
    m_lock : Gp_util.Store.lock option;
    m_replayed : int;
    m_torn_bytes : int;
    m_read_only : string option;
  }

  let wal_path ~dir =
    Gp_util.Store.Wal.path_of (Filename.concat dir file_name)

  let encode_entry e =
    let b = Buffer.create (String.length e.e_payload + 16) in
    Gp_util.Store.Bin.i64 b e.e_digest;
    Gp_util.Store.Bin.str b e.e_payload;
    Buffer.contents b

  let decode_entry v =
    let pos = ref 0 in
    let digest = Gp_util.Store.Bin.gi64 v pos in
    let payload = Gp_util.Store.Bin.gstr v pos in
    { e_digest = digest; e_payload = payload }

  (* Load a replay's trusted records into [tbl]: a record whose entry
     fails to decode, or whose payload fails its digest, is dropped —
     the cell is recomputed, which is always safe. *)
  let load_replay tbl (r : Gp_util.Store.Wal.replay) =
    List.iter
      (fun (sec, k, v) ->
        if sec = section then
          match decode_entry v with
          | e when Gp_util.Store.fnv64 e.e_payload = e.e_digest ->
            Hashtbl.replace tbl k e
          | _ -> ()
          | exception Gp_util.Store.Bin.Truncated -> ())
      r.Gp_util.Store.Wal.entries

  (* Open (or create) the manifest in [dir].  A payload that does not
     decode is recomputed too, at [replay].  A second writer demotes to
     read-only: completed cells still replay, new ones aren't
     recorded. *)
  let open_ ~dir : t =
    Gp_util.Store.mkdir_p dir;
    let tbl = Hashtbl.create 64 in
    let path = wal_path ~dir in
    (* built after the replay, so [m_replayed] counts what it loaded *)
    let make ?wal ?lock ?(torn = 0) read_only =
      { m_tbl = tbl; m_mutex = Mutex.create (); m_wal = wal; m_lock = lock;
        m_replayed = Hashtbl.length tbl; m_torn_bytes = torn;
        m_read_only = read_only }
    in
    match Gp_util.Store.try_lock ~name:lock_name dir with
    | Error who ->
      (match Gp_util.Store.Wal.read ~schema:schema_version path with
      | Ok r -> load_replay tbl r
      | Error _ -> ());
      make (Some who)
    | Ok l -> (
      match Gp_util.Store.Wal.open_append ~schema:schema_version path with
      | Ok (w, r) ->
        load_replay tbl r;
        make ~wal:w ~lock:l ~torn:r.Gp_util.Store.Wal.torn_bytes None
      | Error why -> (
        (* foreign/stale manifest: discard and start over — losing a
           checkpoint only costs recomputation *)
        (try Sys.remove path with Sys_error _ -> ());
        match Gp_util.Store.Wal.open_append ~schema:schema_version path with
        | Ok (w, _) -> make ~wal:w ~lock:l None
        | Error why2 ->
          Gp_util.Store.unlock l;
          make (Some (why ^ "; " ^ why2))))

  let read_only t = t.m_read_only
  let replayed t = t.m_replayed
  let torn_bytes t = t.m_torn_bytes
  let find t key =
    Mutex.protect t.m_mutex (fun () -> Hashtbl.find_opt t.m_tbl key)

  let completed t =
    Mutex.protect t.m_mutex (fun () -> Hashtbl.length t.m_tbl)

  (* Record one completed cell: append + fsync, so the checkpoint
     survives the very next instruction being a crash. *)
  let record t ~key ~payload =
    let e = { e_digest = Gp_util.Store.fnv64 payload; e_payload = payload } in
    Mutex.protect t.m_mutex (fun () ->
        Hashtbl.replace t.m_tbl key e;
        match t.m_wal with
        | None -> ()
        | Some w ->
          Gp_util.Store.Wal.append w ~section ~key ~value:(encode_entry e);
          Gp_util.Store.Wal.sync w)

  let close t =
    (match t.m_wal with Some w -> Gp_util.Store.Wal.close w | None -> ());
    match t.m_lock with Some l -> Gp_util.Store.unlock l | None -> ()

  (* Simulated-crash teardown: drop fds without flushing. *)
  let abandon t =
    (match t.m_wal with Some w -> Gp_util.Store.Wal.abandon w | None -> ());
    match t.m_lock with Some l -> Gp_util.Store.unlock l | None -> ()
end

(* ----- corpus sweep ----- *)

(* The recorded payload a resumed sweep replays for [key], decoded.
   [None] — recompute the cell, which is always safe — when not
   resuming, without a manifest or a record, and when a record whose
   digest checks does not decode ([decode] raises [Store.Bin.Truncated],
   as every payload codec in the tree does on bytes it cannot read). *)
let replay ?manifest ~resume ~decode key =
  match manifest with
  | Some m when resume -> (
    match Manifest.find m key with
    | None -> None
    | Some e -> (
      match decode e.Manifest.e_payload with
      | v -> Some v
      | exception Gp_util.Store.Bin.Truncated -> None))
  | _ -> None

type 'a cell_outcome = {
  c_key : string;
  c_result : ('a, Fail.t) result;
  c_retries : int;
  c_resumed : bool;
}

type report = {
  r_total : int;
  r_computed : int;
  r_resumed : int;
  r_retries : int;
  r_failed : (string * Fail.t) list;
}

(* Run every cell in order (parallelism lives INSIDE a cell, via
   Api's [jobs]; cells are sequential so the manifest is an ordered
   checkpoint log).  With [resume] and a manifest, completed cells are
   replayed through [decode] instead of recomputed (a record that does
   not decode is recomputed, see [replay]); computed cells are
   recorded through [encode]. *)
let run_corpus ?(policy = default_policy) ?manifest ?(resume = false)
    ~(encode : 'a -> string) ~(decode : string -> 'a)
    (cells : (string * (attempt:int -> Budget.t -> ('a, Fail.t) result)) list) :
    'a cell_outcome list * report =
  let computed = ref 0 and resumed = ref 0 and retries = ref 0 in
  let failed = ref [] in
  let outcomes =
    List.map
      (fun (key, f) ->
        match replay ?manifest ~resume ~decode key with
        | Some v ->
          incr resumed;
          { c_key = key; c_result = Ok v; c_retries = 0; c_resumed = true }
        | None -> (
          let result, r = run_cell ~policy ~key f in
          retries := !retries + r;
          match result with
          | Ok v ->
            incr computed;
            (match manifest with
            | Some m -> Manifest.record m ~key ~payload:(encode v)
            | None -> ());
            { c_key = key; c_result = Ok v; c_retries = r; c_resumed = false }
          | Error fail ->
            failed := (key, fail) :: !failed;
            { c_key = key; c_result = Error fail; c_retries = r;
              c_resumed = false }))
      cells
  in
  ( outcomes,
    { r_total = List.length cells;
      r_computed = !computed;
      r_resumed = !resumed;
      r_retries = !retries;
      r_failed = List.rev !failed } )
