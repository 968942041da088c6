(* Image-grain extraction memo (DESIGN.md §11).

   One process-wide table maps an image digest (the five extraction
   config fields, the code base and the code bytes — everything
   [Exec.summarize_r] and the prefilter read) to that image's harvest,
   recorded as converted gadget records: the start count, then for each
   start that passed the prefilter its offset, the faults it tallied and
   its gadget entries with placeholder ids.  [Extract.harvest_r] looks
   the image up once per request; a hit replays the records without
   decoding or symbolically executing anything, drawing ids and
   consulting the chaos hook exactly as a fresh harvest would, so a hit
   is bit-identical to a fresh compute.

   [with_store] persists the table — plus the solver memo
   ([Solver.pool_memo]), which is how PLAN INSTANTIATION consults the
   store: its model-search outcomes are pure functions of (pool key,
   open residual, free variables) keys, so pre-seeding them answers
   warm-start queries without a search — through
   [Gp_util.Store]'s checksummed format and its write-ahead journal.  A
   store that fails any check (missing, corrupt, version-stale)
   degrades to a cold run; the session's report records the reason.

   Thread safety: one lookup per request, so one [Hashtbl] behind one
   mutex; first-write-wins, so racing domains at worst duplicate a
   harvest.  Opening and closing a session are main-domain operations;
   image appends run on whichever domain ran the harvest. *)

open Gp_smt
module Bin = Gp_util.Store.Bin

(* v2: State.t gained a list of undecidable alias comparisons, which
   Exec.put_state serialized — v1 summary payloads no longer decode.
   v3: the store gained the "fingerprints" section (DESIGN.md §17).
   Old readers would skip the unknown section harmlessly, but a NEW
   reader must not trust fingerprints written by a build whose lane
   semantics it cannot verify — a wrong mask silently skips real
   probes — so the addition bumps the schema and v2 stores demote
   through the usual stale path.
   v4: the suffix-compositional summarizer is gone (DESIGN.md §16):
   State.t lost the alias-comparison list again, so v3 summary payloads
   no longer decode, and the "suffixes" section is neither written nor
   read.
   v5: the fingerprint index is gone (DESIGN.md §17).  A v4 store
   carries a "fingerprints" section this build neither reads nor
   rewrites; the bump demotes it to cold instead of importing a store
   whose section set no build of this schema wrote.
   v6: subsumption no longer searches (DESIGN.md §12), so the
   "solver.check" and "solver.equal" memo sections lost their writers;
   the store holds "summaries" and "solver.pool" only.  A v5 store's
   extra sections would be skipped harmlessly, but the bump demotes it
   to cold for the same reason as v5: no build of this schema wrote its
   section set.
   v7: the per-start "summaries" section is gone; the store holds
   "images" (one converted harvest per image digest) and
   "solver.pool".
   v8: "solver.pool" holds the one solver memo — per entry the pool
   key, the open residual, the free names and the search outcome — in
   place of (pool key, canonical conjunction) -> verdict entries.  A v7
   section would not decode as the new entries, so v7 stores demote to
   cold. *)
let schema_version = 8
let file_name = "summaries.gpst"
let images_section = "images"

type record = {
  r_pos : int;
  r_fails : Fail.t list;
  r_entries : Gadget.t option list;
}

type value = { v_starts : int; v_records : record list }

let tbl : (string, value) Hashtbl.t = Hashtbl.create 64
let tbl_lock = Mutex.create ()

let size () = Mutex.protect tbl_lock (fun () -> Hashtbl.length tbl)

(* always 0: stubs bench/e2e still reads (see incr.mli) *)
let suffix_size () = 0
let fp_size () = 0

let reset () = Mutex.protect tbl_lock (fun () -> Hashtbl.reset tbl)

let find key = Mutex.protect tbl_lock (fun () -> Hashtbl.find_opt tbl key)

(* Insert unless present; [true] iff this call inserted. *)
let add_new key v =
  Mutex.protect tbl_lock (fun () ->
      if Hashtbl.mem tbl key then false
      else begin
        Hashtbl.add tbl key v;
        true
      end)

(* Forward hook into the journal (defined below): fired once per fresh
   insert so journaled runs append each image's record as it lands. *)
let fresh_hook : (string -> value -> unit) ref = ref (fun _ _ -> ())

let add key v = if add_new key v then !fresh_hook key v

let fold_all f acc = Mutex.protect tbl_lock (fun () -> Hashtbl.fold f tbl acc)

(* ----- record codec ----- *)

(* A record holds only the faults [Extract] tallies per start. *)
let put_fail b = function
  | Fail.Decode_fault (a, why) -> Bin.u8 b 0; Bin.i64 b a; Bin.str b why
  | Fail.Symx_unsupported (a, why) -> Bin.u8 b 1; Bin.i64 b a; Bin.str b why
  | f -> invalid_arg ("Incr.encode: " ^ Fail.to_string f)

let get_fail s pos =
  let tag = Bin.gu8 s pos in
  let a = Bin.gi64 s pos in
  let why = Bin.gstr s pos in
  match tag with
  | 0 -> Fail.Decode_fault (a, why)
  | 1 -> Fail.Symx_unsupported (a, why)
  | _ -> raise Bin.Truncated

let encode v =
  let w = Term.Ser.writer () in
  let b = Buffer.create 4096 in
  Bin.int_ b v.v_starts;
  Bin.list b
    (fun r ->
      Bin.int_ b r.r_pos;
      Bin.list b (put_fail b) r.r_fails;
      Bin.list b
        (function
          | None -> Bin.u8 b 0
          | Some g -> Bin.u8 b 1; Gadget.put w b g)
        r.r_entries)
    v.v_records;
  Buffer.contents b

let decode s =
  let r = Term.Ser.reader () in
  let pos = ref 0 in
  let v_starts = Bin.gint s pos in
  let v_records =
    Bin.glist s pos (fun () ->
        let r_pos = Bin.gint s pos in
        let r_fails = Bin.glist s pos (fun () -> get_fail s pos) in
        let r_entries =
          Bin.glist s pos (fun () ->
              match Bin.gu8 s pos with
              | 0 -> None
              | 1 -> Some (Gadget.get r s pos)
              | _ -> raise Bin.Truncated)
        in
        { r_pos; r_fails; r_entries })
  in
  if !pos <> String.length s then raise Bin.Truncated;
  { v_starts; v_records }

type load_info = {
  li_entries : int;       (* entries imported from the base store *)
  li_wal_replayed : int;  (* entries recovered from the journal's valid prefix *)
  li_wal_truncated : int; (* bytes dropped from a torn journal tail; 0 = clean *)
}

type status =
  | Loaded of load_info
  | Absent             (* no store file: a plain cold run *)
  | Rejected of string (* found but unusable; demoted to cold, reason kept *)

let path ~dir = Filename.concat dir file_name
let wal_path ~dir = Gp_util.Store.Wal.path_of (path ~dir)

(* Merge decoded sections into the table + solver memos; returns the
   entry count.  Deserializes outside the lock; first-write-wins
   inside.  Raises [Bin.Truncated] on payloads that pass their
   checksums but fail to decode (writer/reader schema skew the version
   field missed). *)
let import_sections sections =
  let n = ref 0 in
  List.iter
    (fun { Gp_util.Store.name; entries } ->
      if name = images_section then begin
        n := !n + List.length entries;
        let decoded = List.map (fun (k, v) -> (k, decode v)) entries in
        List.iter (fun (k, v) -> ignore (add_new k v)) decoded
      end)
    sections;
  n := !n + Solver.import_memos sections;
  !n

(* Regroup a WAL replay (flat, append-ordered) into store sections so
   the one import path serves both.  Append order within a section is
   preserved; first-write-wins makes replay idempotent even when the
   journal holds records the last compaction already folded in. *)
let sections_of_replay (r : Gp_util.Store.Wal.replay) =
  let names = ref [] in
  let by_name = Hashtbl.create 4 in
  List.iter
    (fun (section, k, v) ->
      match Hashtbl.find_opt by_name section with
      | Some acc -> acc := (k, v) :: !acc
      | None ->
        names := section :: !names;
        Hashtbl.add by_name section (ref [ (k, v) ]))
    r.Gp_util.Store.Wal.entries;
  List.rev_map
    (fun name ->
      { Gp_util.Store.name; entries = List.rev !(Hashtbl.find by_name name) })
    !names

let load ~dir =
  let base =
    match Gp_util.Store.load ~schema:schema_version (path ~dir) with
    | Error Gp_util.Store.Missing -> `Absent
    | Error e -> `Rejected (Gp_util.Store.error_reason e)
    | Ok sections -> `Ok sections
  in
  match base with
  | `Rejected why -> Rejected why
  | (`Absent | `Ok _) as base -> (
    let wal =
      match Gp_util.Store.Wal.read ~schema:schema_version (wal_path ~dir) with
      | Error Gp_util.Store.Missing -> `Absent
      | Error e -> `Rejected ("wal " ^ Gp_util.Store.error_reason e)
      | Ok r -> `Ok r
    in
    match wal with
    | `Rejected why ->
      (* a journal we can't even parse the header of is not a torn
         tail — it's a foreign/stale file; demote the whole store so
         we never mix its records in *)
      Rejected why
    | (`Absent | `Ok _) as wal -> (
      match (base, wal) with
      | `Absent, `Absent -> Absent
      | `Absent, `Ok { Gp_util.Store.Wal.entries = []; torn_bytes = 0; _ } ->
        Absent
      | _ -> (
        match
          let n =
            match base with `Ok sections -> import_sections sections | `Absent -> 0
          in
          let m, torn =
            match wal with
            | `Ok r ->
              (import_sections (sections_of_replay r), r.Gp_util.Store.Wal.torn_bytes)
            | `Absent -> (0, 0)
          in
          (n, m, torn)
        with
        | n, m, torn ->
          Loaded { li_entries = n; li_wal_replayed = m; li_wal_truncated = torn }
        | exception Gp_util.Store.Bin.Truncated ->
          (* checksummed bytes that still fail to decode mean a
             writer/reader schema skew the version field missed; treat
             exactly like any other unusable store *)
          Rejected "corrupt: entry decode")))

(* ----- the store session -----

   Every [--cache-dir] user — one CLI request, a survey sweep, the
   daemon — opens the store through [with_store], which brackets a
   computation with one write-ahead journal: the open merges base file
   + journal into the in-memory table and solver memo and takes the
   dir's advisory lock; every fresh image record is appended (and handed
   to the OS) as it is produced, and solver-memo deltas are appended +
   fsync'd at each [journal_checkpoint]; when the computation returns,
   compaction folds the journal into the base store atomically (fsync'd
   save, then WAL reset).  A crash between the two leaves
   already-compacted records in the WAL, whose replay is idempotent.

   Single writer: a second writer (same process or another) demotes to
   read-only and reports [Store_locked].  Journal I/O errors mid-run
   demote to in-memory-only rather than killing the run.  Every store
   failure met on the way lands in the session's report, never
   silently dropped. *)

type journal = {
  j_dir : string;
  j_wal : Gp_util.Store.Wal.t;
  j_lock : Gp_util.Store.lock;
  j_seen : (string, unit) Hashtbl.t; (* section ^ "\x00" ^ key already durable *)
  j_mutex : Mutex.t;
  mutable j_memo_mark : int;
      (* [Solver.memo_count] at the last checkpoint: memos are add-only
         within a run, so an unchanged count means no delta — the
         checkpoint skips the serializing export scan entirely *)
}

let journal_st : journal option ref = ref None
let lock_name = ".store.lock"

(* The open session's store failures, newest first; appends on worker
   domains may add to it, hence the mutex. *)
let session_open = ref false
let session_fails : Fail.t list ref = ref []
let fails_mutex = Mutex.create ()

let note_fail f =
  Mutex.protect fails_mutex (fun () -> session_fails := f :: !session_fails)

(* Write the current table + solver memos atomically (temp file + fsync
   + rename).  Only compaction calls it, under the journal's lock. *)
let save ~dir =
  let snapshot = fold_all (fun k v acc -> (k, v) :: acc) [] in
  let entries =
    snapshot |> List.map (fun (k, v) -> (k, encode v)) |> List.sort compare
  in
  let sections =
    { Gp_util.Store.name = images_section; entries } :: Solver.export_memos ()
  in
  Gp_util.Store.save ~schema:schema_version (path ~dir) sections

(* The reason of a real I/O failure; anything else (a simulated crash
   above all) is not ours to absorb. *)
let io_reason = function
  | Sys_error why | Failure why -> Some why
  | Unix.Unix_error (e, fn, _) -> Some (fn ^ ": " ^ Unix.error_message e)
  | _ -> None

let release j =
  journal_st := None;
  (try Gp_util.Store.Wal.close j.j_wal with _ -> ());
  Gp_util.Store.unlock j.j_lock

(* Journal I/O failed mid-run: carry on in memory only, and say so. *)
let demote what why =
  match !journal_st with
  | None -> ()
  | Some j ->
    release j;
    note_fail (Fail.Store_rejected (what ^ ": " ^ why))

let seen_key section key = section ^ "\x00" ^ key

(* Mark everything currently durable (base store + replayed WAL +
   already-exported memos) so checkpoints only append deltas. *)
let journal_mark_existing j =
  Mutex.protect j.j_mutex (fun () ->
      fold_all
        (fun k _ () ->
          Hashtbl.replace j.j_seen (seen_key images_section k) ())
        ();
      List.iter
        (fun { Gp_util.Store.name; entries } ->
          List.iter
            (fun (k, _) -> Hashtbl.replace j.j_seen (seen_key name k) ())
            entries)
        (Solver.export_memos ());
      j.j_memo_mark <- Solver.memo_count ())

type mode = [ `Off | `Journaling | `Read_only of string ]

(* Load, lock, open the WAL.  An unusable on-disk state (corrupt or
   stale) is discarded once the lock is ours — journaling over it would
   mix a fresh run into rejected bytes — and the reject reason is
   already in the status. *)
let journal_open ~dir : status * mode =
  let status = load ~dir in
  (match status with
  | Rejected why -> note_fail (Fail.Store_rejected why)
  | Loaded { li_wal_truncated = torn; _ } when torn > 0 ->
    note_fail (Fail.Wal_torn (Printf.sprintf "%d byte(s) dropped" torn))
  | Loaded _ | Absent -> ());
  let mode =
    match Gp_util.Store.try_lock ~name:lock_name dir with
    | Error who ->
      note_fail (Fail.Store_locked who);
      `Read_only who
    | Ok l -> (
      (match status with
      | Rejected _ ->
        (try Sys.remove (path ~dir) with Sys_error _ -> ());
        (try Sys.remove (wal_path ~dir) with Sys_error _ -> ())
      | Absent | Loaded _ -> ());
      match
        Gp_util.Store.Wal.open_append ~schema:schema_version (wal_path ~dir)
      with
      | Error why ->
        Gp_util.Store.unlock l;
        note_fail (Fail.Store_rejected ("wal open: " ^ why));
        `Read_only why
      | Ok (w, _) ->
        let j =
          { j_dir = dir; j_wal = w; j_lock = l;
            j_seen = Hashtbl.create 4096; j_mutex = Mutex.create ();
            j_memo_mark = -1 }
        in
        journal_mark_existing j;
        journal_st := Some j;
        `Journaling)
  in
  (status, mode)

(* Append one image record.  Called via [add] from the domain that ran
   the harvest, after its merge; serialization happens outside every
   lock, the WAL has its own mutex.  The record is handed to the OS at
   once, so a run that dies before its next checkpoint still leaves it
   on disk.  [Faultsim.Crashed] must escape (simulated process death);
   real I/O failures demote. *)
let journal_append_image key v =
  match !journal_st with
  | None -> ()
  | Some j ->
    let fresh =
      Mutex.protect j.j_mutex (fun () ->
          let sk = seen_key images_section key in
          if Hashtbl.mem j.j_seen sk then false
          else begin
            Hashtbl.replace j.j_seen sk ();
            true
          end)
    in
    if fresh then begin
      let value = encode v in
      try
        Gp_util.Store.Wal.append j.j_wal ~section:images_section ~key ~value;
        Gp_util.Store.Wal.flush j.j_wal
      with e -> (
        match io_reason e with
        | Some why -> demote "journal append" why
        | None -> raise e)
    end

(* Durability point: append the solver-memo delta since the last
   checkpoint, then fsync. *)
let journal_checkpoint () =
  match !journal_st with
  | None -> ()
  | Some j -> (
    try
      if Solver.memo_count () <> j.j_memo_mark then begin
        let fresh = ref [] in
        Mutex.protect j.j_mutex (fun () ->
            List.iter
              (fun { Gp_util.Store.name; entries } ->
                List.iter
                  (fun (k, v) ->
                    let sk = seen_key name k in
                    if not (Hashtbl.mem j.j_seen sk) then begin
                      Hashtbl.replace j.j_seen sk ();
                      fresh := (name, k, v) :: !fresh
                    end)
                  entries)
              (Solver.export_memos ()));
        List.iter
          (fun (section, key, value) ->
            Gp_util.Store.Wal.append j.j_wal ~section ~key ~value)
          (List.rev !fresh);
        j.j_memo_mark <- Solver.memo_count ()
      end;
      (* with no new memos this only makes pending image appends
         durable (a no-op when clean) *)
      Gp_util.Store.Wal.sync j.j_wal
    with e -> (
      match io_reason e with
      | Some why -> demote "checkpoint" why
      | None -> raise e))

(* Compaction: fold the journal into the base store with one fsync'd
   atomic [save], chop the WAL back to a bare header, and release the
   writer and the lock. *)
let journal_close () =
  match !journal_st with
  | None -> ()
  | Some j -> (
    match
      match save ~dir:j.j_dir with
      | Ok () -> Gp_util.Store.Wal.reset j.j_wal
      | Error why -> failwith why
    with
    | () -> release j
    | exception e -> (
      match io_reason e with
      | Some why -> demote "compaction" why
      | None -> raise e))

(* Simulated-crash teardown: release fds and the lock without flushing
   or compacting, leaving the on-disk state exactly as at the crash.
   The in-memory table is NOT touched — tests reset the world
   themselves to model the restart. *)
let journal_abandon () =
  match !journal_st with
  | None -> ()
  | Some j ->
    journal_st := None;
    Gp_util.Store.Wal.abandon j.j_wal;
    Gp_util.Store.unlock j.j_lock

type report = { st_status : status; st_mode : mode; st_fails : Fail.t list }

let report status mode =
  { st_status = status;
    st_mode = mode;
    st_fails = Mutex.protect fails_mutex (fun () -> List.rev !session_fails) }

let loaded r =
  match r.st_status with
  | Loaded li -> li.li_entries + li.li_wal_replayed
  | Absent | Rejected _ -> 0

let with_store ~dir f =
  match dir with
  | None ->
    let r = { st_status = Absent; st_mode = `Off; st_fails = [] } in
    (f r, r)
  | Some dir ->
    if !session_open then invalid_arg "Incr.with_store: a session is already open";
    session_open := true;
    Fun.protect
      ~finally:(fun () ->
        session_open := false;
        Mutex.protect fails_mutex (fun () -> session_fails := []))
      (fun () ->
        let status, mode = journal_open ~dir in
        match
          let v = f (report status mode) in
          journal_close ();
          v
        with
        | v -> (v, report status mode)
        | exception e ->
          (* simulated process death (or any real abort), in [f] or in
             compaction: drop the fds WITHOUT flushing — a normal close
             here would complete the very writes the crash is supposed
             to have torn *)
          journal_abandon ();
          raise e)

let () = fresh_hook := journal_append_image
