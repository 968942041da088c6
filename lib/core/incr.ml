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

   [load]/[save] round-trip the table — plus the solver memo
   ([Solver.pool_memo]), which is how PLAN INSTANTIATION consults the
   store: its model-search outcomes are pure functions of (pool key,
   open residual, free variables) keys, so pre-seeding them answers
   warm-start queries without a search — through
   [Gp_util.Store]'s checksummed format.  A store that fails any check
   (missing, corrupt, version-stale) degrades to a cold run; the caller
   records the reason and carries on.

   Thread safety: one lookup per request, so one [Hashtbl] behind one
   mutex; first-write-wins, so racing domains at worst duplicate a
   harvest.  [load]/[save] are main-domain operations (called outside
   the parallel sections by Api). *)

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

(* Journal state, declared before [save] because the snapshot path
   must recognize its own open journal (compaction saves while the
   journal legitimately holds the dir's lock). *)

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
let journal_error_r : string option ref = ref None
let lock_name = ".store.lock"

let locked_prefix = "locked: "

let save ~dir =
  (* Single-writer discipline on the snapshot path too: take the dir's
     advisory lock for the duration of the write, unless this process's
     own journal already holds it for [dir] (the compaction path saves
     under the journal's lock).  When a resident daemon holds the lock,
     a CLI save demotes cleanly — the caller quarantines the
     [locked_prefix]-tagged reason as [Fail.Store_locked] and keeps its
     in-memory results, the PR-6 second-writer demotion extended from
     journal open to plain saves (DESIGN.md §15). *)
  let own_journal =
    match !journal_st with Some j -> j.j_dir = dir | None -> false
  in
  let guard =
    if own_journal then Ok None
    else
      match Gp_util.Store.try_lock ~name:lock_name dir with
      | Ok l -> Ok (Some l)
      | Error who -> Error (locked_prefix ^ who)
  in
  match guard with
  | Error why -> Error why
  | Ok l ->
    Fun.protect
      ~finally:(fun () ->
        match l with Some l -> Gp_util.Store.unlock l | None -> ())
      (fun () ->
        let snapshot = fold_all (fun k v acc -> (k, v) :: acc) [] in
        let entries =
          snapshot
          |> List.map (fun (k, v) -> (k, encode v))
          |> List.sort compare
        in
        let sections =
          { Gp_util.Store.name = images_section; entries }
          :: Solver.export_memos ()
        in
        Gp_util.Store.save ~schema:schema_version (path ~dir) sections)

let save_locked why =
  String.length why >= String.length locked_prefix
  && String.sub why 0 (String.length locked_prefix) = locked_prefix

(* ----- write-ahead journal mode ----- *)

(* When a journal is open, every fresh image record is appended to the
   WAL as it is produced and solver-memo deltas are appended at each
   checkpoint, so a run killed at any instant loses at most the work
   since the last [journal_checkpoint] fsync.  [journal_compact] folds
   the journal into the base store atomically (fsync'd save, then WAL
   reset); a crash between the two leaves already-compacted records in
   the WAL, whose replay is idempotent.

   Single writer: the cache dir's advisory lock is taken on open; a
   second writer (same process or another) demotes to read-only and
   reports [Store_locked].  Journal I/O errors mid-run demote to
   in-memory-only (sticky [journal_error]) rather than killing the
   sweep. *)

let journaling () = !journal_st <> None
let journal_error () = !journal_error_r

let seen_key section key = section ^ "\x00" ^ key

let journal_demote why =
  match !journal_st with
  | None -> ()
  | Some j ->
    journal_st := None;
    journal_error_r := Some why;
    (try Gp_util.Store.Wal.close j.j_wal with _ -> ());
    Gp_util.Store.unlock j.j_lock

type journal_open_result = {
  jo_status : status;   (* what the open loaded (base + WAL replay) *)
  jo_mode : [ `Journaling | `Read_only of string ];
}

let journal_close_writer () =
  match !journal_st with
  | None -> ()
  | Some j ->
    journal_st := None;
    Gp_util.Store.Wal.close j.j_wal;
    Gp_util.Store.unlock j.j_lock

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

let journal_open ~dir =
  journal_close_writer ();
  journal_error_r := None;
  let status = load ~dir in
  match status with
  | Rejected _ ->
    (* the on-disk state is unusable; journaling over it would mix a
       fresh run into rejected bytes.  Discard both files and start a
       clean journaled run — the reject reason is already in [status]
       for the caller's quarantine ledger. *)
    (match Gp_util.Store.try_lock ~name:lock_name dir with
    | Error who -> { jo_status = status; jo_mode = `Read_only who }
    | Ok l -> (
      (try Sys.remove (path ~dir) with Sys_error _ -> ());
      (try Sys.remove (wal_path ~dir) with Sys_error _ -> ());
      match Gp_util.Store.Wal.open_append ~schema:schema_version (wal_path ~dir) with
      | Error why ->
        Gp_util.Store.unlock l;
        { jo_status = status; jo_mode = `Read_only why }
      | Ok (w, _) ->
        let j =
          { j_dir = dir; j_wal = w; j_lock = l;
            j_seen = Hashtbl.create 4096; j_mutex = Mutex.create ();
            j_memo_mark = -1 }
        in
        journal_mark_existing j;
        journal_st := Some j;
        { jo_status = status; jo_mode = `Journaling }))
  | Absent | Loaded _ -> (
    match Gp_util.Store.try_lock ~name:lock_name dir with
    | Error who -> { jo_status = status; jo_mode = `Read_only who }
    | Ok l -> (
      match Gp_util.Store.Wal.open_append ~schema:schema_version (wal_path ~dir) with
      | Error why ->
        Gp_util.Store.unlock l;
        { jo_status = status; jo_mode = `Read_only why }
      | Ok (w, _) ->
        let j =
          { j_dir = dir; j_wal = w; j_lock = l;
            j_seen = Hashtbl.create 4096; j_mutex = Mutex.create ();
            j_memo_mark = -1 }
        in
        journal_mark_existing j;
        journal_st := Some j;
        { jo_status = status; jo_mode = `Journaling }))

(* Append one image record.  Called via [add] from the domain that ran
   the harvest, after its merge; serialization happens outside every
   lock, the WAL has its own mutex.  [Faultsim.Crashed] must escape
   (simulated process death); real I/O failures demote. *)
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
        Gp_util.Store.Wal.append j.j_wal ~section:images_section ~key ~value
      with
      | Sys_error why | Failure why -> journal_demote why
      | Unix.Unix_error (e, fn, _) ->
        journal_demote (fn ^ ": " ^ Unix.error_message e)
    end

(* Durability point: append the solver-memo delta since the last
   checkpoint, then fsync.  Runs at cell boundaries (the corpus runner
   calls it after each completed cell). *)
let journal_checkpoint () =
  match !journal_st with
  | None -> Ok 0
  | Some j -> (
    try
      if Solver.memo_count () = j.j_memo_mark then begin
        (* no new memos since the last checkpoint: just make any
           pending image appends durable (a no-op when clean) *)
        Gp_util.Store.Wal.sync j.j_wal;
        Ok 0
      end
      else begin
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
      Gp_util.Store.Wal.sync j.j_wal;
      j.j_memo_mark <- Solver.memo_count ();
      Ok (List.length !fresh)
      end
    with
    | Sys_error why | Failure why ->
      journal_demote why;
      Error why
    | Unix.Unix_error (e, fn, _) ->
      let why = fn ^ ": " ^ Unix.error_message e in
      journal_demote why;
      Error why)

(* Fold the journal into the base store: one fsync'd atomic [save],
   then chop the WAL back to a bare header. *)
let journal_compact () =
  match !journal_st with
  | None -> Error "no journal open"
  | Some j -> (
    match save ~dir:j.j_dir with
    | Error why ->
      journal_demote why;
      Error why
    | Ok () ->
      Gp_util.Store.Wal.reset j.j_wal;
      Ok ())

let journal_close () =
  match !journal_st with
  | None -> Ok ()
  | Some _ -> (
    match journal_compact () with
    | Error why ->
      journal_close_writer ();
      Error why
    | Ok () ->
      journal_close_writer ();
      Ok ())

(* Simulated-crash teardown: release fds and the lock without flushing
   or compacting, leaving the on-disk state exactly as at the crash.
   The in-memory table is NOT touched — tests reset the world
   themselves to model the restart. *)
let journal_abandon () =
  (match !journal_st with
  | None -> ()
  | Some j ->
    journal_st := None;
    Gp_util.Store.Wal.abandon j.j_wal;
    Gp_util.Store.unlock j.j_lock);
  journal_error_r := None

let () = fresh_hook := journal_append_image
