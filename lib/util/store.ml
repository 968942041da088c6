(* Versioned, checksummed binary store for content-addressed caches.

   Layout (all integers little-endian):

     magic            "GPST"
     format_version   i64    -- layout of this file (owned here)
     schema_version   i64    -- meaning of the payload (owned by caller)
     nsections        i64
     section*         name:str  nentries:i64  (key:str value:str fnv:i64)*
     file_checksum    i64    -- FNV-1a over every byte before it

   Per-entry checksums cover key ^ value; the trailing file checksum
   covers headers and section names too, so a flipped byte anywhere in
   the file is detected.  [load] never raises: a missing file, a bad
   magic/truncation/checksum, or a version mismatch each map to their
   own constructor so callers can demote to a cold run and report why. *)

module Bin = struct
  exception Truncated

  let u8 b v = Buffer.add_uint8 b (v land 0xff)
  let i64 b v = Buffer.add_int64_le b v
  let int_ b v = i64 b (Int64.of_int v)

  let str b s =
    int_ b (String.length s);
    Buffer.add_string b s

  let bool_ b v = u8 b (if v then 1 else 0)

  (* [n > length - pos], not [pos + n > length]: a length field near
     [max_int] must not wrap the sum negative and reach [String.sub] *)
  let need s pos n =
    if !pos < 0 || n > String.length s - !pos then raise Truncated

  let gu8 s pos =
    need s pos 1;
    let v = Char.code s.[!pos] in
    incr pos; v

  let gi64 s pos =
    need s pos 8;
    let v = String.get_int64_le s !pos in
    pos := !pos + 8; v

  let gint s pos =
    let v = gi64 s pos in
    let i = Int64.to_int v in
    if Int64.of_int i <> v then raise Truncated;
    i

  let gstr s pos =
    let n = gint s pos in
    if n < 0 then raise Truncated;
    need s pos n;
    let v = String.sub s !pos n in
    pos := !pos + n; v

  let gbool s pos = gu8 s pos <> 0

  let list b put xs =
    int_ b (List.length xs);
    List.iter put xs

  let glist s pos get =
    let n = gint s pos in
    if n < 0 then raise Truncated;
    List.init n (fun _ -> get ())
end

(* FNV-1a, 64-bit. *)
let fnv64 ?(h = 0xcbf29ce484222325L) s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

(* Fold one 64-bit word into an FNV-1a chain, little-endian byte order,
   without materializing an 8-byte string.  Used by structural hashers
   (e.g. the dedup pass) that fold constants and tags directly. *)
let fnv64_i64 ?(h = 0xcbf29ce484222325L) v =
  let h = ref h in
  for i = 0 to 7 do
    let byte =
      Int64.to_int (Int64.logand (Int64.shift_right_logical v (i * 8)) 0xffL)
    in
    h := Int64.logxor !h (Int64.of_int byte);
    h := Int64.mul !h 0x100000001b3L
  done;
  !h

let magic = "GPST"
let format_version = 1

type section = { name : string; entries : (string * string) list }

type load_error =
  | Missing
  | Stale of string   (* readable file, wrong format/schema version *)
  | Corrupt of string (* bad magic, truncation, checksum mismatch *)

let error_reason = function
  | Missing -> "missing"
  | Stale why -> "stale: " ^ why
  | Corrupt why -> "corrupt: " ^ why

let encode ~schema sections =
  let b = Buffer.create (1 lsl 16) in
  Buffer.add_string b magic;
  Bin.int_ b format_version;
  Bin.int_ b schema;
  Bin.int_ b (List.length sections);
  List.iter
    (fun { name; entries } ->
      Bin.str b name;
      Bin.int_ b (List.length entries);
      List.iter
        (fun (k, v) ->
          Bin.str b k;
          Bin.str b v;
          Bin.i64 b (fnv64 ~h:(fnv64 k) v))
        entries)
    sections;
  Bin.i64 b (fnv64 (Buffer.contents b));
  Buffer.contents b

let decode ~schema s =
  let pos = ref 0 in
  try
    if String.length s < 4 || String.sub s 0 4 <> magic then
      Error (Corrupt "bad magic")
    else begin
      (* Verify the trailing whole-file checksum before trusting any
         length field: corruption of a length would otherwise misparse. *)
      let n = String.length s in
      if n < 12 then raise Bin.Truncated;
      let body = String.sub s 0 (n - 8) in
      let tail = ref (n - 8) in
      if Bin.gi64 s tail <> fnv64 body then Error (Corrupt "file checksum")
      else begin
        pos := 4;
        let fv = Bin.gint s pos in
        let sv = Bin.gint s pos in
        if fv <> format_version then
          Error (Stale (Printf.sprintf "format version %d, want %d" fv format_version))
        else if sv <> schema then
          Error (Stale (Printf.sprintf "schema version %d, want %d" sv schema))
        else begin
          let nsec = Bin.gint s pos in
          if nsec < 0 then raise Bin.Truncated;
          let sections =
            List.init nsec (fun _ ->
                let name = Bin.gstr s pos in
                let nent = Bin.gint s pos in
                if nent < 0 then raise Bin.Truncated;
                let entries =
                  List.init nent (fun _ ->
                      let k = Bin.gstr s pos in
                      let v = Bin.gstr s pos in
                      let sum = Bin.gi64 s pos in
                      if sum <> fnv64 ~h:(fnv64 k) v then
                        failwith "entry checksum";
                      (k, v))
                in
                { name; entries })
          in
          if !pos <> n - 8 then Error (Corrupt "trailing bytes")
          else Ok sections
        end
      end
    end
  with
  | Bin.Truncated -> Error (Corrupt "truncated")
  | Failure why -> Error (Corrupt why)

let load ~schema path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error _ -> Error Missing
  | exception End_of_file -> Error (Corrupt "short read")
  | s -> decode ~schema s

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

(* ----- crash points ----- *)

(* Named durability points.  The hook is a no-op in production;
   Faultsim installs a raising hook to simulate process death exactly
   at a WAL append, just before a checkpoint rename, or mid-stage.
   Living here (not in the harness) keeps the layering: gp_util cannot
   see gp_harness, so the harness reaches down through this ref. *)
let crash_hook : (string -> unit) ref = ref (fun _ -> ())
let crash_point name = !crash_hook name

let errstr = function
  | Unix.Unix_error (e, fn, _) -> fn ^ ": " ^ Unix.error_message e
  | Sys_error why | Failure why -> why
  | e -> Printexc.to_string e

(* Best-effort directory fsync so the rename itself is durable; some
   filesystems don't support fsync on a directory fd — ignore. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd

let save ~schema path sections =
  try
    let bytes = encode ~schema sections in
    let dir = Filename.dirname path in
    mkdir_p dir;
    if not (Sys.is_directory dir) then failwith (dir ^ ": not a directory");
    (* Atomic publish: write a sibling temp file, then rename over the
       target, so a crash mid-save leaves the old store intact and a
       concurrent reader never sees a half-written file.  The fsync
       before the rename closes the durability hole where the rename
       lands on disk with the data still in the page cache: after power
       loss the target would then name a short or empty file. *)
    let tmp = Filename.temp_file ~temp_dir:dir "store" ".tmp" in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc bytes;
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc));
    crash_point "save-rename";
    (* a failed rename takes its temp file with it (a crash above does
       not: it models the process dying) *)
    (try Sys.rename tmp path
     with e ->
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    fsync_dir dir;
    Ok ()
  with
  | Sys_error why | Failure why -> Error why
  | Unix.Unix_error _ as e -> Error (errstr e)

(* ----- advisory locking ----- *)

(* Single-writer discipline for a cache directory.  [lockf] gives the
   cross-process guarantee; because fcntl locks never conflict within
   one process, an in-process registry of held paths supplies the
   same-process half (a second journal writer in one process must also
   demote to read-only, and tests exercise exactly that). *)

type lock = { l_fd : Unix.file_descr; l_path : string }

let held_paths : (string, unit) Hashtbl.t = Hashtbl.create 4
let held_mutex = Mutex.create ()

let try_lock ?(name = ".lock") dir =
  mkdir_p dir;
  let path = Filename.concat dir name in
  Mutex.protect held_mutex (fun () ->
      if Hashtbl.mem held_paths path then
        Error "already held by this process"
      else
        match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 with
        | exception (Unix.Unix_error _ as e) -> Error (errstr e)
        | fd -> (
          match Unix.lockf fd Unix.F_TLOCK 0 with
          | () ->
            Hashtbl.add held_paths path ();
            Ok { l_fd = fd; l_path = path }
          | exception Unix.Unix_error ((Unix.EACCES | Unix.EAGAIN), _, _) ->
            Unix.close fd;
            Error "held by another process"
          | exception e ->
            Unix.close fd;
            Error (errstr e)))

let unlock l =
  Mutex.protect held_mutex (fun () -> Hashtbl.remove held_paths l.l_path);
  (try Unix.lockf l.l_fd Unix.F_ULOCK 0 with _ -> ());
  try Unix.close l.l_fd with _ -> ()

(* ----- write-ahead log ----- *)

module Wal = struct
  (* Append-only sibling of a store file:

       magic            "GPWL"
       format_version   i64
       schema_version   i64
       record*          len:i64  body  fnv64(body):i64
         where body =   section:str  key:str  value:str

     Each record is self-checksummed, so recovery can walk the file
     from the front and stop at the first record that is short or
     fails its checksum: everything before it is trusted (the valid
     prefix), everything from it on is a torn tail from a crash
     mid-append and is truncated on the next open.  There is no
     trailing whole-file checksum by design — the file is never
     complete while a run is alive. *)

  let magic = "GPWL"
  let suffix = ".wal"
  let path_of base = base ^ suffix

  let header ~schema =
    let b = Buffer.create 20 in
    Buffer.add_string b magic;
    Bin.int_ b format_version;
    Bin.int_ b schema;
    Buffer.contents b

  let header_len = 4 + 8 + 8

  let encode_record ~section ~key ~value =
    let body = Buffer.create (String.length key + String.length value + 32) in
    Bin.str body section;
    Bin.str body key;
    Bin.str body value;
    let body = Buffer.contents body in
    let b = Buffer.create (String.length body + 16) in
    Bin.int_ b (String.length body);
    Buffer.add_string b body;
    Bin.i64 b (fnv64 body);
    Buffer.contents b

  type replay = {
    entries : (string * string * string) list;
        (* (section, key, value), append order *)
    torn_bytes : int;   (* bytes dropped from the torn tail; 0 = clean *)
    valid_bytes : int;  (* file offset where the valid prefix ends *)
  }

  (* Decode never raises and is total over truncation: chopping the
     byte string at ANY boundary yields Ok with a prefix of the
     records (the property suite checks every boundary).  Only a
     full-length header that fails to be ours maps to Corrupt/Stale. *)
  let decode ~schema s =
    let n = String.length s in
    if n = 0 then Ok { entries = []; torn_bytes = 0; valid_bytes = 0 }
    else if n < header_len then
      if String.length s <= 4 && s = String.sub magic 0 (String.length s) then
        (* torn mid-header: nothing recoverable, but nothing wrong *)
        Ok { entries = []; torn_bytes = n; valid_bytes = 0 }
      else if n > 4 && String.sub s 0 4 = magic then
        Ok { entries = []; torn_bytes = n; valid_bytes = 0 }
      else Error (Corrupt "bad magic")
    else if String.sub s 0 4 <> magic then Error (Corrupt "bad magic")
    else begin
      let pos = ref 4 in
      (* a corrupted version field can overflow the int64->int
         conversion inside [gint]; that is Corrupt, not a crash *)
      match
        let fv = Bin.gint s pos in
        let sv = Bin.gint s pos in
        (fv, sv)
      with
      | exception Bin.Truncated -> Error (Corrupt "bad header")
      | fv, sv ->
      if fv <> format_version then
        Error
          (Stale (Printf.sprintf "format version %d, want %d" fv format_version))
      else if sv <> schema then
        Error (Stale (Printf.sprintf "schema version %d, want %d" sv schema))
      else begin
        let entries = ref [] in
        let valid = ref header_len in
        (try
           while !pos < n do
             let len = Bin.gint s pos in
             if len < 0 || len > n - !pos then raise Bin.Truncated;
             let body = String.sub s !pos len in
             pos := !pos + len;
             let sum = Bin.gi64 s pos in
             if sum <> fnv64 body then raise Bin.Truncated;
             let bpos = ref 0 in
             let section = Bin.gstr body bpos in
             let key = Bin.gstr body bpos in
             let value = Bin.gstr body bpos in
             if !bpos <> len then raise Bin.Truncated;
             entries := (section, key, value) :: !entries;
             valid := !pos
           done
         with Bin.Truncated -> ());
        Ok
          {
            entries = List.rev !entries;
            torn_bytes = n - !valid;
            valid_bytes = !valid;
          }
      end
    end

  let read ~schema path =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error _ -> Error Missing
    | exception End_of_file -> Error (Corrupt "short read")
    | s -> decode ~schema s

  type t = {
    w_fd : Unix.file_descr;
    w_oc : out_channel;
    w_mutex : Mutex.t;
    mutable w_appended : int;
    mutable w_dirty : bool;  (* bytes appended since the last fsync *)
    mutable w_closed : bool;
  }

  (* Open for appending: replay the valid prefix, physically truncate
     any torn tail (so the file on disk is clean again), and position
     the writer at the end.  A missing or empty file gets a fresh
     header.  Wrong-schema / foreign files are an error — the caller
     decides whether to discard and start over. *)
  let open_append ~schema path =
    match read ~schema path with
    | Error Missing | Ok { valid_bytes = 0; _ } -> (
      mkdir_p (Filename.dirname path);
      match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 with
      | exception (Unix.Unix_error _ as e) -> Error (errstr e)
      | fd ->
        Unix.ftruncate fd 0;
        let oc = Unix.out_channel_of_descr fd in
        set_binary_mode_out oc true;
        output_string oc (header ~schema);
        flush oc;
        Unix.fsync fd;
        Ok
          ( { w_fd = fd; w_oc = oc; w_mutex = Mutex.create ();
              w_appended = 0; w_dirty = false; w_closed = false },
            { entries = []; torn_bytes = 0; valid_bytes = header_len } ))
    | Error e -> Error (error_reason e)
    | Ok replay -> (
      match Unix.openfile path [ Unix.O_WRONLY ] 0o644 with
      | exception (Unix.Unix_error _ as e) -> Error (errstr e)
      | fd ->
        if replay.torn_bytes > 0 then Unix.ftruncate fd replay.valid_bytes;
        ignore (Unix.lseek fd replay.valid_bytes Unix.SEEK_SET);
        let oc = Unix.out_channel_of_descr fd in
        set_binary_mode_out oc true;
        Ok
          ( { w_fd = fd; w_oc = oc; w_mutex = Mutex.create ();
              w_appended = 0; w_dirty = false; w_closed = false },
            replay ))

  let append t ~section ~key ~value =
    Mutex.protect t.w_mutex (fun () ->
        if t.w_closed then failwith "wal: append after close";
        crash_point "wal-append";
        output_string t.w_oc (encode_record ~section ~key ~value);
        t.w_appended <- t.w_appended + 1;
        t.w_dirty <- true)

  let appended t = Mutex.protect t.w_mutex (fun () -> t.w_appended)

  (* Durability point: everything appended so far survives power loss.
     Skipped when nothing was appended since the last sync, so per-cell
     checkpoints on a fully warm sweep cost no I/O. *)
  let sync t =
    Mutex.protect t.w_mutex (fun () ->
        if (not t.w_closed) && t.w_dirty then begin
          flush t.w_oc;
          Unix.fsync t.w_fd;
          t.w_dirty <- false
        end)

  (* After a successful compaction into the base store the journal is
     spent: chop it back to a bare header.  A crash between the base
     rename and this truncate only leaves already-compacted records in
     the WAL — replaying them is idempotent (first-write-wins). *)
  let reset t =
    Mutex.protect t.w_mutex (fun () ->
        if not t.w_closed then begin
          flush t.w_oc;
          Unix.ftruncate t.w_fd header_len;
          ignore (Unix.lseek t.w_fd header_len Unix.SEEK_SET);
          Unix.fsync t.w_fd;
          t.w_appended <- 0;
          t.w_dirty <- false
        end)

  let close t =
    Mutex.protect t.w_mutex (fun () ->
        if not t.w_closed then begin
          t.w_closed <- true;
          (try
             flush t.w_oc;
             Unix.fsync t.w_fd
           with _ -> ());
          try close_out_noerr t.w_oc with _ -> ()
        end)

  (* Simulated-crash teardown: drop the fd without flushing the
     channel buffer, exactly as if the process had died.  Bytes not
     yet written by the OS stay unwritten; the next open replays what
     made it to disk. *)
  let abandon t =
    Mutex.protect t.w_mutex (fun () ->
        if not t.w_closed then begin
          t.w_closed <- true;
          try Unix.close t.w_fd with _ -> ()
        end)

  (* Hand everything appended so far to the OS, without an fsync: it
     then survives the process dying, though not the machine.  (Last in
     the module, so the functions above keep [Stdlib.flush].) *)
  let flush t =
    Mutex.protect t.w_mutex (fun () -> if not t.w_closed then flush t.w_oc)
end
