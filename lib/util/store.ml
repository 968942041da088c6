(* Binary building blocks for the tree's durable and wire formats: the
   little-endian codec primitives, FNV-1a checksums, directory
   creation, named crash points, advisory locks and the write-ahead log
   the runner's cell manifest is kept in (DESIGN.md §13). *)

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

type load_error =
  | Missing
  | Unreadable of string (* the path exists but could not be read *)
  | Stale of string      (* readable file, wrong format/schema version *)
  | Corrupt of string    (* bad magic, bad header *)

let error_reason = function
  | Missing -> "missing"
  | Unreadable why -> "unreadable: " ^ why
  | Stale why -> "stale: " ^ why
  | Corrupt why -> "corrupt: " ^ why

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

(* ----- crash points ----- *)

(* Named durability points.  The hook is a no-op in production;
   Faultsim installs a raising hook to simulate process death exactly
   at a WAL append or mid-stage.
   Living here (not in the harness) keeps the layering: gp_util cannot
   see gp_harness, so the harness reaches down through this ref. *)
let crash_hook : (string -> unit) ref = ref (fun _ -> ())
let crash_point name = !crash_hook name

let errstr = function
  | Unix.Unix_error (e, fn, _) -> fn ^ ": " ^ Unix.error_message e
  | Sys_error why | Failure why -> why
  | e -> Printexc.to_string e

(* ----- advisory locking ----- *)

(* Single-writer discipline for a directory.  [lockf] gives the
   cross-process guarantee; because fcntl locks never conflict within
   one process, an in-process registry of held paths supplies the
   same-process half (a second manifest writer in one process must also
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
  (* Append-only journal file:

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
  let format_version = 1
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

  (* [Missing] only when nothing is at [path]: anything there that
     cannot be read (a directory, a permission or I/O error) is
     [Unreadable], so [open_append] refuses it instead of truncating it
     as a fresh file. *)
  let read ~schema path =
    if not (Sys.file_exists path) then Error Missing
    else
      match
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | exception Sys_error why -> Error (Unreadable why)
      | exception End_of_file -> Error (Unreadable "short read")
      | s -> decode ~schema s

  type t = {
    w_fd : Unix.file_descr;
    w_oc : out_channel;
    w_mutex : Mutex.t;
    mutable w_closed : bool;
  }

  (* Open for appending: replay the valid prefix, physically truncate
     any torn tail (so the file on disk is clean again), and position
     the writer at the end.  A missing or empty file gets a fresh
     header.  Wrong-schema, foreign and unreadable files are an error,
     left as they are — the caller decides whether to discard them. *)
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
              w_closed = false },
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
              w_closed = false },
            replay ))

  let append t ~section ~key ~value =
    Mutex.protect t.w_mutex (fun () ->
        if t.w_closed then failwith "wal: append after close";
        crash_point "wal-append";
        output_string t.w_oc (encode_record ~section ~key ~value))

  (* Durability point: everything appended so far survives power loss. *)
  let sync t =
    Mutex.protect t.w_mutex (fun () ->
        if not t.w_closed then begin
          flush t.w_oc;
          Unix.fsync t.w_fd
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
end
