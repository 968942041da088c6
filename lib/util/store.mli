(** Versioned, checksummed binary store for content-addressed caches
    (DESIGN.md §11).

    A store file is a list of named sections, each a list of
    [(key, value)] string pairs.  The file carries a magic tag, a
    format version (owned by this module), a schema version (owned by
    the caller — bump it whenever the payload encoding changes), a
    64-bit FNV-1a checksum per entry and one over the whole file.
    {!load} never raises: every way a file can be unusable maps to a
    {!load_error} so callers can fall back to a cold run. *)

(** Little-endian binary primitives shared by every serializer in the
    tree (terms, formulas, summaries).  Readers take the source string
    and a mutable cursor; out-of-bounds reads raise {!Bin.Truncated}. *)
module Bin : sig
  exception Truncated

  val u8 : Buffer.t -> int -> unit
  val i64 : Buffer.t -> int64 -> unit
  val int_ : Buffer.t -> int -> unit
  val str : Buffer.t -> string -> unit
  val bool_ : Buffer.t -> bool -> unit

  val gu8 : string -> int ref -> int
  val gi64 : string -> int ref -> int64
  val gint : string -> int ref -> int
  val gstr : string -> int ref -> string
  val gbool : string -> int ref -> bool

  val list : Buffer.t -> ('a -> unit) -> 'a list -> unit
  (** A count, then each element. *)

  val glist : string -> int ref -> (unit -> 'a) -> 'a list
  (** Inverse of {!list}: reads the count with {!gint} (a negative one
      raises {!Truncated}), then calls the reader once per element, in
      order. *)
end

val fnv64 : ?h:int64 -> string -> int64
(** 64-bit FNV-1a; [h] seeds chaining ([fnv64 ~h:(fnv64 k) v]). *)

val fnv64_i64 : ?h:int64 -> int64 -> int64
(** Fold one 64-bit word (little-endian byte order) into an FNV-1a
    chain without building an intermediate string — for structural
    hashers that mix constants and tags directly. *)

val format_version : int

type section = { name : string; entries : (string * string) list }

type load_error =
  | Missing            (** no file at that path *)
  | Stale of string    (** readable, but format or schema version mismatch *)
  | Corrupt of string  (** bad magic, truncation, or checksum mismatch *)

val error_reason : load_error -> string

val encode : schema:int -> section list -> string
val decode : schema:int -> string -> (section list, load_error) result

val load : schema:int -> string -> (section list, load_error) result
val save : schema:int -> string -> section list -> (unit, string) result
(** [save] writes to a temp file in the target directory, fsyncs it,
    and renames it into place (atomic on POSIX); the directory is
    created if needed.  Errors (permissions, disk full) are returned,
    never raised. *)

val mkdir_p : string -> unit

(** {1 Crash points}

    Named durability points fired just before the dangerous operation
    ("wal-append", "save-rename", and harness-level points such as
    "mid-stage").  The default hook is a no-op; [Faultsim.with_crash_at]
    installs one that raises to simulate process death. *)

val crash_hook : (string -> unit) ref
val crash_point : string -> unit

(** {1 Advisory locking}

    Single-writer discipline for a cache directory: [lockf] for the
    cross-process guarantee plus an in-process registry (fcntl locks
    never conflict within one process).  A second writer gets [Error]
    and must demote to read-only. *)

type lock

val try_lock : ?name:string -> string -> (lock, string) result
(** [try_lock dir] takes [dir/name] (default [".lock"]).  Non-blocking:
    [Error reason] if another writer — in this process or another —
    holds it. *)

val unlock : lock -> unit

(** {1 Write-ahead log}

    Append-only, per-record checksummed journal kept as a sibling of a
    store file ([base ^ ".wal"]).  Recovery walks the file from the
    front and stops at the first short or checksum-failing record:
    truncating the file at {e any} byte boundary yields the valid
    record prefix (never an exception, never a wrong entry), and
    {!Wal.open_append} physically truncates the torn tail before
    appending resumes. *)

module Wal : sig
  val path_of : string -> string
  (** [path_of base] is [base ^ ".wal"]. *)

  type replay = {
    entries : (string * string * string) list;
        (** [(section, key, value)] in append order *)
    torn_bytes : int;   (** bytes dropped from a torn tail; 0 = clean *)
    valid_bytes : int;  (** file offset where the valid prefix ends *)
  }

  val decode : schema:int -> string -> (replay, load_error) result
  val read : schema:int -> string -> (replay, load_error) result

  type t

  val open_append : schema:int -> string -> (t * replay, string) result
  (** Replay the valid prefix, truncate any torn tail on disk, and
      open a writer positioned at the end.  Missing/empty files get a
      fresh header.  Foreign or stale files are an [Error] — the
      caller decides whether to discard and start over. *)

  val append : t -> section:string -> key:string -> value:string -> unit
  (** Buffered append of one checksummed record (thread-safe).  Raises
      [Failure] on I/O errors or append-after-close. *)

  val appended : t -> int

  val flush : t -> unit
  (** Hand every buffered record to the OS without an fsync: it then
      survives the process dying ({!abandon}), though not power
      loss. *)

  val sync : t -> unit
  (** Flush + fsync: everything appended so far survives power loss. *)

  val reset : t -> unit
  (** Chop back to a bare header after a successful compaction. *)

  val close : t -> unit

  val abandon : t -> unit
  (** Simulated-crash teardown: drop the fd {e without} flushing, as if
      the process had died.  Test harness only. *)
end
