(** Binary building blocks for the tree's durable and wire formats
    (DESIGN.md §13): codec primitives, FNV-1a checksums, named crash
    points, advisory locks, and the write-ahead log the runner's cell
    manifest ([Runner.Manifest]) is kept in. *)

(** Little-endian binary primitives shared by every codec in the tree
    (the manifest, the daemon's wire payloads).  Readers take the
    source string and a mutable cursor; out-of-bounds reads raise
    {!Bin.Truncated}. *)
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

type load_error =
  | Missing              (** nothing at that path *)
  | Unreadable of string (** something is there but could not be read *)
  | Stale of string      (** readable, but format or schema version mismatch *)
  | Corrupt of string    (** bad magic or header *)

val error_reason : load_error -> string

val mkdir_p : string -> unit

(** {1 Crash points}

    Named durability points fired just before the dangerous operation
    ("wal-append", and the harness-level "mid-stage").  The default
    hook is a no-op; [Faultsim.with_crash_at] installs one that raises
    to simulate process death. *)

val crash_hook : (string -> unit) ref
val crash_point : string -> unit

(** {1 Advisory locking}

    Single-writer discipline for a directory: [lockf] for the
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

    Append-only, per-record checksummed journal ([base ^ ".wal"]).
    Recovery walks the file from the front and stops at the first
    short or checksum-failing record:
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
  (** [Error Missing] only when nothing is at the path; anything there
      that cannot be read (a directory, an I/O error) is
      [Error (Unreadable why)]. *)

  type t

  val open_append : schema:int -> string -> (t * replay, string) result
  (** Replay the valid prefix, truncate any torn tail on disk, and
      open a writer positioned at the end.  Missing/empty files get a
      fresh header.  Foreign, stale and unreadable files are an [Error]
      and stay untouched — the caller decides whether to discard them. *)

  val append : t -> section:string -> key:string -> value:string -> unit
  (** Buffered append of one checksummed record (thread-safe).  Raises
      [Failure] on I/O errors or append-after-close. *)

  val sync : t -> unit
  (** Flush + fsync: everything appended so far survives power loss. *)

  val close : t -> unit

  val abandon : t -> unit
  (** Simulated-crash teardown: drop the fd {e without} flushing, as if
      the process had died.  Test harness only. *)
end
