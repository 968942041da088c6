(** Paged copy-on-write emulated memory: a few regions (code, data,
    stack, scratch), each cut into 4 KiB pages counted from its base.

    A region has a read-only base — the bytes given to {!map_bytes}, or
    none for a {!map}ped zero region — and private pages that start out
    absent.  An absent page reads through the base (or as zeros), and the
    first write to a page copies it from the base (or zero-fills it)
    into a private page; the base itself is never written.  Setting up a
    region therefore allocates nothing per byte, and a run pays for the
    pages it writes.

    Code is writable like any other page — real processes can be
    self-modifying and the simulated self-mod/JIT obfuscations rely on
    it — and a patched code page is private to this memory.

    Semantics are byte-granular whatever the page layout: an access
    faults at its first unmapped byte, a multi-byte write that runs off
    the mapped range commits the bytes before that one, and where
    regions overlap the most recently mapped one wins.

    A [t] belongs to one machine and is not shared across domains; the
    read-only bases may be shared by any number of them. *)

exception Fault of string
(** Raised on access to an unmapped address. *)

type t

val create : unit -> t

val map : t -> int64 -> int -> unit
(** [map t base size] adds a zeroed region.  Its pages allocate on
    first write. *)

val map_bytes : t -> int64 -> Bytes.t -> unit
(** [map_bytes t base bytes] adds a region whose contents start as
    [bytes].  The bytes are shared read-only, not copied: writes go to
    private page copies, and the caller must not mutate [bytes] while
    this memory is in use. *)

val read8 : t -> int64 -> int
val write8 : t -> int64 -> int -> unit

val read64 : t -> int64 -> int64
(** Little-endian 8-byte read. *)

val write64 : t -> int64 -> int64 -> unit

val read_bytes : t -> int64 -> int -> Bytes.t
(** Snapshot [len] bytes (faults if any byte is unmapped). *)

val write_bytes : t -> int64 -> Bytes.t -> unit

val read_cstring : t -> int64 -> string
(** NUL-terminated string at the address. *)

val is_mapped : t -> int64 -> bool
