(** Image-grain extraction memo (DESIGN.md §11).

    A process-wide table from an image digest — the five
    [Extract.config] fields, the code base and the code bytes — to that
    image's harvest, kept as converted gadget records.
    [Extract.harvest_r] looks the image up once per request and replays
    a hit without decoding or symbolically executing anything; the
    replay draws gadget ids and consults the chaos hook exactly as a
    fresh harvest does, so cached and uncached runs are bit-identical
    (the differential suite checks this at jobs 1 and 4).
    {!load}/{!save} persist the table — along with the solver's
    pool-keyed verdict memo, which is how plan instantiation consults
    the store — via [Gp_util.Store]'s checksummed format, giving warm
    starts across process invocations for the same image. *)

type record = {
  r_pos : int;                       (** code offset of the start *)
  r_fails : Fail.t list;
      (** faults the start tallied, in order: [Symx_unsupported] and
          conversion [Decode_fault]s (the only two a record holds) *)
  r_entries : Gadget.t option list;
      (** one per converted summary, placeholder ids: [Some g] when
          usable, [None] when not (it still draws an id) *)
}
(** One start that passed the harvest prefilter. *)

type value = {
  v_starts : int;          (** start offsets the harvest examined *)
  v_records : record list; (** prefilter survivors, in position order *)
}
(** One image's harvest. *)

val find : string -> value option

val add : string -> value -> unit
(** First-write-wins, like every shared cache here: racing domains at
    worst duplicate a harvest, and both arrive at the same value. *)

val size : unit -> int
(** Images in the table. *)

val reset : unit -> unit

val suffix_size : unit -> int
(** Always 0: the suffix store is gone (DESIGN.md §16).  Kept only
    because bench/e2e reads it; drop it with the next change to the
    benchmark. *)

val fp_size : unit -> int
(** Always 0: the fingerprint store is gone (DESIGN.md §17).  Kept only
    because bench/e2e reads it; drop it with the next change to the
    benchmark. *)

(** {1 Persistence} *)

val schema_version : int
(** Bump whenever record/term/verdict encodings change; older store
    files are then rejected as stale and runs fall back to cold. *)

val file_name : string
(** Store file inside a [cache_dir] ("summaries.gpst"). *)

val path : dir:string -> string

type load_info = {
  li_entries : int;
      (** entries imported from the base store (images + verdicts) *)
  li_wal_replayed : int;
      (** entries recovered from the journal's valid prefix *)
  li_wal_truncated : int;
      (** bytes dropped from a torn journal tail; 0 = clean *)
}

type status =
  | Loaded of load_info
  | Absent             (** no store file: a plain cold run *)
  | Rejected of string (** found but unusable (corrupt/stale); cold run *)

val load : dir:string -> status
(** Merge the on-disk store — base file plus the valid prefix of any
    write-ahead journal sibling — into the in-memory table and solver
    memos (existing entries win).  Never raises: every failure mode is
    a {!status}. *)

val save : dir:string -> (unit, string) result
(** Write the current table + solver memos atomically (temp file +
    fsync + rename), holding the dir's advisory lock for the duration
    — unless this process's own journal already holds it (compaction).
    A dir locked by another writer (e.g. a resident daemon) returns an
    [Error] that {!save_locked} recognizes, so callers demote to
    read-only instead of clobbering.  Errors are returned, never
    raised. *)

val save_locked : string -> bool
(** [true] iff a {!save} error means the dir was locked by another
    writer (the clean second-writer demotion) rather than an I/O
    failure. *)

(** {1 Write-ahead journal mode}

    For long sweeps (DESIGN.md §13): {!journal_open} takes the cache
    dir's advisory lock and opens [summaries.gpst.wal]; from then on
    every fresh image record is appended as produced and solver-memo deltas
    are appended + fsync'd at each {!journal_checkpoint}, so a crash
    at any instant loses at most the work since the last checkpoint.
    {!journal_close} compacts WAL → base store atomically.  A second
    writer demotes to [`Read_only] instead of corrupting. *)

val wal_path : dir:string -> string

type journal_open_result = {
  jo_status : status;  (** what the open loaded (base + WAL replay) *)
  jo_mode : [ `Journaling | `Read_only of string ];
}

val journal_open : dir:string -> journal_open_result
val journaling : unit -> bool

val journal_error : unit -> string option
(** Sticky reason if journal I/O failed mid-run and the run demoted to
    in-memory-only. *)

val journal_checkpoint : unit -> (int, string) result
(** Append the solver-memo delta since the last checkpoint, then
    fsync.  Returns the delta size.  No-op [Ok 0] when not
    journaling. *)

val journal_compact : unit -> (unit, string) result
(** Fold the journal into the base store (fsync'd atomic save), then
    reset the WAL to a bare header. *)

val journal_close : unit -> (unit, string) result
(** Compact, then release the writer and the lock. *)

val journal_abandon : unit -> unit
(** Simulated-crash teardown: drop fds and the lock {e without}
    flushing or compacting, leaving the on-disk state exactly as at
    the crash.  Test harness only. *)
