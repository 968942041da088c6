(** Image-grain extraction memo (DESIGN.md §11).

    A process-wide table from an image digest — the five
    [Extract.config] fields, the code base and the code bytes — to that
    image's harvest, kept as converted gadget records.
    [Extract.harvest_r] looks the image up once per request and replays
    a hit without decoding or symbolically executing anything; the
    replay draws gadget ids and consults the chaos hook exactly as a
    fresh harvest does, so cached and uncached runs are bit-identical
    (the differential suite checks this at jobs 1 and 4).
    {!with_store} persists the table — along with the solver memo
    ({!Gp_smt.Solver.pool_memo}: model-search outcomes keyed on pool
    key, open residual and free variables), which is how plan
    instantiation consults the store — via [Gp_util.Store]'s
    checksummed format and write-ahead journal, giving warm starts
    across process invocations for the same image. *)

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
    a {!status}.  Read-only; {!with_store} opens a store for writing. *)

(** {1 The store session}

    The one way to open a store for writing (DESIGN.md §11, §13): the
    CLI's [scan], [plan] and [netperf], a survey sweep and the daemon
    each run inside one {!with_store}.  The open {!load}s the store and
    takes the dir's advisory lock, demoting to [`Read_only] if another
    writer holds it; from then on every fresh image record is appended
    to [summaries.gpst.wal] as it is produced (and handed to the OS, so
    it survives the process dying), and solver-memo deltas are appended
    and fsync'd at each {!journal_checkpoint}, so a crash loses at most
    the memo work since the last checkpoint.  When the computation
    returns, compaction folds the journal into the base store
    atomically.  Journal I/O failures demote the run to in-memory only;
    like every other store failure they are reported, never raised. *)

val wal_path : dir:string -> string

type mode = [ `Off | `Journaling | `Read_only of string ]
(** [`Off]: no store dir.  [`Read_only why]: the store was loaded but
    nothing will be written (another writer holds the lock, or the
    journal could not be opened). *)

type report = {
  st_status : status;  (** what the open loaded (base + WAL replay) *)
  st_mode : mode;      (** the mode the open settled on *)
  st_fails : Fail.t list;
      (** every store failure met, in order: at the open a rejected
          store ([Store_rejected]), a torn journal tail ([Wal_torn]) or
          a held lock ([Store_locked]); later a mid-run demotion — a
          failed append or checkpoint — or a failed compaction
          ([Store_rejected]) *)
}

val loaded : report -> int
(** Entries the open imported, base and journal together (0 unless
    [Loaded]). *)

val with_store : dir:string option -> (report -> 'a) -> 'a * report
(** [with_store ~dir f] runs [f] inside a store session on [dir] and
    returns its result with the session's final report; [f] receives
    the report as of the open.  [dir = None] runs [f] with no store.
    If [f] or the compaction raises — a [Faultsim.Crashed] included —
    the journal is abandoned without flushing, leaving the on-disk
    state exactly as at the crash, and the exception propagates.  One
    session at a time per process.
    @raise Invalid_argument when a session is already open. *)

val journal_checkpoint : unit -> unit
(** Durability point: append the solver-memo delta since the last
    checkpoint, then fsync.  A failure demotes the session to
    in-memory only and lands in its report.  No-op outside a
    journaling session. *)
