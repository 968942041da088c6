(** Deterministic fault injection (DESIGN.md "Failure model & budgets").

    Drives the chaos hooks the low-level stages expose
    ([Extract.chaos_decode], [Solver.chaos_unknown],
    [Machine.chaos_fuse]) plus the pluggable {!Gp_core.Budget} clock,
    all from seeded splitmix64 streams — a whole fault schedule is
    reproducible from one integer.  Used by [test_resilience] to prove
    every degradation path terminates with a well-formed outcome. *)

type config = {
  seed : int;
  decode_rate : float;
      (** per harvest start offset: treated as undecodable *)
  solver_rate : float;
      (** per solver query: answered [Unknown] unexamined *)
  mem_rate : float;
      (** per emulator run: arms a mid-execution memory fault *)
  clock_skip_rate : float;
      (** per clock read: time jumps forward [clock_skip_s] seconds *)
  clock_skip_s : float;
  frame_rate : float;
      (** per daemon wire frame sent: the frame is damaged on the way
          out — torn length prefix, torn body, corrupted checksum, or a
          clean send followed by a client hangup, the mode itself a
          keyed draw.  Exercises the {!Serve} quarantine paths. *)
}

val disabled : config
(** All rates zero — installing it is a no-op. *)

val uniform : ?seed:int -> float -> config
(** Same rate across decode/solver/memory; no clock skips. *)

val with_faults : config -> (unit -> 'a) -> 'a
(** Run the thunk with the fault schedule installed; every hook (and the
    clock) is restored on the way out, exception or not.  Each fault
    class draws from its own stream, so raising one rate does not shift
    another class's schedule.

    Hooks that fire inside requests, which run concurrently on pool
    workers (decode, solver, and the validation emulator fuse via
    [Machine.chaos_fuse_keyed]), use KEYED schedules: the decision is a
    pure function of (seed, item), so the injected fault set is
    identical whatever runs beside a request.  The streamed [Machine.chaos_fuse]
    stays installed for sequential direct-run sites. *)

(** {1 Crash-point injection (DESIGN.md §13)} *)

exception Crashed of string
(** Simulated process death at a named durability point.  Raised from
    the [Store.crash_point] hook; nothing in the tree catches it
    except the experiment driving the injection. *)

val with_crash_at :
  ?hits:int -> point:string -> (unit -> 'a) -> ('a, string) result
(** Arm a crash at the [hits]-th firing (1-based, default 1) of the
    named point ("wal-append", "mid-stage").  [Error point] if the
    crash fired; [Ok v] if the run outlived the fuse.  After a crash,
    state is torn down without flushing, exactly like a real kill:
    [Survey.sweep] drops its manifest with [Runner.Manifest.abandon].
    The previous hook is chained and restored. *)

val truncate_file : k:int -> string -> unit
(** Torn-write simulator: keep only the first [k] bytes of the file
    (clamped to its length) — the WAL's valid-prefix recovery path. *)
