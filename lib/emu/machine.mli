(** Concrete x86-64 emulator.

    Plays the victim machine: it runs compiled corpus programs (so
    obfuscation passes can be differentially tested for semantic
    preservation) and executes attacker payloads end-to-end (a payload
    only counts if the goal syscall is observed with the goal arguments —
    DESIGN.md "validation-first").

    The syscall model is Linux-flavoured: [write]/[exit] behave normally;
    the three attack syscalls (execve / mprotect / mmap-family) halt with
    an {!Attacked} outcome when well-formed, and fail with a negative
    errno (execution continuing) when their arguments are garbage — so
    chains may legitimately pass through syscall instructions. *)

type attack =
  | Execve of { path : string; argv : int64; envp : int64 }
  | Mprotect of { addr : int64; len : int64; prot : int64 }
  | Mmap of { addr : int64; len : int64; prot : int64 }

type outcome =
  | Exited of int64          (** exit(2) status *)
  | Attacked of attack       (** an attack syscall fired *)
  | Fault of string          (** unmapped access / undecodable fetch *)
  | Timeout                  (** fuel exhausted *)

type t = {
  mem : Memory.t;
  regs : int64 array;
  mutable rip : int64;
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable of_ : bool;
  mutable pf : bool;
  mutable output : Buffer.t;
  mutable steps : int;
  mutable trace : int64 list;   (** reversed rip trace when tracing *)
  mutable indirects : (int64 * int64) list;
      (** (site, target) of each indirect jump/call taken, reversed —
          the observations a CFI monitor would check *)
  tracing : bool;
}

(** {1 Memory layout constants} *)

val stack_base : int64
val stack_size : int
val stack_top : int64
val scratch_base : int64
val scratch_size : int

(** {1 State access} *)

val reg : t -> Gp_x86.Reg.t -> int64
val set_reg : t -> Gp_x86.Reg.t -> int64 -> unit
val rsp : t -> int64
val set_rsp : t -> int64 -> unit
val output : t -> string
(** Bytes the program wrote to stdout via write(2). *)

(** {1 Execution} *)

val create : ?tracing:bool -> Gp_util.Image.t -> t
(** Map the image plus stack and scratch regions; rip at the entry
    point, rsp near the stack top with generous headroom.  The image's
    code and data are shared read-only, not copied ({!Memory.map_bytes}):
    the machine's writes, self-patches included, land in its own pages,
    so any number of machines may run on one image, and the image must
    not be mutated while they do. *)

exception Halt of outcome
(** Used internally; escapes only from {!step}. *)

val step : t -> unit
(** Fetch-decode-execute one instruction.  Raises {!Halt} at a run-ending
    event and [Memory.Fault] on a bad access. *)

val chaos_fuse : (unit -> int option) ref
(** Fault-injection hook, consulted once per {!run}: [Some n] arms a
    synthetic memory fault after [n] steps, simulating latent corruption
    mid-execution.  Defaults to never firing; installed/removed by the
    harness ([Gp_harness.Faultsim]). *)

val chaos_fuse_keyed : (int -> int option) ref
(** Keyed fault-injection hook, consulted instead of {!chaos_fuse} when
    {!run} is given a [fuse_key]: the decision is a pure function of the
    key (payload validation keys on the chain), so a schedule fires
    identically however many concurrent requests validate beside this
    one, in any order. *)

val run : ?fuel:int -> ?fuse_key:int -> t -> outcome
(** Step until halt, fault, or [fuel] instructions (default 5M).  Fuel
    exhaustion is reported as the distinct {!Timeout} outcome — callers
    must not conflate it with {!Fault}, which means the chain actually
    crashed.  [fuse_key] routes fault injection through
    {!chaos_fuse_keyed} (order-independent) rather than the streamed
    {!chaos_fuse}. *)

val run_image : ?fuel:int -> ?tracing:bool -> Gp_util.Image.t -> outcome * t
(** Convenience: load and run to completion. *)
