(** Memory layout contract between planner, payload builder, and
    validator.

    The exploit scenario fixes where the attacker's stack write lands
    (ASLR defeated/off, paper §III-A), so the payload base is a known
    constant — mutable here because the netperf scenario re-points it at
    the probed return-address cell.  POINTER pre-conditions are
    discharged by pinning free pointer variables INTO the payload, after
    which values read through them become attacker-chosen payload cells
    (the paper's "left unconstrained so that it is free to take on
    whatever value is necessary"). *)

val default_base : int64

val payload_base : unit -> int64
(** Address of payload word 0 (the smashed return-address cell). *)

val set_payload_base : int64 -> unit
(** Re-point the layout (e.g. at a probed address).  Gadget pools are
    layout-independent; only (re)planning consults the base. *)

val reset : unit -> unit
(** Back to {!default_base}. *)

val payload_size : int
(** Bytes the payload may occupy. *)

val in_payload : int64 -> bool
val in_scratch : int64 -> bool

val pin_candidates : unit -> int64 list
(** Deep-payload addresses free pointers get pinned to, spaced so pinned
    frames don't collide with each other or the chain cells. *)

val readable : int64 -> bool
val writable : int64 -> bool

val pool : salt:int -> Gp_smt.Solver.pointer_pool
(** Solver pool; [salt] rotates the pin order so independent
    instantiations spread across candidates. *)

val pool_key : salt:int -> int64 * int
(** Structural memo key fully determining [pool ~salt]:
    [(payload_base, salt mod pin-count)].  Pass it as
    [Gp_smt.Solver.check ~pool_key] so instantiation verdicts can be
    memoized across the planner's repeated queries. *)
