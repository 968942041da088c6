(** Hierarchical deadline/fuel budgets (DESIGN.md "Failure model &
    budgets").

    {!Api.run} creates one root budget per analysis, carves per-stage
    sub-budgets off it with {!sub}, and threads them down through
    extract/subsume/plan/validate — replacing the hard-coded
    [time_budget]/[node_budget]/[fuel] constants that used to live in
    each stage.  A child deadline never exceeds its parent's, so a sweep
    has a single wall-clock bound.

    Deadlines ride a monotonic-clamped, pluggable clock; fuel is a
    per-node counter in caller-defined units.  {!check} is cheap enough
    for hot loops (clock read every 32nd poll). *)

type reason = Deadline | Fuel

exception Exhausted of string * reason
(** Raised by {!check}; carries the budget's label. *)

type t

val unlimited : ?label:string -> unit -> t
(** No deadline, no fuel.  The default everywhere, preserving seed
    behavior when no budget is passed. *)

val create : ?label:string -> ?seconds:float -> ?fuel:int -> unit -> t
(** Root budget: deadline [now + seconds] (none if omitted), fuel meter
    (unmetered if omitted). *)

val sub :
  t -> ?label:string -> ?fraction:float -> ?seconds:float -> ?fuel:int ->
  unit -> t
(** Child budget.  [seconds] gives an absolute slice, [fraction] a share
    of the parent's remaining time; either way the child's deadline is
    clamped to the parent's.  Fuel is fresh per child, not inherited. *)

val slice : t -> ?label:string -> ?fuel:int -> unit -> t
(** A share of [parent]: the parent's deadline, but a private fuel
    meter and poll state.  The planner gives each portfolio root one,
    with that root's fuel share. *)

val check : t -> unit
(** Raise {!Exhausted} if fuel has run out or the deadline has passed.
    Call at loop tops; the clock is only read every 32nd call. *)

val spend : ?amount:int -> t -> unit
(** Consume fuel.  Never raises — exhaustion surfaces at the next
    {!check}, so the unit of work that spent the last fuel completes. *)

val exhausted : t -> bool
(** True once the budget has run dry (sticky after a {!check} hit; also
    probes the clock directly). *)

val hit : t -> reason option
(** The sticky exhaustion reason recorded by {!check}, if any. *)

val remaining_seconds : t -> float
(** Seconds to the deadline ([infinity] if none). *)

val remaining_fuel : t -> int

val guard : t -> (unit -> 'a) -> ('a, reason) result
(** [guard t f] runs [f] under [t]: checks first, converts this budget's
    own {!Exhausted} into [Error].  Other budgets' exhaustion still
    propagates. *)

val emu_fuel : ?per_second:int -> ?cap:int -> t -> int
(** Convert remaining wall clock into emulator steps (roughly
    [per_second] retired steps per second), capped at [cap].  An
    unlimited budget yields [cap], preserving the seed's fuel
    constants. *)

(** {1 Clock}

    The wall clock is pluggable so the fault-injection harness can skew
    time deterministically.  A monotonic clamp keeps injected skews from
    running time backwards. *)

val now : unit -> float
val set_clock : (unit -> float) -> unit
val reset_clock : unit -> unit
