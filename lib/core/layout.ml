(* Memory layout contract between the planner, the payload builder, and
   the validator.

   The exploit scenario fixes where the attacker's stack write lands
   (ASLR is assumed defeated/off, paper §III-A), so the payload base is a
   known constant — but WHICH constant depends on the scenario: direct
   validation uses a default near the stack top, while the netperf case
   study sets it to the probed address of break_args' saved return
   address.  That makes "memory we control" a concrete region: pointer
   pre-conditions (POINTER type, §IV-B) are discharged by pinning free
   pointer variables INTO the payload, after which values read through
   them become attacker-chosen payload cells — the paper's "left
   unconstrained so that it is free to take on whatever value is
   necessary for the rest of the plan". *)

let default_base = Int64.sub Gp_emu.Machine.stack_top 0x9000L

(* bytes the payload may occupy *)
let payload_size = 0x8000

let pin_count = 14

let in_scratch a =
  a >= Gp_emu.Machine.scratch_base
  && a < Int64.add Gp_emu.Machine.scratch_base (Int64.of_int Gp_emu.Machine.scratch_size)

(* The current base and the [pin_count] solver pools built from it,
   published together through one [Atomic] so a pool worker never sees
   the pools of one base paired with another.  Every instantiation query
   asks for a pool, so the rotations are built once per base, not once
   per query. *)
type state = { base : int64; pools : Gp_smt.Solver.pointer_pool array }

let in_payload_of base a = a >= base && a < Int64.add base (Int64.of_int payload_size)

(* Pin candidates sit deep in the payload, spaced far enough apart that a
   pinned frame pointer's typical displacement range (±0x400) stays clear
   of its neighbours and of the chain cells near the base.  Pool [rot]
   starts at candidate [rot] and wraps round, so independent
   instantiations spread across candidates instead of piling onto the
   first one. *)
let state_of base =
  let pins = Array.init pin_count (fun k -> Int64.add base (Int64.of_int (0xc00 + (k * 0x800)))) in
  let ok a = in_payload_of base a || in_scratch a in
  { base;
    pools =
      Array.init pin_count (fun rot ->
          { Gp_smt.Solver.pins = List.init pin_count (fun i -> pins.((i + rot) mod pin_count));
            readable = ok;
            writable = ok }) }

let state = Atomic.make (state_of default_base)

let payload_base () = (Atomic.get state).base

(* Point the layout at a different smashed-return-address location (e.g.
   the one probed in the netperf scenario).  Invalidates nothing: gadget
   pools are layout-independent; only (re)planning consults the base. *)
let set_payload_base b = Atomic.set state (state_of b)

let reset () = set_payload_base default_base

let in_payload a = in_payload_of (payload_base ()) a

let pin_candidates () = (Atomic.get state).pools.(0).Gp_smt.Solver.pins

let readable a = in_payload a || in_scratch a
let writable a = in_payload a || in_scratch a

let rotation salt = ((salt mod pin_count) + pin_count) mod pin_count

(* Pool handed to the solver; [salt] picks the pin rotation. *)
let pool ~salt = (Atomic.get state).pools.(rotation salt)

(* Structural key for the memo in Gp_smt.Solver: [pool ~salt] is a pure
   function of the payload base (pins, readable, writable all derive from
   it) and of the pin rotation [salt mod pin_count] — so this pair fully
   determines the pool's behaviour. *)
let pool_key ~salt = (payload_base (), rotation salt)
