(* Hierarchical deadline/fuel budgets (DESIGN.md "Failure model &
   budgets").

   Every stage of the pipeline used to carry its own hard-coded limit —
   `time_budget` seconds here, `node_budget` expansions there, emulator
   `fuel` somewhere else — with no relation between them.  A budget ties
   them together: [Api.run] creates a root budget for the whole
   analysis, carves per-stage sub-budgets off it, and passes them down.
   A child can only tighten its parent's deadline, so a sweep over
   hundreds of programs has a single wall-clock bound no matter how the
   stages misbehave.

   Two resources:
   - a DEADLINE on the monotonic-clamped wall clock, inherited downward
     (child deadline = min(parent deadline, now + slice));
   - FUEL, a per-node counter in caller-defined units (the planner
     spends one unit per expansion; harvest spends one per start
     offset).  Fuel is NOT inherited: each node meters its own loop.

   Polling is cheap: [check] reads the clock only every 32nd call, so it
   can sit at the top of hot loops.  The clock is pluggable
   ([set_clock]) so the fault-injection harness can skew time without
   sleeping. *)

type reason = Deadline | Fuel

exception Exhausted of string * reason
(* Raised by [check].  Carries the budget's label so the catcher can
   report WHICH budget ran dry. *)

(* ----- clock ----- *)

let clock : (unit -> float) ref = ref Unix.gettimeofday

(* Monotonic clamp: a skewed or stepped clock (fault injection, NTP)
   must never make time run backwards, or deadlines would re-open. *)
let last = ref neg_infinity

let now () =
  let t = !clock () in
  if t > !last then last := t;
  !last

let set_clock f =
  clock := f;
  (* re-anchor the clamp so an injected clock that starts in the past
     still advances from its own origin *)
  last := f ()

let reset_clock () =
  clock := Unix.gettimeofday;
  last := Unix.gettimeofday ()

(* ----- budgets ----- *)

type t = {
  label : string;
  deadline : float;              (* absolute, [infinity] = none *)
  mutable fuel : int;            (* [max_int] = unmetered *)
  mutable polls : int;
  mutable hit : reason option;   (* sticky: set on first exhaustion *)
}

let unlimited ?(label = "unlimited") () =
  { label; deadline = infinity; fuel = max_int; polls = 0; hit = None }

let create ?(label = "root") ?seconds ?fuel () =
  { label;
    deadline = (match seconds with Some s -> now () +. s | None -> infinity);
    fuel = (match fuel with Some f -> f | None -> max_int);
    polls = 0;
    hit = None }

(* Carve a child off [parent].  [seconds] gives the child its own slice;
   [fraction] gives it that share of the parent's remaining time.  The
   child's deadline never exceeds the parent's. *)
let sub (parent : t) ?label ?fraction ?seconds ?fuel () =
  let label = match label with Some l -> l | None -> parent.label in
  let t = now () in
  let slice =
    match (seconds, fraction) with
    | Some s, _ -> Some s
    | None, Some fr ->
      if parent.deadline = infinity then None
      else Some (fr *. (parent.deadline -. t))
    | None, None -> None
  in
  let deadline =
    match slice with
    | Some s -> min parent.deadline (t +. s)
    | None -> parent.deadline
  in
  { label; deadline;
    fuel = (match fuel with Some f -> f | None -> max_int);
    polls = 0; hit = None }

(* A share of [parent]: its deadline, but a private fuel meter and poll
   state (the planner's per-root fuel shares). *)
let slice (parent : t) ?label ?fuel () =
  { label = (match label with Some l -> l | None -> parent.label);
    deadline = parent.deadline;
    fuel = (match fuel with Some f -> f | None -> max_int);
    polls = 0;
    hit = None }

let remaining_seconds t =
  if t.deadline = infinity then infinity else t.deadline -. now ()

let remaining_fuel t = t.fuel

let exhausted t =
  t.hit <> None
  || t.fuel <= 0
  || (t.deadline < infinity && now () > t.deadline)

let hit t = t.hit

(* Decrement only — exhaustion is detected at the NEXT loop-top [check],
   mirroring the seed planner's `while !expanded < node_budget`: the
   node that consumes the last unit still completes. *)
let spend ?(amount = 1) t =
  if t.fuel <> max_int then t.fuel <- t.fuel - amount

let check t =
  if t.fuel <= 0 then begin
    t.hit <- Some Fuel;
    raise (Exhausted (t.label, Fuel))
  end;
  t.polls <- t.polls + 1;
  (* first call polls the clock; afterwards every 32nd *)
  if t.deadline < infinity && (t.polls land 31 = 1 || t.hit <> None) then
    if now () > t.deadline then begin
      t.hit <- Some Deadline;
      raise (Exhausted (t.label, Deadline))
    end

let guard t f =
  try
    check t;
    Ok (f ())
  with Exhausted (l, r) when l = t.label ->
    t.hit <- Some r;
    Error r

(* Emulator fuel from remaining wall clock: the interpreter retires
   roughly [per_second] steps a second, so convert the deadline into
   steps and cap it.  An unlimited budget just yields the cap, which
   preserves the seed's hard-coded fuel constants. *)
let emu_fuel ?(per_second = 20_000_000) ?(cap = 5_000_000) t =
  if t.deadline = infinity then cap
  else
    let r = remaining_seconds t in
    if r <= 0. then 0
    else min cap (max 1 (int_of_float (r *. float_of_int per_second)))
