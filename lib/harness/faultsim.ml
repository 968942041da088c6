(* Deterministic fault injection (DESIGN.md "Failure model & budgets").

   The resilience claims — one poisoned gadget never kills a harvest, a
   divergent solver only degrades the pool, a sweep always terminates
   inside its budget — are only testable if faults can be produced on
   demand.  This module drives the chaos hooks the low-level stages
   expose ([Extract.chaos_decode], [Solver.chaos_unknown],
   [Machine.chaos_fuse]) plus the pluggable [Budget] clock, all from
   seeded splitmix64 streams, so a fault schedule is reproducible from
   one integer.

   Rate semantics (chosen to match each hook's natural granularity):
   - [decode_rate]   per harvest START OFFSET: that window is treated as
     undecodable and quarantined;
   - [solver_rate]   per solver QUERY: answered Unknown unexamined;
   - [mem_rate]      per emulator RUN: a fuse is armed that trips a
     memory fault partway through the execution;
   - [clock_skip_rate] per CLOCK READ: time jumps forward by
     [clock_skip_s] seconds (NTP-step / scheduler-stall simulation —
     exercises deadline handling without sleeping).

   Concurrency: a request runs on one domain, but survey cells and
   daemon requests run several at once on a [Sched.Service] pool, so the
   decode and solver hooks fire from several domains and their call
   ORDER depends on scheduling.  Their schedules are therefore keyed,
   not streamed — the decision for a start address or a solver query is
   a pure function of (seed, key), so the injected fault SET is
   identical whatever runs beside a request (test_par asserts nothing
   is dropped or double-counted with JOBS requests at once).  Payload
   validation runs on the request's own domain, one of those concurrent
   workers, so the emulator fuse gets a keyed schedule too — keyed on
   the CHAIN being validated ([Machine.chaos_fuse_keyed], fed by
   [Payload.validate_run]) — while the streamed [Machine.chaos_fuse]
   stays installed for the sequential direct-run sites (netperf, CFI,
   compile checks).  Only the clock remains stream-only: the suites
   that skew it run one request at a time. *)

type config = {
  seed : int;
  decode_rate : float;
  solver_rate : float;
  mem_rate : float;
  clock_skip_rate : float;
  clock_skip_s : float;
  frame_rate : float;
}

let disabled =
  { seed = 0; decode_rate = 0.; solver_rate = 0.; mem_rate = 0.;
    clock_skip_rate = 0.; clock_skip_s = 0.; frame_rate = 0. }

let uniform ?(seed = 0xfa17) rate =
  { disabled with seed; decode_rate = rate; solver_rate = rate;
    mem_rate = rate }

(* Order-independent Bernoulli: one fresh splitmix64 draw keyed on
   (seed, key).  [Hashtbl.hash] is deterministic on immutable data, so
   the decision depends on nothing but the key's structure. *)
let keyed_flip seed key rate =
  Gp_util.Rng.flip (Gp_util.Rng.create (seed lxor Hashtbl.hash key)) rate

(* Run [f] with the fault schedule installed, restoring every hook on
   the way out (exception or not) — injection must never leak into the
   next experiment. *)
let with_faults (cfg : config) (f : unit -> 'a) : 'a =
  (* independent seeds/streams per fault class, so e.g. raising the
     decode rate does not shift which solver queries fail *)
  let r_mem = Gp_util.Rng.create (cfg.seed lxor 0x33) in
  let r_clock = Gp_util.Rng.create (cfg.seed lxor 0x44) in
  let saved_decode = !Gp_core.Extract.chaos_decode in
  let saved_solver = !Gp_smt.Solver.chaos_unknown in
  let saved_fuse = !Gp_emu.Machine.chaos_fuse in
  let saved_fuse_keyed = !Gp_emu.Machine.chaos_fuse_keyed in
  let saved_wire = !Gp_util.Frame.chaos_wire in
  if cfg.decode_rate > 0. then
    Gp_core.Extract.chaos_decode :=
      (fun addr -> keyed_flip (cfg.seed lxor 0x11) addr cfg.decode_rate);
  if cfg.solver_rate > 0. then
    Gp_smt.Solver.chaos_unknown :=
      (fun formulas ->
        keyed_flip (cfg.seed lxor 0x22) formulas cfg.solver_rate);
  if cfg.mem_rate > 0. then begin
    Gp_emu.Machine.chaos_fuse :=
      (fun () ->
        if Gp_util.Rng.flip r_mem cfg.mem_rate then
          Some (Gp_util.Rng.int r_mem 100_000)
        else None);
    (* keyed twin for validation runs: a fresh stream per key, so both
       the fire decision and the armed step count are pure functions of
       (seed, chain) *)
    Gp_emu.Machine.chaos_fuse_keyed :=
      (fun key ->
        let r = Gp_util.Rng.create ((cfg.seed lxor 0x33) lxor key) in
        if Gp_util.Rng.flip r cfg.mem_rate then
          Some (Gp_util.Rng.int r 100_000)
        else None)
  end;
  if cfg.frame_rate > 0. then
    (* keyed on the frame PAYLOAD, so the damaged-request set is a pure
       function of (seed, request bytes) — independent of send order
       across connections.  The fault MODE is a second independent draw
       from the same key, so all four wire faults appear at high
       rates. *)
    Gp_util.Frame.chaos_wire :=
      (fun payload ->
        if keyed_flip (cfg.seed lxor 0x66) payload cfg.frame_rate then
          let r =
            Gp_util.Rng.create ((cfg.seed lxor 0x77) lxor Hashtbl.hash payload)
          in
          Some
            (match Gp_util.Rng.int r 4 with
            | 0 -> Gp_util.Frame.Torn_len
            | 1 -> Gp_util.Frame.Torn_body
            | 2 -> Gp_util.Frame.Flip_sum
            | _ -> Gp_util.Frame.Hangup)
        else None);
  if cfg.clock_skip_rate > 0. then begin
    let skew = ref 0. in
    Gp_core.Budget.set_clock (fun () ->
        if Gp_util.Rng.flip r_clock cfg.clock_skip_rate then
          skew := !skew +. cfg.clock_skip_s;
        Unix.gettimeofday () +. !skew)
  end;
  let finally () =
    Gp_core.Extract.chaos_decode := saved_decode;
    Gp_smt.Solver.chaos_unknown := saved_solver;
    Gp_emu.Machine.chaos_fuse := saved_fuse;
    Gp_emu.Machine.chaos_fuse_keyed := saved_fuse_keyed;
    Gp_util.Frame.chaos_wire := saved_wire;
    if cfg.clock_skip_rate > 0. then Gp_core.Budget.reset_clock ()
  in
  Fun.protect ~finally f

(* ----- crash-point injection (DESIGN.md §13) ----- *)

(* Simulated process death.  [Store.crash_point] names the durability
   points ("wal-append", "mid-stage"); installing a
   raising hook at one of them models the process dying with the
   channel buffers unflushed — callers must then tear state down with
   the [abandon] entry points (which drop fds WITHOUT flushing, unlike
   a normal close) so the on-disk bytes are exactly what a real kill
   would have left.  Nothing in the tree catches [Crashed] except the
   experiment driving the injection. *)
exception Crashed of string

(* Run [f] with a crash armed at the [hits]-th firing of [point]
   (1-based; durability points fire many times per sweep, so the index
   selects WHERE in the run the process dies).  Returns [Error point]
   if the crash fired, [Ok v] if the run outlived the fuse.  The
   previous hook is chained and always restored. *)
let with_crash_at ?(hits = 1) ~point f =
  let saved = !Gp_util.Store.crash_hook in
  (* crash points fire from scheduler worker domains too ("mid-stage"
     under Sched runs concurrently), so the hit counter must be atomic:
     with a plain ref, racing increments could skip the armed count and
     the fuse would never blow *)
  let count = Atomic.make 0 in
  Gp_util.Store.crash_hook :=
    (fun p ->
      saved p;
      if p = point && Atomic.fetch_and_add count 1 + 1 = hits then
        raise (Crashed p));
  Fun.protect
    ~finally:(fun () -> Gp_util.Store.crash_hook := saved)
    (fun () ->
      match f () with v -> Ok v | exception Crashed p -> Error p)

(* Torn-write simulator: keep only the first [k] bytes of [path], as
   if the process died with the tail not yet on disk — the WAL's
   valid-prefix recovery path. *)
let truncate_file ~k path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let keep = min k n in
  let b =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic keep)
  in
  let oc = open_out_bin path in
  output_string oc b;
  close_out oc
