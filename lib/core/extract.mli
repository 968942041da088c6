(** Gadget extraction (paper §IV-B).

    Two modes: {!raw_scan} is the cheap syntactic census every tool
    starts from (slide a decoder over every byte offset, classify the
    run) — what Fig. 1 / Table I count; {!harvest} is the full pipeline —
    prefilter byte offsets syntactically, then symbolically execute each
    surviving start and build planner-ready gadget records. *)

type config = {
  unaligned : bool;           (** start at every byte, not just insn starts *)
  max_insns : int;
  max_forks : int;
  max_merges : int;
}

val default_config : config

(** {1 Syntactic census} *)

type raw = {
  raw_addr : int64;
  raw_insns : Gp_x86.Insn.t list;
  raw_kind : Gadget.kind;
}

val scan_run :
  ?merge:bool ->
  ?decode:(int -> (Gp_x86.Insn.t * int) option) ->
  config:config ->
  Gp_util.Image.t ->
  int ->
  (Gp_x86.Insn.t list * Gadget.kind) option
(** Follow a run from a byte offset until a control transfer.  With
    [merge] (the harvest prefilter) direct jumps/calls are followed;
    without it (the census) a direct transfer ends the gadget, matching
    the paper's UDJ/CDJ taxonomy.  [decode] (default: plain
    [Decode.decode] on the image) lets callers share a decode-once
    memo across overlapping runs. *)

val raw_scan : ?config:config -> Gp_util.Image.t -> raw list
(** The census behind Fig. 1 / Table I (default census depth: 24
    instructions). *)

val raw_counts : ?config:config -> Gp_util.Image.t -> (Gadget.kind * int) list

(** {1 Symbolic harvest} *)

val usable : Gadget.t -> bool
(** Can the planner place this gadget in a chain?  Requires an understood
    stack effect (bounded positive delta for ret gadgets, bounded pivots,
    anything for terminal syscall gadgets). *)

val harvest : Gp_util.Image.t -> Gadget.t list
(** Full extraction under {!default_config}: every byte offset,
    symbolically summarized, filtered to usable records.  Feed the
    result to {!Subsume.minimize}. *)

val chaos_decode : (int64 -> bool) ref
(** Fault-injection hook: starts for which the predicate answers true
    are treated as undecodable windows and quarantined.  Defaults to
    never firing; installed/removed by [Gp_harness.Faultsim]. *)

type harvest_stats = {
  h_starts : int;                       (** start offsets examined *)
  h_quarantined : (string * int) list;  (** {!Fail.label} -> count *)
  h_budget_hit : bool;                  (** harvest stopped early *)
  h_summary_hits : int;
      (** starts replayed from the image memo ({!Incr}): on a hit, every
          start that passed the prefilter; 0 on a fresh harvest *)
  h_summary_misses : int;
      (** starts symbolically executed: 0 on a hit *)
  h_decode_saved : int;
      (** repeat decodes absorbed by the decode-once memo (lookups
          beyond one per position); cache-temperature-dependent, like
          the hit/miss counts, so excluded from differential
          fingerprints *)
}

val harvest_r :
  ?budget:Budget.t -> ?ids:Gadget.id_source -> Gp_util.Image.t ->
  Gadget.t list * harvest_stats
(** Budgeted, fault-isolating {!harvest}: a poisoned start (injected
    decode fault, [Symx] refusal, exception out of summary conversion)
    quarantines that start and is tallied, never aborting the harvest.
    With an unlimited budget and no injection the gadget list — and the
    global gadget-id sequence — is identical to {!harvest}'s.

    The start offsets are examined in order on the calling domain,
    metered by [budget] itself (one [check] and one [spend] per start),
    so a fuel allowance of F examines exactly the first F starts.

    The image memo ({!Incr}, DESIGN.md §11) is consulted once, on a
    digest of the config, the code base and the code bytes.  A hit is
    taken only when the budget has fuel for every start and is not
    exhausted; it replays the stored records without decoding or
    symbolic execution — the chaos hook still decides per start, ids
    are drawn one per stored entry, and the budget is charged one unit
    per start — so it returns exactly what a fresh harvest would.  A
    fresh harvest is stored only when it examined every start and no
    start was chaos-quarantined.

    [ids] is where successful conversions draw gadget ids (default:
    the process-global sequence).  Scheduler cells pass
    [Gadget.local_ids ()] so concurrent harvests never share the
    counter; a fresh local source yields exactly the ids a sequential
    [Gadget.reset_ids (); harvest_r] would (DESIGN.md §14). *)
