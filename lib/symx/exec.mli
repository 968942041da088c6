(** Symbolic execution of instruction runs -> gadget summaries.

    Starting from a fully symbolic state at an arbitrary code address,
    execution proceeds until a controllable transfer (ret / indirect jump
    / indirect call / syscall).  Conditional jumps FORK the state, each
    branch assuming the condition or its negation as a pre-condition —
    the paper's distinctive handling of conditional-jump gadgets (§IV-B,
    Fig. 4).  Direct jumps and calls are followed and MERGED into the
    same gadget.  A mid-run syscall both ends a summary (a goal
    candidate) and continues with an uncontrollable result register. *)

open Gp_smt

type jump =
  | Jret of Term.t           (** ret: target is the popped stack value *)
  | Jind of Term.t           (** jmp/call through register or memory *)
  | Jfall of int64           (** ends at a syscall; fall-through address *)

type summary = {
  s_addr : int64;                      (** where decoding started *)
  s_insns : Gp_x86.Insn.t list;        (** in execution order *)
  s_state : State.t;                   (** final symbolic state *)
  s_jump : jump;
  s_has_cond : bool;                   (** took a Jcc assumption *)
  s_has_merge : bool;                  (** crossed a direct jmp/call *)
  s_syscall : bool;                    (** ends at a syscall *)
}

val cond_formulas : State.flag_src -> Gp_x86.Insn.cond -> Formula.t list option
(** Conjunction equivalent to the condition holding under the recorded
    flag source, or [None] when inexpressible (that fork is abandoned —
    a soundness-preserving refusal). *)

type config = {
  max_insns : int;       (** per path *)
  max_forks : int;       (** Jcc assumptions per path *)
  max_merges : int;      (** direct jmp/call follow-throughs per path *)
}

val default_config : config

val summarize : ?config:config -> Gp_util.Image.t -> int64 -> summary list
(** All path summaries from the address; [[]] when nothing decodes into a
    usable gadget. *)

val summarize_r :
  ?config:config ->
  ?decode:(int -> (Gp_x86.Insn.t * int) option) ->
  Gp_util.Image.t ->
  int64 ->
  summary list * string option
(** Like {!summarize}, but also reports whether the executor refused a
    path ([State.Unsupported] detail).  Partial summaries gathered before
    the refusal are kept; the refusal lets callers quarantine and count
    the start offset instead of silently dropping it.

    [decode] overrides the per-position decoder (default: decode the
    image's code bytes directly); the harvest passes a
    [Gp_x86.Decode.memo] so overlapping starts share suffix decodings.
    The override must answer exactly as the default would. *)
