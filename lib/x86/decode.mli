(** x86-64 decoder for the encoder's subset.

    May be pointed at ANY byte offset — including the middle of an
    encoded instruction — and either produces an instruction or rejects
    the bytes.  This makes unaligned gadget harvesting possible: bytes of
    immediates and displacements re-decode as different instructions,
    exactly as on real hardware.  Unknown opcodes yield [None] rather
    than an exception so callers can slide a window over raw code. *)

val decode : ?limit:int -> Bytes.t -> int -> (Insn.t * int) option
(** [decode bytes pos] decodes one instruction starting at byte [pos],
    returning it with its encoded length, or [None] when the bytes are
    not in the subset.  [limit] caps readable bytes (default: the whole
    buffer); running past it rejects. *)

(** {1 Decode-once memo}

    Unaligned harvesting revisits every byte position many times (runs
    starting at [p] and [p+1] share their whole suffix — classic
    Galileo-style sharing).  A {!memo} decodes every position of a
    buffer once, eagerly, for the one harvest or census that builds it
    (its lookup counter is not synchronized).  The lookup counter makes
    the saving observable:
    [memo_lookups m - memo_size m] decodes were not re-executed. *)

type memo

val memo : ?limit:int -> Bytes.t -> memo
(** Decode every position in [0, limit) (default: the whole buffer). *)

val decode_memo : memo -> int -> (Insn.t * int) option
(** Same answers as {!decode} on the memoized buffer, O(1). *)

val memo_size : memo -> int
(** Positions decoded at construction. *)

val memo_lookups : memo -> int
(** Lookups served so far (including out-of-bounds probes). *)

val decode_run :
  ?max_insns:int -> ?limit:int -> Bytes.t -> int -> (Insn.t * int * int) list option
(** Decode consecutive instructions up to and including the first
    terminator (see {!Insn.is_terminator}).  Returns
    [(insn, offset_from_start, length)] triples, or [None] if any byte
    fails to decode or no terminator appears within [max_insns]
    (default 64). *)
