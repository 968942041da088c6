(** Image-grain extraction memo (DESIGN.md §11).

    A process-wide table from an image digest — the five
    [Extract.config] fields, the code base and the code bytes — to that
    image's harvest, kept as converted gadget records.
    [Extract.harvest_r] looks the image up once per request and replays
    a hit without decoding or symbolically executing anything; the
    replay draws gadget ids and consults the chaos hook exactly as a
    fresh harvest does, so cached and uncached runs are bit-identical
    (the differential suite checks this at jobs 1 and 4).  The table
    lives in memory only: a long-lived process (the daemon, a survey
    sweep) keeps it hot across requests; a new process starts cold. *)

type record = {
  r_pos : int;                       (** code offset of the start *)
  r_fails : Fail.t list;
      (** faults the start tallied, in order: [Symx_unsupported] and
          conversion [Decode_fault]s (the only two a record holds) *)
  r_entries : Gadget.t option list;
      (** one per converted summary, placeholder ids: [Some g] when
          usable, [None] when not (it still draws an id) *)
}
(** One start that passed the harvest prefilter. *)

type value = {
  v_starts : int;          (** start offsets the harvest examined *)
  v_records : record list; (** prefilter survivors, in position order *)
}
(** One image's harvest. *)

val find : string -> value option

val add : string -> value -> unit
(** First-write-wins, like every shared cache here: racing domains at
    worst duplicate a harvest, and both arrive at the same value. *)

val size : unit -> int
(** Images in the table. *)

val reset : unit -> unit

val suffix_size : unit -> int
(** Always 0: the suffix store is gone (DESIGN.md §16).  Kept only
    because bench/e2e reads it; drop it with the next change to the
    benchmark. *)

val fp_size : unit -> int
(** Always 0: the fingerprint store is gone (DESIGN.md §17).  Kept only
    because bench/e2e reads it; drop it with the next change to the
    benchmark. *)
