(** Hex rendering helpers shared by the CLI, examples, and tests. *)

val of_bytes : Bytes.t -> string
(** Lower-case hex string of the bytes, two digits per byte. *)

val int64_le : int64 -> Bytes.t
(** The 8 little-endian bytes of the value. *)
