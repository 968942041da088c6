(** Plain-text table rendering for the experiment reports. *)

type t

val create : title:string -> header:string list -> t
val add_row : t -> string list -> unit
val render : t -> string

val fmt_f1 : float -> string
val fmt_pct : float -> string
