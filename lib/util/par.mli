val available : unit -> int
(** How many domains the hardware can actually run
    ([Domain.recommended_domain_count]).  Worker counts above this only
    add scheduling overhead, never throughput. *)
