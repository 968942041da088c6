(* How many domains the hardware can actually run.  Worker counts above
   this only add scheduling overhead, never throughput. *)
let available () = Domain.recommended_domain_count ()
