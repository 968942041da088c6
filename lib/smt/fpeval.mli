val refutations : unit -> int
(** Always 0: the fingerprint index is gone (DESIGN.md §17).  Kept only
    because bench/e2e reads it; drop it with the next change to the
    benchmark. *)
