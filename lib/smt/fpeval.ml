(* The semantic fingerprint index is gone (DESIGN.md §17): the Tier B
   screen in [Solver] answers the same probes from the same points.
   [refutations] stays as a constant zero because the end-to-end
   benchmark still reads it. *)
let refutations () = 0
