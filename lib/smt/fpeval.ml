(* The semantic fingerprint index is gone (DESIGN.md §17), and so is
   the Tier B screen it duplicated (§12).  [refutations] stays as a
   constant zero because the end-to-end benchmark still reads it. *)
let refutations () = 0
