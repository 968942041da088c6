(* Host speed, measured beside the workload.

   The reference host is a 2-core VM sharing its physical cores with
   other tenants, and its speed drifts: the same inputs have run up to
   60% slower for minutes at a time, on CPU time as much as on wall time.
   So every timed item is followed by [probe], a fixed piece of work
   that does not touch the program under test: an integer loop and a
   random walk over an 8 MB buffer kept off the OCaml heap, about 4.5 ms
   in all.  The benchmark scales each item's time by [reference_s] over the
   probe time measured around it.  Its times read as seconds on the
   reference host at its usual speed, and a change to the program moves
   them while the probe stays put.

   Raw times are kept in the --out records beside the adjusted ones. *)

let words = 1 lsl 20

let buffer =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words in
  Bigarray.Array1.fill a 0;
  a

(* What [probe] takes on the reference host at its usual speed. *)
let reference_s = 0.0045

let probe () =
  let t0 = Unix.gettimeofday () in
  let s = ref 0 in
  for i = 1 to 1_200_000 do
    s := !s + (i * i mod 7)
  done;
  let j = ref 0 in
  for _ = 1 to 200_000 do
    j := ((!j * 1103515245) + 12345) land (words - 1);
    Bigarray.Array1.unsafe_set buffer !j (Bigarray.Array1.unsafe_get buffer !j + 1)
  done;
  ignore (Sys.opaque_identity !s);
  Unix.gettimeofday () -. t0

(* Median probe time of [n] probes in a row on each of [domains]
   domains at once.  Work spread over several cores needs them all at
   once, and a host under load may not give it that; one domain's probe
   would not show it. *)
let probes ?(domains = 1) n =
  let run () = List.init n (fun _ -> probe ()) in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn run) in
  let mine = run () in
  Stats.median (mine @ List.concat_map Domain.join others)

(* Scale factors for items timed in a row, given the probe time taken
   after each: the reference over the median probe of the five items
   around it, which smooths out one probe's own jitter. *)
let factors probes =
  let a = Array.of_list probes in
  let n = Array.length a in
  List.init n (fun i ->
      let lo = max 0 (i - 2) and hi = min (n - 1) (i + 2) in
      reference_s /. Stats.median (Array.to_list (Array.sub a lo (hi - lo + 1))))
