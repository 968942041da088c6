(* Order statistics shared by the workload runner and the compare tool. *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile l p =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (float n *. p /. 100.)) - 1)))

(* Python's [statistics.quantiles(data, n=4)] (the default "exclusive"
   method), so spreads read the same as the acceptance check computes
   them.  Returns (q1, median, q3). *)
let quartiles l =
  let a = sorted l in
  let m = Array.length a in
  if m = 0 then (nan, nan, nan)
  else if m = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let j = max 1 (min (m - 1) (i * (m + 1) / 4)) in
      let delta = float ((i * (m + 1)) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Interquartile distance as a share of the median. *)
let spread l =
  let q1, med, q3 = quartiles l in
  if med = 0. then 0. else (q3 -. q1) /. Float.abs med
