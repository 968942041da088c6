(* Deterministic splitmix64 RNG.

   Every randomized component (obfuscation passes, solver model search,
   planner tie-breaking) takes an explicit [Rng.t] so whole experiments are
   reproducible from a single seed. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Uniform int in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Bernoulli with probability [p]. *)
let flip t p = int t 1000 < int_of_float (p *. 1000.)

let choose t lst =
  match lst with
  | [] -> invalid_arg "Rng.choose: empty list"
  | _ -> List.nth lst (int t (List.length lst))

let shuffle t lst =
  let arr = Array.of_list lst in
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

(* Fresh sub-generator, so sibling passes don't perturb each other. *)
let split t = { state = next_int64 t }
