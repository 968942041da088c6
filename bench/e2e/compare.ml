(* The compare tool: two sets of runs (JSON lines written by --out), one
   verdict per workload x end-to-end metric, by the rules of the
   choosing-metrics method:

   - unresolved: either side's spread (interquartile distance over the
     median) is wider than the metric's bound, unless every new run
     reads better than every base run;
   - better: the new median is better by more than the base runs'
     interquartile distance, and the new run wins at least nine tenths
     of the pairs (runs paired in file order; ties win for neither);
   - worse: the new median is worse by more than the bound;
   - same: otherwise. *)

type metric = { name : string; lower : bool; bound : float }

let metrics_of_bench path =
  match Json.member "end_to_end" (Json.parse (Json.read_file path)) with
  | Some (Json.Arr l) ->
    List.filter_map
      (fun m ->
        match
          ( Json.str_member "name" m,
            Json.str_member "better" m,
            Json.num_member "bound" m )
        with
        | Some name, Some better, Some bound ->
          Some { name; lower = better = "lower"; bound }
        | _ -> None)
      l
  | _ -> failwith (path ^ ": no end_to_end list")

(* (workload, metric) -> values, untraced runs only, in file order *)
let load path =
  let t = Hashtbl.create 64 in
  let ic = open_in path in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" then
         let r = Json.parse line in
         if Json.member "trace" r <> Some (Json.Bool true) then
           match (Json.str_member "workload" r, Json.member "metrics" r) with
           | Some w, Some (Json.Obj ms) ->
             List.iter
               (fun (k, v) ->
                 match Json.num_member "value" v with
                 | Some x ->
                   let prev = Option.value (Hashtbl.find_opt t (w, k)) ~default:[] in
                   Hashtbl.replace t (w, k) (x :: prev)
                 | None -> ())
               ms
           | _ -> ()
     done
   with End_of_file -> close_in ic);
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) t;
  t

let verdict m base next =
  let better a b = if m.lower then a < b else a > b in
  let q1b, medb, q3b = Stats.quartiles base in
  let _, medn, _ = Stats.quartiles next in
  let spread = Float.max (Stats.spread base) (Stats.spread next) in
  let all_better = List.for_all (fun n -> List.for_all (fun b -> better n b) base) next in
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs = zip base next in
  let wins = List.length (List.filter (fun (b, n) -> better n b) pairs) in
  let delta = (medn -. medb) /. Float.abs medb in
  let worse_by = if m.lower then delta else -.delta in
  if spread > m.bound && not all_better then "unresolved"
  else if better medn medb && Float.abs (medn -. medb) > q3b -. q1b
          && float wins >= 0.9 *. float (List.length pairs)
  then "better"
  else if worse_by > m.bound then "worse"
  else "same"

let run ~bench base_path new_path =
  let metrics = metrics_of_bench bench in
  let base = load base_path and next = load new_path in
  let workloads =
    List.sort_uniq compare (Hashtbl.fold (fun (w, _) _ acc -> w :: acc) base [])
  in
  Printf.printf "%-14s %-18s %26s %26s %8s %6s  %s\n" "workload" "metric"
    "base median [q1, q3]" "new median [q1, q3]" "delta" "bound" "verdict";
  let q l =
    let a, b, c = Stats.quartiles l in
    Printf.sprintf "%.4g [%.4g, %.4g]" b a c
  in
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          let find t = Hashtbl.find_opt t (w, m.name) in
          match (find base, find next) with
          | Some b, Some n when b <> [] && n <> [] ->
            let _, mb, _ = Stats.quartiles b and _, mn, _ = Stats.quartiles n in
            Printf.printf "%-14s %-18s %26s %26s %+7.1f%% %5.0f%%  %s\n" w m.name
              (q b) (q n)
              ((mn -. mb) /. Float.abs mb *. 100.)
              (m.bound *. 100.) (verdict m b n)
          | _ -> Printf.printf "%-14s %-18s (missing on one side)\n" w m.name)
        metrics)
    workloads
