(* The benchmark's inputs, built from the workload seed alone.

   A cell is one corpus program under one obfuscation config and one
   obfuscation draw.  The draw's obfuscation seed is derived from the
   benchmark seed, so every seed benchmarks a different sample of
   obfuscated binaries while the same seed always rebuilds the same
   bytes.  The program under test only ever sees the compiled images and
   the requests built from them. *)

type cell = {
  prog : Gp_corpus.Programs.entry;
  cname : string;                 (* original | llvm-obf | tigress *)
  cfg : Gp_obf.Obf.config;
  draw : int;
}

(* One request of the planning workloads: a cell and an attack goal. *)
type request = { cell : cell; goal : string }

(* Smoke mode shrinks every axis to one value. *)
let tiny = ref false

let programs () =
  if !tiny then [ Gp_corpus.Programs.find "fibonacci" ]
  else Gp_corpus.Programs.all @ Gp_corpus.Spec.all

let configs () =
  if !tiny then [ ("llvm-obf", Gp_obf.Obf.ollvm) ]
  else Gp_harness.Workspace.obf_configs

(* The CLI's goal names for [Goal.default_goals]. *)
let goals () = if !tiny then [ "execve" ] else [ "execve"; "mprotect"; "mmap" ]

(* The `plan` subcommand's planner settings (its default --max 8). *)
let plan_config =
  { Gp_core.Planner.max_plans = 8; node_budget = 4000; time_budget = 30.;
    branch_cap = 10; goal_cap = 6; max_steps = 14 }

(* A hash of the text, so the derivation reads the same on every host
   and word size. *)
let mix s = Int64.to_int (String.get_int64_le (Digest.string s) 0) land 0x3fff_ffff

let obf_seed ~seed c =
  mix (Printf.sprintf "%d/%s/%s/%d" seed c.prog.name c.cname c.draw)

let cell_key c = Printf.sprintf "%s/%s/d%d" c.prog.name c.cname c.draw
let request_key r = cell_key r.cell ^ "/" ^ r.goal

let cells ~draw =
  List.concat_map
    (fun prog ->
      List.map (fun (cname, cfg) -> { prog; cname; cfg; draw }) (configs ()))
    (programs ())

let shuffle ~seed ~salt l =
  Gp_util.Rng.shuffle (Gp_util.Rng.create (mix (Printf.sprintf "%d#%d" seed salt))) l

let compile ~seed c =
  let cfg =
    if c.cfg.Gp_obf.Obf.passes = [] then c.cfg
    else { c.cfg with Gp_obf.Obf.seed = obf_seed ~seed c }
  in
  Gp_codegen.Pipeline.compile ~transform:(Gp_obf.Obf.transform cfg)
    c.prog.Gp_corpus.Programs.source

(* scan-cold: 8 draws of every cell.  Each block of one draw visits all
   cells in its own seeded order, so a run cut at any point has swept a
   balanced mix of programs and configs. *)
let scan_items ~seed =
  List.concat_map
    (fun d -> shuffle ~seed ~salt:d (cells ~draw:d))
    (List.init (if !tiny then 1 else 8) Fun.id)

(* Every cell x goal, in one block per goal index: each block asks about
   every cell once, in its own seeded order, and a cell's goal rotates
   from block to block (from a seeded start, so goals and configs are not
   tied together).  So each block is a balanced mix of programs, configs
   and goals, and a timed phase that ends inside a block is close to one.
   [draw g] is the draw a request for goal index [g] plans on. *)
let requests ~seed ~salt ~draw =
  let gs = Array.of_list (goals ()) in
  let ng = Array.length gs in
  let start = List.mapi (fun k c -> (k, c)) (shuffle ~seed ~salt (cells ~draw:0)) in
  List.concat_map
    (fun b ->
      shuffle ~seed ~salt:(salt + 1 + b)
        (List.map
           (fun (k, c) ->
             let g = (k + b) mod ng in
             { cell = { c with draw = draw g }; goal = gs.(g) })
           start))
    (List.init ng Fun.id)

(* plan-cold: each request plans its own draw of the cell (draw = goal
   index), so one run averages over three times as many obfuscated
   binaries as it has cells. *)
let plan_cold_items ~seed = requests ~seed ~salt:100 ~draw:Fun.id

(* plan-resident: draw 0 of every cell is analysed once in set-up; the
   requests are every (image, goal) pair. *)
let resident_cells () = cells ~draw:0

let resident_items ~seed = requests ~seed ~salt:200 ~draw:(fun _ -> 0)

(* serve-2c: two copies of the plan-cold stream, so half the requests are
   repeats.  The copies are interleaved rather than sent one after the
   other, which would leave every repeat beyond the end of a timed phase:
   new request k is followed by the second copy of new request k - 2,
   answered two rounds before (see Workloads.serve_2c).  So the repeat
   share is a half at every point of a run. *)
let serve_items ~seed =
  let fresh = Array.of_list (plan_cold_items ~seed) in
  let n = Array.length fresh in
  List.concat
    (List.init (n + 2) (fun k ->
         (if k < n then [ fresh.(k) ] else []) @ if k >= 2 then [ fresh.(k - 2) ] else []))
