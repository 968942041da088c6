(* Spans and counter deltas recorded from outside the program.

   A span wraps one public call (a stage of the staged API, a client
   round trip, a replay the benchmark makes); it records name, start,
   end, parent span, item id, and the change of the program's public
   counters across the call.  Spans stay in memory and are written as
   Chrome trace-event JSON when the run ends.  Per-layer metrics are
   sums kept alongside, under the metric names of BENCHMARK.json. *)

type counters = {
  memo_hits : int;
  memo_misses : int;
  unknowns : int;
  screen_refuted : int;
  screen_decided : int;
  concrete_refuted : int;
  elim_reused : int;
  fp_refuted : int;
  term_hits : int;
  term_misses : int;
}

let counters () =
  let open Gp_smt in
  let screen_refuted, screen_decided, concrete_refuted, elim_reused =
    Solver.screen_stats ()
  in
  let term_hits, term_misses = Term.memo_stats () in
  (* the three verdict memos, summed as Api.cache_counters does *)
  { memo_hits =
      Cache.hits Solver.memo + Cache.hits Solver.equal_memo + Cache.hits Solver.pool_memo;
    memo_misses =
      Cache.misses Solver.memo + Cache.misses Solver.equal_memo
      + Cache.misses Solver.pool_memo;
    unknowns = Atomic.get Solver.unknowns;
    screen_refuted;
    screen_decided;
    concrete_refuted;
    elim_reused;
    fp_refuted = Fpeval.refutations ();
    term_hits;
    term_misses }

(* Deltas under their per-layer metric names.  [Term.reset_memo] zeroes
   the term counters, so a negative delta means a reset happened inside
   the span and the end value is the whole delta. *)
let counter_deltas a b =
  let d x y = if y >= x then y - x else y in
  [ ("solver.memo_hits", d a.memo_hits b.memo_hits);
    ("solver.memo_misses", d a.memo_misses b.memo_misses);
    ("solver.unknowns", d a.unknowns b.unknowns);
    ("solver.screen_refuted", d a.screen_refuted b.screen_refuted);
    ("solver.screen_decided", d a.screen_decided b.screen_decided);
    ("solver.concrete_refuted", d a.concrete_refuted b.concrete_refuted);
    ("solver.elim_reused", d a.elim_reused b.elim_reused);
    ("solver.fp_refuted", d a.fp_refuted b.fp_refuted);
    ("term.memo_hits", d a.term_hits b.term_hits);
    ("term.memo_misses", d a.term_misses b.term_misses) ]

type span = {
  id : int;
  name : string;
  cat : string;
  item : int;
  parent : int;           (* -1 for a root span *)
  tid : int;
  t0 : float;
  t1 : float;
  args : (string * float) list;
}

type t = {
  enabled : bool;
  origin : float;
  lock : Mutex.t;
  mutable spans : span list;
  mutable next_id : int;
  sums : (string, float) Hashtbl.t;
}

let create ~enabled =
  { enabled; origin = Unix.gettimeofday (); lock = Mutex.create (); spans = [];
    next_id = 0; sums = Hashtbl.create 64 }

let add t name v =
  if t.enabled then
    Mutex.protect t.lock (fun () ->
        Hashtbl.replace t.sums name
          (v +. Option.value (Hashtbl.find_opt t.sums name) ~default:0.))

let set t name v =
  if t.enabled then Mutex.protect t.lock (fun () -> Hashtbl.replace t.sums name v)
let get t name = Option.value (Hashtbl.find_opt t.sums name) ~default:0.

(* The innermost open span on this domain: the parent of the next. *)
let current = Domain.DLS.new_key (fun () -> -1)

(* Run [f] inside a span.  The duration is added to the per-layer time
   metric [self] when given, and, unless [counted] is false (spans that
   contain other counted spans, or run beside other domains' work), the
   counter deltas across the call are added to the per-layer sums and
   kept as span args. *)
let span t ?(cat = "stage") ?self ?(item = -1) ?(tid = 0) ?(counted = true) name f =
  if not t.enabled then f ()
  else begin
    let id =
      Mutex.protect t.lock (fun () ->
          let id = t.next_id in
          t.next_id <- id + 1;
          id)
    in
    let parent = Domain.DLS.get current in
    Domain.DLS.set current id;
    let c0 = if counted then Some (counters ()) else None in
    let t0 = Unix.gettimeofday () in
    let r = Fun.protect ~finally:(fun () -> Domain.DLS.set current parent) f in
    let t1 = Unix.gettimeofday () in
    let deltas =
      match c0 with Some c0 -> counter_deltas c0 (counters ()) | None -> []
    in
    List.iter (fun (k, v) -> add t k (float v)) deltas;
    Option.iter (fun k -> add t k (t1 -. t0)) self;
    let args = List.map (fun (k, v) -> (k, float v)) deltas in
    Mutex.protect t.lock (fun () ->
        t.spans <- { id; name; cat; item; parent; tid; t0; t1; args } :: t.spans);
    r
  end

(* Chrome trace-event format ("X" complete events, microseconds). *)
let write t path =
  let us x = Json.Num (Float.round ((x -. t.origin) *. 1e6)) in
  let event s =
    Json.Obj
      [ ("name", Json.Str s.name);
        ("cat", Json.Str s.cat);
        ("ph", Json.Str "X");
        ("ts", us s.t0);
        ("dur", Json.Num (Float.round ((s.t1 -. s.t0) *. 1e6)));
        ("pid", Json.Num 1.);
        ("tid", Json.Num (float s.tid));
        ( "args",
          Json.Obj
            ([ ("id", Json.Num (float s.id));
               ("parent", Json.Num (float s.parent));
               ("item", Json.Num (float s.item)) ]
            @ List.map (fun (k, v) -> (k, Json.Num v)) s.args) ) ]
  in
  let doc =
    Json.Obj
      [ ("traceEvents", Json.Arr (List.rev_map event t.spans));
        ("displayTimeUnit", Json.Str "ms") ]
  in
  let oc = open_out_bin path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc
