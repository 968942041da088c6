(* Gadget extraction (paper §IV-B).

   Two modes:

   - [raw_scan]: the cheap syntactic census every tool starts from — slide
     a decoder over every byte offset (catching unaligned instruction
     streams), follow direct jumps and conditional falls, classify the
     resulting run.  This is what Fig. 1 / Table I count.

   - [harvest]: the full pipeline — prefilter byte offsets syntactically,
     then symbolically execute each surviving start (forking at
     conditional jumps, merging through direct jumps) and build gadget
     records for the planner. *)

open Gp_x86

type config = {
  unaligned : bool;           (* start at every byte, not just insn starts *)
  max_insns : int;
  max_forks : int;
  max_merges : int;
  max_gadget_bytes : int;     (* ignore starts whose first insn run is huge *)
}

let default_config =
  (* max_insns must span the distance from a comparison to the following
     epilogue in unoptimized code, or conditional gadgets never complete *)
  { unaligned = true; max_insns = 30; max_forks = 2; max_merges = 2;
    max_gadget_bytes = 96 }

(* ----- syntactic census ----- *)

type raw = {
  raw_addr : int64;
  raw_insns : Insn.t list;
  raw_kind : Gadget.kind;
}

(* Follow a run until a control transfer.  With [merge] (the harvest
   prefilter), direct jumps/calls are followed like the symbolic stage
   will; without it (the census behind Fig. 1 / Table I), a direct
   transfer ENDS the gadget, matching the paper's taxonomy: UDJ/CDJ end
   with a direct jump, UIJ/CIJ with an indirect one, conditional kinds
   contain a jcc on the way. *)
let scan_run ?(merge = true) ?decode ~config (image : Gp_util.Image.t) pos =
  let code = image.Gp_util.Image.code in
  let limit = Bytes.length code in
  let decode =
    match decode with Some f -> f | None -> fun p -> Decode.decode code p
  in
  let rec go acc pos n merges has_cond =
    if n > config.max_insns || pos < 0 || pos >= limit then None
    else
      match decode pos with
      | None -> None
      | Some (insn, len) -> (
        let acc = insn :: acc in
        let next = pos + len in
        match insn with
        | Insn.Ret | Insn.RetImm _ ->
          Some (List.rev acc, (if has_cond then Gadget.CDJ else Gadget.Return))
        | Insn.JmpReg _ | Insn.JmpMem _ | Insn.CallReg _ | Insn.CallMem _ ->
          Some (List.rev acc, (if has_cond then Gadget.CIJ else Gadget.UIJ))
        | Insn.Syscall -> Some (List.rev acc, Gadget.Sys)
        | Insn.Jmp rel | Insn.Call rel ->
          if merge && merges < config.max_merges then
            go acc (next + rel) (n + 1) (merges + 1) has_cond
          else if n > 0 then
            (* a bare jmp with no useful body is not a gadget *)
            Some (List.rev acc, (if has_cond then Gadget.CDJ else Gadget.UDJ))
          else None
        | Insn.Jcc (_, _) ->
          (* fall through, remembering the conditional *)
          go acc next (n + 1) merges true
        | Insn.Int3 | Insn.Hlt -> None
        | _ -> go acc next (n + 1) merges has_cond)
  in
  go [] pos 0 0 false

let start_positions ?decode ~config (image : Gp_util.Image.t) =
  let n = Gp_util.Image.code_size image in
  let decode =
    match decode with
    | Some f -> f
    | None -> fun p -> Decode.decode image.Gp_util.Image.code p
  in
  if config.unaligned then List.init n Fun.id
  else begin
    (* aligned mode: decode forward from 0, collecting boundaries *)
    let rec walk pos acc =
      if pos >= n then List.rev acc
      else
        match decode pos with
        | Some (_, len) -> walk (pos + len) (pos :: acc)
        | None -> walk (pos + 1) acc
    in
    walk 0 []
  end

let raw_scan ?(config = { default_config with max_insns = 24 })
    (image : Gp_util.Image.t) : raw list =
  let base = image.Gp_util.Image.code_base in
  (* decode-once: every position is decoded a single time up front and
     the census's overlapping runs share the results *)
  let memo = Decode.memo image.Gp_util.Image.code in
  let decode = Decode.decode_memo memo in
  List.filter_map
    (fun pos ->
      match scan_run ~merge:false ~decode ~config image pos with
      | Some (insns, kind) ->
        Some
          { raw_addr = Int64.add base (Int64.of_int pos);
            raw_insns = insns;
            raw_kind = kind }
      | None -> None)
    (start_positions ~decode ~config image)

let raw_counts ?config image =
  let raws = raw_scan ?config image in
  let slot = function
    | Gadget.Return -> 0
    | Gadget.UDJ -> 1
    | Gadget.UIJ -> 2
    | Gadget.CDJ -> 3
    | Gadget.CIJ -> 4
    | Gadget.Sys -> 5
  in
  let counts = Array.make 6 0 in
  List.iter (fun r -> counts.(slot r.raw_kind) <- counts.(slot r.raw_kind) + 1) raws;
  [ (Gadget.Return, counts.(0));
    (Gadget.UDJ, counts.(1));
    (Gadget.UIJ, counts.(2));
    (Gadget.CDJ, counts.(3));
    (Gadget.CIJ, counts.(4));
    (Gadget.Sys, counts.(5)) ]

(* ----- symbolic harvest ----- *)

(* A gadget is usable by the planner only if its stack behaviour is
   understood. *)
let usable (g : Gadget.t) =
  match g.Gadget.stack_delta with
  | Gadget.Sunknown -> (
    match g.Gadget.jmp with
    | Gp_symx.Exec.Jfall _ -> true   (* terminal syscall gadgets need no delta *)
    | _ -> false)
  | Gadget.Spivot d -> d >= -64 && d <= 512   (* leave-style frame pivots *)
  | Gadget.Sdelta d -> (
    match g.Gadget.jmp with
    | Gp_symx.Exec.Jret _ -> d >= 8 && d <= 512
    | Gp_symx.Exec.Jind _ -> d >= -16 && d <= 512
    | Gp_symx.Exec.Jfall _ -> true)

(* Fault-injection hook: starts for which the predicate answers true are
   treated as undecodable windows and quarantined (see
   Gp_harness.Faultsim).  Defaults to never firing. *)
let chaos_decode : (int64 -> bool) ref = ref (fun _ -> false)

type harvest_stats = {
  h_starts : int;                       (* start offsets examined *)
  h_quarantined : (string * int) list;  (* Fail.label -> count *)
  h_budget_hit : bool;                  (* harvest stopped early *)
  h_summary_hits : int;                 (* starts served from the content store *)
  h_summary_misses : int;               (* starts symbolically executed *)
  h_decode_saved : int;                 (* decodes the decode-once memo absorbed *)
}

(* Per-chunk summary-store counters.  Each worker owns one and the merge
   sums them in chunk index order — deterministic aggregation whatever
   the domain schedule (the VALUES can still differ with cache
   temperature, e.g. two domains racing to a double miss, which is why
   hit/miss counts are excluded from differential fingerprints, same as
   the solver-cache counters). *)
type sctr = { mutable sc_hits : int; mutable sc_misses : int }

let sym_config_of config =
  { Gp_symx.Exec.max_insns = config.max_insns;
    max_forks = config.max_forks;
    max_merges = config.max_merges }

(* Examine one start offset: syntactic prefilter, chaos check, symbolic
   summarization, conversion.  Gadget records carry a placeholder id;
   the merge in [harvest_r] renumbers.  Returns one entry per CONVERTED
   summary: [Some g] when usable, [None] when converted but unusable.
   The distinction matters because every conversion consumes a gadget
   id, so renumbering must see both. *)
let examine_start ~config ~sym_config ~decode ~sctr ~tally
    (image : Gp_util.Image.t) pos : Gadget.t option list =
  (* cheap prefilter: must syntactically reach a terminator *)
  match scan_run ~decode ~config image pos with
  | None -> []
  | Some _ ->
    let addr =
      Int64.add image.Gp_util.Image.code_base (Int64.of_int pos)
    in
    if !chaos_decode addr then begin
      Fail.tally_add tally (Fail.Decode_fault (addr, "injected"));
      []
    end
    else begin
      let summarize () =
        Gp_symx.Exec.summarize_r ~config:sym_config ~decode image addr
      in
      let summaries, refused =
        (* Content-addressed store consult (DESIGN.md §11): the injected
           chaos check stays BEFORE the lookup, so a quarantined start
           never reads or seeds the store — mirroring the solver memo's
           injection discipline. *)
        if not (Incr.enabled ()) then summarize ()
        else begin
          let key =
            Gadget.content_key ~config:sym_config ~decode
              ~code_size:(Gp_util.Image.code_size image) ~pos
          in
          match Incr.find key with
          | Some (ss, refused) ->
            sctr.sc_hits <- sctr.sc_hits + 1;
            (List.map (Gp_symx.Exec.rebase ~addr) ss, refused)
          | None ->
            sctr.sc_misses <- sctr.sc_misses + 1;
            let v = summarize () in
            Incr.add key v;
            v
        end
      in
      (match refused with
       | Some why -> Fail.tally_add tally (Fail.Symx_unsupported (addr, why))
       | None -> ());
      List.filter_map
        (fun s ->
          match Gadget.of_summary ~id:(-1) s with
          | g -> Some (if usable g then Some g else None)
          | exception e ->
            Fail.tally_add tally
              (Fail.Decode_fault (addr, Printexc.to_string e));
            None)
        summaries
    end

(* Budgeted, fault-isolating harvest.  One poisoned start — injected
   decode fault, symbolic-executor refusal, or an exception out of
   summary conversion — quarantines THAT start and is tallied; the rest
   of the harvest proceeds.

   The start offsets are chunked over [jobs] domains ([Par.run] runs the
   chunks inline at one job).  Each chunk owns a budget slice and a
   fault tally; the merge walks chunks in index order, so gadget order —
   and, after renumbering, the gadget id sequence — is the same at every
   job count (DESIGN.md "Parallel execution & determinism").  Fuel is
   checkpointed per chunk: a global allowance of F start offsets covers
   positions [0, F) exactly as a sequential meter would, so each chunk's
   share is its overlap with that prefix. *)
let harvest_r ?(config = default_config) ?(budget = Budget.unlimited ())
    ?(jobs = 1) ?(ids = Gadget.global_ids) (image : Gp_util.Image.t) :
    Gadget.t list * harvest_stats =
  let sym_config = sym_config_of config in
  (* decode-once memo: built eagerly on the main domain, immutable
     thereafter, so every worker reads it lock-free *)
  let memo = Decode.memo image.Gp_util.Image.code in
  let decode = Decode.decode_memo memo in
  let positions = Array.of_list (start_positions ~decode ~config image) in
  let n = Array.length positions in
  let fuel0 = Budget.remaining_fuel budget in
  let chunk = Gp_util.Par.chunk_size ~min_chunk:64 ~jobs n in
  let tasks =
    Array.map
      (fun (lo, hi) ->
        fun () ->
          let tally = Fail.tally_create () in
          let sctr = { sc_hits = 0; sc_misses = 0 } in
          let allot =
            if fuel0 = max_int then hi - lo else max 0 (min hi fuel0 - lo)
          in
          let b = Budget.slice budget ~fuel:allot () in
          let out = ref [] in
          let examined = ref 0 in
          let hit =
            try
              for k = lo to hi - 1 do
                Budget.check b;
                Budget.spend b;
                incr examined;
                out :=
                  examine_start ~config ~sym_config ~decode ~sctr ~tally image
                    positions.(k)
                  :: !out
              done;
              allot < hi - lo
            with Budget.Exhausted _ -> true
          in
          (List.concat (List.rev !out), tally, !examined, hit, sctr))
      (Gp_util.Par.ranges ~chunk n)
  in
  let results = Array.to_list (Gp_util.Par.run ~jobs tasks) in
  (* Associative merges, in chunk index order — including the summary
     hit/miss counters: workers count into chunk-local records and only
     this fold, on the main domain, sums them, so aggregation can never
     undercount however domains interleave. *)
  let quarantined =
    List.fold_left
      (fun acc (_, t, _, _, _) -> Fail.merge_counts acc (Fail.tally_list t))
      [] results
  in
  let examined = List.fold_left (fun acc (_, _, e, _, _) -> acc + e) 0 results in
  let s_hits, s_misses =
    List.fold_left
      (fun (h, m) (_, _, _, _, sctr) -> (h + sctr.sc_hits, m + sctr.sc_misses))
      (0, 0) results
  in
  let hit = List.exists (fun (_, _, _, h, _) -> h) results in
  Budget.spend budget ~amount:examined;
  let gadgets =
    List.concat_map (fun (entries, _, _, _, _) -> entries) results
    |> List.filter_map (fun entry ->
           let id = ids () in
           match entry with
           | Some g -> Some { g with Gadget.id }
           | None -> None)
  in
  ( gadgets,
    { h_starts = examined;
      h_quarantined = quarantined;
      h_budget_hit = hit;
      h_summary_hits = s_hits;
      h_summary_misses = s_misses;
      h_decode_saved = max 0 (Decode.memo_lookups memo - Decode.memo_size memo) } )

let harvest ?config ?jobs image = fst (harvest_r ?config ?jobs image)
