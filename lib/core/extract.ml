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
}

let default_config =
  (* max_insns must span the distance from a comparison to the following
     epilogue in unoptimized code, or conditional gadgets never complete *)
  { unaligned = true; max_insns = 30; max_forks = 2; max_merges = 2 }

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
  h_summary_hits : int;                 (* starts replayed from the image memo *)
  h_summary_misses : int;               (* starts symbolically executed *)
  h_decode_saved : int;                 (* decodes the decode-once memo absorbed *)
}

let sym_config_of config =
  { Gp_symx.Exec.max_insns = config.max_insns;
    max_forks = config.max_forks;
    max_merges = config.max_merges }

(* The image memo's key (DESIGN.md §11): every input the harvest reads.
   The prefilter and the executor read only the code section, so the
   config, the code base and the code bytes determine the result. *)
let image_key config (image : Gp_util.Image.t) =
  let module Bin = Gp_util.Store.Bin in
  let b = Buffer.create 64 in
  Bin.bool_ b config.unaligned;
  Bin.int_ b config.max_insns;
  Bin.int_ b config.max_forks;
  Bin.int_ b config.max_merges;
  Bin.i64 b image.Gp_util.Image.code_base;
  Buffer.add_string b (Digest.bytes image.Gp_util.Image.code);
  Digest.string (Buffer.contents b)

(* Symbolically summarize one start that passed the prefilter and
   convert its summaries.  Gadget records carry a placeholder id;
   [number] assigns the real ones.  One entry per CONVERTED summary:
   [Some g] when usable, [None] when converted but unusable.  The
   distinction matters because every conversion consumes a gadget id,
   so numbering must see both. *)
let examine_start ~sym_config ~decode image pos addr : Incr.record =
  let summaries, refused =
    Gp_symx.Exec.summarize_r ~config:sym_config ~decode image addr
  in
  let fails =
    match refused with
    | Some why -> [ Fail.Symx_unsupported (addr, why) ]
    | None -> []
  in
  let fails, entries =
    List.fold_left
      (fun (fails, entries) s ->
        match Gadget.of_summary ~id:(-1) s with
        | g -> (fails, (if usable g then Some g else None) :: entries)
        | exception e ->
          (Fail.Decode_fault (addr, Printexc.to_string e) :: fails, entries))
      (List.rev fails, []) summaries
  in
  { Incr.r_pos = pos; r_fails = List.rev fails; r_entries = List.rev entries }

(* Number the records' entries in order, one id per entry, [None]
   included: the sequence a sequential harvest draws. *)
let number ids records =
  List.concat_map (fun r -> r.Incr.r_entries) records
  |> List.filter_map (fun entry ->
         let id = ids () in
         Option.map (fun g -> { g with Gadget.id }) entry)

let addr_of (image : Gp_util.Image.t) pos =
  Int64.add image.Gp_util.Image.code_base (Int64.of_int pos)

(* A memo hit: replay the stored records as the fresh path would have
   produced them — the chaos hook still decides per start, each
   surviving start tallies its stored faults and draws its ids — and
   charge the fuel the fresh path would have spent. *)
let replay ~budget ~ids image (v : Incr.value) =
  let tally = Fail.tally_create () in
  let live =
    List.filter
      (fun r ->
        let addr = addr_of image r.Incr.r_pos in
        if !chaos_decode addr then begin
          Fail.tally_add tally (Fail.Decode_fault (addr, "injected"));
          false
        end
        else begin
          List.iter (Fail.tally_add tally) r.Incr.r_fails;
          true
        end)
      v.Incr.v_records
  in
  Budget.spend budget ~amount:v.Incr.v_starts;
  ( number ids live,
    { h_starts = v.Incr.v_starts;
      h_quarantined = Fail.tally_list tally;
      h_budget_hit = false;
      h_summary_hits = List.length v.Incr.v_records;
      h_summary_misses = 0;
      h_decode_saved = 0 } )

(* Budgeted, fault-isolating harvest.  One poisoned start — injected
   decode fault, symbolic-executor refusal, or an exception out of
   summary conversion — quarantines THAT start and is tallied; the rest
   of the harvest proceeds.

   The image memo is consulted first.  A hit is taken only when the
   budget could have examined every start (fuel for all of them, not
   exhausted); otherwise the harvest runs fresh, and a fresh harvest is
   stored only when it examined every start and no start was
   chaos-quarantined, so a stored record is always the whole image.

   A fresh harvest is one loop over the start offsets in order, metered
   by [budget] itself: one [check] and one [spend] per start, so a fuel
   allowance of F covers positions [0, F) exactly. *)
let harvest_r ?(budget = Budget.unlimited ()) ?(ids = Gadget.global_ids)
    (image : Gp_util.Image.t) : Gadget.t list * harvest_stats =
  let config = default_config in
  let key = image_key config image in
  match Incr.find key with
  | Some v
    when Budget.remaining_fuel budget >= v.Incr.v_starts
         && not (Budget.exhausted budget) ->
    replay ~budget ~ids image v
  | _ ->
    let sym_config = sym_config_of config in
    let memo = Decode.memo image.Gp_util.Image.code in
    let decode = Decode.decode_memo memo in
    let tally = Fail.tally_create () in
    let records = ref [] in
    let examined = ref 0 in
    let injected = ref false in
    let hit =
      try
        List.iter
          (fun pos ->
            Budget.check budget;
            Budget.spend budget;
            incr examined;
            (* cheap prefilter: must syntactically reach a terminator *)
            if Option.is_some (scan_run ~decode ~config image pos) then begin
              let addr = addr_of image pos in
              if !chaos_decode addr then begin
                Fail.tally_add tally (Fail.Decode_fault (addr, "injected"));
                injected := true
              end
              else begin
                let r = examine_start ~sym_config ~decode image pos addr in
                List.iter (Fail.tally_add tally) r.Incr.r_fails;
                records := r :: !records
              end
            end)
          (start_positions ~decode ~config image);
        false
      with Budget.Exhausted _ -> true
    in
    let records = List.rev !records in
    if not (hit || !injected) then
      Incr.add key { Incr.v_starts = !examined; v_records = records };
    ( number ids records,
      { h_starts = !examined;
        h_quarantined = Fail.tally_list tally;
        h_budget_hit = hit;
        h_summary_hits = 0;
        h_summary_misses = List.length records;
        h_decode_saved = max 0 (Decode.memo_lookups memo - Decode.memo_size memo) } )

let harvest image = fst (harvest_r image)
