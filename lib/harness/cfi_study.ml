(* CFI-infeasibility study (supports the threat model, paper §III-A).

   The paper assumes obfuscated binaries run without CFI because "the
   control flow in obfuscated programs is heavily mangled, which breaks
   the fundamental assumptions of these defense methods, leading to
   overwhelming false positives".  This experiment quantifies that claim
   on our substrate:

   - POLICY: the classic coarse-grained forward-edge CFI — an indirect
     jump or call may only target a FUNCTION ENTRY (what a binary-level
     CFI enforcer can whitelist without source).
   - MEASUREMENT: run each program on its benign input and count the
     indirect transfers the policy would flag.

   Original programs make no indirect transfers at all (no violations,
   and CFI deploys cleanly).  Obfuscated programs dispatch through jump
   tables whose targets are basic blocks, not function entries — every
   such transfer is a false positive, so a deployed CFI monitor would
   kill the legitimate program immediately. *)

type row = {
  cfi_program : string;
  cfi_config : string;
  cfi_transfers : int;      (* indirect transfers executed *)
  cfi_violations : int;     (* flagged by the entry-only policy *)
  cfi_completed : bool;     (* benign run finished within fuel *)
}

let run_one ?(budget = Gp_core.Budget.unlimited ())
    (entry : Gp_corpus.Programs.entry) (cname, cfg) : row =
  let image =
    Gp_codegen.Pipeline.compile ~transform:(Gp_obf.Obf.transform cfg)
      entry.Gp_corpus.Programs.source
  in
  let allowed =
    List.filter_map
      (fun (s : Gp_util.Image.symbol) ->
        if Gp_util.Image.in_code image s.Gp_util.Image.sym_addr then
          Some s.Gp_util.Image.sym_addr
        else None)
      image.Gp_util.Image.symbols
  in
  let m = Gp_emu.Machine.create image in
  Gp_emu.Memory.write64 m.Gp_emu.Machine.mem Gp_corpus.Netperf.input_area 2L;
  let fuel = Gp_core.Budget.emu_fuel ~cap:40_000_000 budget in
  (* a Timeout row (cfi_completed = false) still counts the transfers
     executed so far, but must not masquerade as a finished benign run *)
  let outcome = Gp_emu.Machine.run ~fuel m in
  let transfers = List.length m.Gp_emu.Machine.indirects in
  let violations =
    List.length
      (List.filter
         (fun (_, target) -> not (List.mem target allowed))
         m.Gp_emu.Machine.indirects)
  in
  { cfi_program = entry.Gp_corpus.Programs.name;
    cfi_config = cname;
    cfi_transfers = transfers;
    cfi_violations = violations;
    cfi_completed = (match outcome with
                     | Gp_emu.Machine.Timeout -> false
                     | _ -> true) }

let study ?(entries = Survey.quick_grid.Survey.entries) ?budget () =
  let rows =
    List.concat_map
      (fun entry -> List.map (run_one ?budget entry) Workspace.obf_configs)
      entries
  in
  let t =
    Table.create
      ~title:
        "CFI study: benign-run indirect transfers flagged by entry-only CFI"
      ~header:[ "program"; "config"; "indirect transfers"; "violations"; "run" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [ r.cfi_program; r.cfi_config; string_of_int r.cfi_transfers;
          string_of_int r.cfi_violations;
          (if r.cfi_completed then "done" else "timeout") ])
    rows;
  (Table.render t, rows)
