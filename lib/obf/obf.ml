(* Obfuscation driver: named passes, configurations, and the two presets
   mirroring the paper's tools.

   - [ollvm]   = Obfuscator-LLVM:  substitution + bogus CF + flattening.
   - [tigress] = Tigress: those three plus literal encoding,
                 virtualization, self-modification (sim), JIT (sim).

   The input program is cloned, so one IR can be compiled under many
   configurations. *)

type pass =
  | Substitution
  | Bogus_cf
  | Flatten
  | Encode_literals
  | Virtualize
  | Self_modify
  | Jit

let pass_name = function
  | Substitution -> "substitution"
  | Bogus_cf -> "bogus-cf"
  | Flatten -> "flatten"
  | Encode_literals -> "encode-literals"
  | Virtualize -> "virtualize"
  | Self_modify -> "self-modify"
  | Jit -> "jit"

let pass_of_name = function
  | "substitution" | "sub" -> Substitution
  | "bogus-cf" | "bcf" -> Bogus_cf
  | "flatten" | "fla" -> Flatten
  | "encode-literals" | "lit" -> Encode_literals
  | "virtualize" | "virt" -> Virtualize
  | "self-modify" | "sm" -> Self_modify
  | "jit" -> Jit
  | s -> invalid_arg ("unknown obfuscation pass: " ^ s)

let all_passes =
  [ Substitution; Bogus_cf; Flatten; Encode_literals; Virtualize; Self_modify; Jit ]

type config = {
  passes : pass list;
  seed : int;
}

let config ?(seed = 1) passes = { passes; seed }

(* Presets matching the paper's §III setup ("turn on all possible
   obfuscation options provided by these tools"). *)
let none = config []
let ollvm = config [ Substitution; Bogus_cf; Flatten ]
let tigress =
  config
    [ Encode_literals; Virtualize; Substitution; Bogus_cf; Flatten;
      Self_modify; Jit ]

(* One pass alone, for the per-method study (Fig. 5). *)
let single pass = config [ pass ]

(* The probability knob of the probabilistic passes. *)
let intensity = 0.5

let apply_pass rng prog = function
  | Substitution -> Substitution.run ~prob:intensity rng prog
  | Bogus_cf -> Bogus_cf.run ~prob:(intensity *. 0.8) rng prog
  | Flatten -> Flatten.run rng prog
  | Encode_literals -> Encode_lit.run ~prob:intensity rng prog
  | Virtualize -> Virtualize.run rng prog
  | Self_modify -> Self_mod.run rng prog
  | Jit -> Jit_sim.run rng prog

let apply (cfg : config) (prog : Gp_ir.Ir.program) : Gp_ir.Ir.program =
  (* Fresh-name counters restart at 0 for every compile: generated
     globals, jit tags, and jit-area destinations must depend only on
     (source, config) so that concurrently scheduled cell compiles
     (Sched, DESIGN.md §14) produce the same bytes as sequential ones. *)
  Opaque.reset_counter ();
  Bogus_cf.reset_counter ();
  Jit_sim.reset_counter ();
  Self_mod.reset_counter ();
  let rng = Gp_util.Rng.create cfg.seed in
  let prog = Gp_ir.Ir.clone_program prog in
  List.fold_left (apply_pass rng) prog cfg.passes

(* The transform shape expected by Codegen.Pipeline.compile. *)
let transform cfg prog = apply cfg prog
