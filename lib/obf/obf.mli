(** Obfuscation driver: named passes, configurations, and the two presets
    mirroring the paper's tools (§III-B). *)

type pass =
  | Substitution       (** arithmetic identities, Obfuscator-LLVM -sub *)
  | Bogus_cf           (** opaque-predicate junk branches, -bcf *)
  | Flatten            (** dispatcher loop, -fla *)
  | Encode_literals    (** Tigress EncodeLiterals *)
  | Virtualize         (** Tigress Virtualize: bytecode + interpreter *)
  | Self_modify        (** Tigress SelfModify, simulated (DESIGN.md §2) *)
  | Jit                (** Tigress JitDynamic, simulated *)

val pass_name : pass -> string
val pass_of_name : string -> pass
(** Accepts the full name or the usual abbreviation (sub, bcf, fla, lit,
    virt, sm, jit); raises [Invalid_argument] otherwise. *)

val all_passes : pass list

type config = {
  passes : pass list;    (** applied in order *)
  seed : int;
}

val config : ?seed:int -> pass list -> config

val none : config
(** No obfuscation. *)

val ollvm : config
(** Obfuscator-LLVM preset: substitution + bogus CF + flattening. *)

val tigress : config
(** Tigress preset: literals, virtualization, substitution, bogus CF,
    flattening, self-modification, JIT. *)

val single : pass -> config
(** One pass alone (the per-method study behind Fig. 5). *)

val apply : config -> Gp_ir.Ir.program -> Gp_ir.Ir.program
(** Clone the program and run the passes.  Semantics-preserving: the
    differential test suite compares emulator runs before and after. *)

val transform : config -> Gp_ir.Ir.program -> Gp_ir.Ir.program
(** Alias of {!apply} in the shape [Codegen.Pipeline.compile] expects. *)
