(* QCheck generators and helpers shared across suites. *)

open Gp_x86

let reg : Reg.t QCheck2.Gen.t =
  QCheck2.Gen.map Reg.of_number (QCheck2.Gen.int_range 0 15)

let cond : Insn.cond QCheck2.Gen.t =
  QCheck2.Gen.map Insn.cond_of_number (QCheck2.Gen.int_range 0 15)

let imm32 : int64 QCheck2.Gen.t =
  QCheck2.Gen.map Int64.of_int
    (QCheck2.Gen.int_range (Int32.to_int Int32.min_int) (Int32.to_int Int32.max_int))

let imm64 : int64 QCheck2.Gen.t =
  QCheck2.Gen.map
    (fun (a, b) -> Int64.logor (Int64.shift_left (Int64.of_int a) 32) (Int64.of_int b))
    QCheck2.Gen.(pair (int_range 0 0xffffffff) (int_range 0 0xffffffff))

let disp : int QCheck2.Gen.t =
  QCheck2.Gen.oneof
    [ QCheck2.Gen.int_range (-128) 127;
      QCheck2.Gen.int_range (-100000) 100000 ]

let mem : Insn.mem QCheck2.Gen.t =
  QCheck2.Gen.map2 (fun base disp -> { Insn.base; disp }) reg disp

let operand : Insn.operand QCheck2.Gen.t =
  QCheck2.Gen.oneof
    [ QCheck2.Gen.map (fun r -> Insn.Reg r) reg;
      QCheck2.Gen.map (fun i -> Insn.Imm i) imm32;
      QCheck2.Gen.map (fun m -> Insn.Mem m) mem ]

(* ALU-style operand pairs that the encoder accepts. *)
let alu_operands : (Insn.operand * Insn.operand) QCheck2.Gen.t =
  let open QCheck2.Gen in
  oneof
    [ map2 (fun a b -> (Insn.Reg a, Insn.Reg b)) reg reg;
      map2 (fun a b -> (Insn.Reg a, Insn.Mem b)) reg mem;
      map2 (fun a b -> (Insn.Mem a, Insn.Reg b)) mem reg;
      map2 (fun a b -> (Insn.Reg a, Insn.Imm b)) reg imm32;
      map2 (fun a b -> (Insn.Mem a, Insn.Imm b)) mem imm32 ]

(* Any encodable instruction. *)
let insn : Insn.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  oneof
    [ map (fun (d, s) -> Insn.Mov (d, s)) alu_operands;
      map2 (fun r i -> Insn.Movabs (r, i)) reg imm64;
      map2 (fun r m -> Insn.Lea (r, m)) reg mem;
      map (fun r -> Insn.Push r) reg;
      map (fun r -> Insn.Pop r) reg;
      map (fun i -> Insn.PushImm (Int64.to_int i)) imm32;
      map (fun (d, s) -> Insn.Add (d, s)) alu_operands;
      map (fun (d, s) -> Insn.Sub (d, s)) alu_operands;
      map (fun (d, s) -> Insn.And_ (d, s)) alu_operands;
      map (fun (d, s) -> Insn.Or_ (d, s)) alu_operands;
      map (fun (d, s) -> Insn.Xor (d, s)) alu_operands;
      map (fun (d, s) -> Insn.Cmp (d, s)) alu_operands;
      map2 (fun a b -> Insn.Test (a, b)) reg reg;
      map2 (fun a b -> Insn.Imul (a, b)) reg reg;
      map2 (fun r n -> Insn.Shl (r, n)) reg (int_range 0 63);
      map2 (fun r n -> Insn.Shr (r, n)) reg (int_range 0 63);
      map2 (fun r n -> Insn.Sar (r, n)) reg (int_range 0 63);
      map (fun r -> Insn.Inc r) reg;
      map (fun r -> Insn.Dec r) reg;
      map (fun r -> Insn.Neg r) reg;
      map (fun r -> Insn.Not_ r) reg;
      map2 (fun a b -> Insn.Xchg (a, b)) reg reg;
      map (fun i -> Insn.Jmp (Int64.to_int i)) imm32;
      map (fun r -> Insn.JmpReg r) reg;
      map (fun m -> Insn.JmpMem m) mem;
      map2 (fun c i -> Insn.Jcc (c, Int64.to_int i)) cond imm32;
      map (fun i -> Insn.Call (Int64.to_int i)) imm32;
      map (fun r -> Insn.CallReg r) reg;
      map (fun m -> Insn.CallMem m) mem;
      return Insn.Ret;
      map (fun n -> Insn.RetImm (n land 0xffff)) (int_range 0 0xffff);
      return Insn.Leave;
      return Insn.Syscall;
      return Insn.Nop;
      return Insn.Int3;
      return Insn.Hlt ]

(* Bit-vector terms over a small variable alphabet. *)
let term : Gp_smt.Term.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let var = map (fun i -> Gp_smt.Term.var (Printf.sprintf "v%d" i)) (int_range 0 3) in
  let const = map (fun i -> Gp_smt.Term.const i) imm64 in
  fix
    (fun self depth ->
      if depth = 0 then oneof [ var; const ]
      else
        let sub = self (depth - 1) in
        oneof
          [ var; const;
            map2 Gp_smt.Term.Raw.add sub sub;
            map2 Gp_smt.Term.Raw.sub sub sub;
            map2 Gp_smt.Term.Raw.mul sub sub;
            map Gp_smt.Term.Raw.neg sub;
            map Gp_smt.Term.Raw.lognot sub;
            map2 Gp_smt.Term.Raw.logand sub sub;
            map2 Gp_smt.Term.Raw.logor sub sub;
            map2 Gp_smt.Term.Raw.logxor sub sub;
            map2 (fun a k -> Gp_smt.Term.Raw.shl a (Gp_smt.Term.const (Int64.of_int k)))
              sub (int_range 0 63);
            map2 (fun a k -> Gp_smt.Term.Raw.shr a (Gp_smt.Term.const (Int64.of_int k)))
              sub (int_range 0 63) ])
    3

(* The same term rebuilt bottom-up through the smart constructors. *)
let rec rebuild (t : Gp_smt.Term.t) =
  let module T = Gp_smt.Term in
  match t with
  | T.Var _ | T.Const _ -> t
  | T.Add (a, b, _) -> T.add (rebuild a) (rebuild b)
  | T.Sub (a, b, _) -> T.sub (rebuild a) (rebuild b)
  | T.Mul (a, b, _) -> T.mul (rebuild a) (rebuild b)
  | T.Neg (a, _) -> T.neg (rebuild a)
  | T.Not (a, _) -> T.lognot (rebuild a)
  | T.And (a, b, _) -> T.logand (rebuild a) (rebuild b)
  | T.Or (a, b, _) -> T.logor (rebuild a) (rebuild b)
  | T.Xor (a, b, _) -> T.logxor (rebuild a) (rebuild b)
  | T.Shl (a, b, _) -> T.shl (rebuild a) (rebuild b)
  | T.Shr (a, b, _) -> T.shr (rebuild a) (rebuild b)
  | T.Sar (a, b, _) -> T.sar (rebuild a) (rebuild b)

(* Solver atoms over the same variable alphabet as [term]. *)
let formula : Gp_smt.Formula.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Gp_smt.Formula in
  oneof
    [ return True;
      return False;
      map2 (fun a b -> Eq (a, b)) term term;
      map2 (fun a b -> Ne (a, b)) term term;
      map2 (fun a b -> Slt (a, b)) term term;
      map2 (fun a b -> Sle (a, b)) term term;
      map2 (fun a b -> Ult (a, b)) term term;
      map2 (fun a b -> Ule (a, b)) term term;
      map (fun a -> Readable a) term;
      map (fun a -> Writable a) term ]

(* A solver query: a small conjunction of atoms. *)
let formulas : Gp_smt.Formula.t list QCheck2.Gen.t =
  QCheck2.Gen.(list_size (int_range 0 5) formula)

let model : (string -> int64) QCheck2.Gen.t =
  QCheck2.Gen.map
    (fun (a, b, c, d) v ->
      match v with
      | "v0" -> a
      | "v1" -> b
      | "v2" -> c
      | _ -> d)
    QCheck2.Gen.(quad imm64 imm64 imm64 imm64)

(* Wrap a QCheck2 test into an alcotest case. *)
let qtest name ?(count = 200) gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen prop)

(* A plain mirror of the term and atom variants as they were before
   interior term nodes carried a key: the reference for structural order
   and identity in the hash-consing properties.  Constructor order is
   the library's, so polymorphic [compare] on mirrors is the structural
   order the solver's atom sort relies on. *)
(* ----- concurrent requests ----- *)

(* JOBS (default 4): how many domains the concurrency differentials
   run their requests on; `make check` sweeps it at 1 and 4. *)
let jobs_under_test =
  match Sys.getenv_opt "JOBS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

(* Run [thunks] as concurrent requests: one task each on a fresh
   [Sched.Service] of [jobs] workers, as survey cells and daemon
   requests run.  Results come back in input order; a task's exception
   re-raises here, after every worker has joined. *)
let concurrently ~jobs thunks =
  let module Sv = Gp_harness.Sched.Service in
  let tasks = Array.of_list thunks in
  let out = Array.make (Array.length tasks) None in
  let sv = Sv.start ~jobs in
  Array.iteri
    (fun i f ->
      Sv.submit sv (fun () ->
          out.(i) <- Some (match f () with v -> Ok v | exception e -> Error e)))
    tasks;
  Sv.stop sv;
  Array.to_list out
  |> List.map (function
       | Some (Ok v) -> v
       | Some (Error e) -> raise e
       | None -> assert false)

(* [n] (default JOBS) copies of [f] as concurrent requests on [jobs]
   (default JOBS) workers. *)
let copies ?(jobs = jobs_under_test) ?(n = jobs_under_test) f =
  concurrently ~jobs (List.init n (fun _ -> f))

module Mirror = struct
  type term =
    | Var of string
    | Const of int64
    | Add of term * term
    | Sub of term * term
    | Mul of term * term
    | Neg of term
    | Not of term
    | And of term * term
    | Or of term * term
    | Xor of term * term
    | Shl of term * term
    | Shr of term * term
    | Sar of term * term

  type atom =
    | True
    | False
    | Eq of term * term
    | Ne of term * term
    | Slt of term * term
    | Sle of term * term
    | Ult of term * term
    | Ule of term * term
    | Readable of term
    | Writable of term

  module T = Gp_smt.Term
  module F = Gp_smt.Formula

  let rec term (t : T.t) =
    match t with
    | T.Var v -> Var v
    | T.Const c -> Const c
    | T.Add (a, b, _) -> Add (term a, term b)
    | T.Sub (a, b, _) -> Sub (term a, term b)
    | T.Mul (a, b, _) -> Mul (term a, term b)
    | T.Neg (a, _) -> Neg (term a)
    | T.Not (a, _) -> Not (term a)
    | T.And (a, b, _) -> And (term a, term b)
    | T.Or (a, b, _) -> Or (term a, term b)
    | T.Xor (a, b, _) -> Xor (term a, term b)
    | T.Shl (a, b, _) -> Shl (term a, term b)
    | T.Shr (a, b, _) -> Shr (term a, term b)
    | T.Sar (a, b, _) -> Sar (term a, term b)

  let atom (f : F.t) =
    match f with
    | F.True -> True
    | F.False -> False
    | F.Eq (a, b) -> Eq (term a, term b)
    | F.Ne (a, b) -> Ne (term a, term b)
    | F.Slt (a, b) -> Slt (term a, term b)
    | F.Sle (a, b) -> Sle (term a, term b)
    | F.Ult (a, b) -> Ult (term a, term b)
    | F.Ule (a, b) -> Ule (term a, term b)
    | F.Readable a -> Readable (term a)
    | F.Writable a -> Writable (term a)

  (* The mirrored structure rebuilt as raw nodes, sharing nothing. *)
  let rec raw (m : term) : T.t =
    match m with
    | Var v -> T.var (String.init (String.length v) (String.get v))
    | Const c -> T.const c
    | Add (a, b) -> T.Raw.add (raw a) (raw b)
    | Sub (a, b) -> T.Raw.sub (raw a) (raw b)
    | Mul (a, b) -> T.Raw.mul (raw a) (raw b)
    | Neg a -> T.Raw.neg (raw a)
    | Not a -> T.Raw.lognot (raw a)
    | And (a, b) -> T.Raw.logand (raw a) (raw b)
    | Or (a, b) -> T.Raw.logor (raw a) (raw b)
    | Xor (a, b) -> T.Raw.logxor (raw a) (raw b)
    | Shl (a, b) -> T.Raw.shl (raw a) (raw b)
    | Shr (a, b) -> T.Raw.shr (raw a) (raw b)
    | Sar (a, b) -> T.Raw.sar (raw a) (raw b)
end

(* The term operations the executor's fast paths replace, as they were
   before canonical terms were read by their shape: [linearize] walking
   every node, and [add]/[sub] re-linearizing the whole sum.  The
   reference for the exactness properties in test_smt. *)
module Reference = struct
  module T = Gp_smt.Term

  let rec linearize (t : T.t) : T.linear option =
    match t with
    | T.Var v -> Some { T.lin_const = 0L; lin_terms = [ (v, 1L) ] }
    | T.Const c -> Some (T.lin_const c)
    | T.Add (a, b, _) ->
      Option.bind (linearize a) (fun la ->
          Option.map (fun lb -> T.lin_add la lb) (linearize b))
    | T.Sub (a, b, _) ->
      Option.bind (linearize a) (fun la ->
          Option.map (fun lb -> T.lin_add la (T.lin_neg lb)) (linearize b))
    | T.Neg (a, _) -> Option.map T.lin_neg (linearize a)
    | T.Mul (T.Const k, b, _) | T.Mul (b, T.Const k, _) ->
      Option.map (T.lin_scale k) (linearize b)
    | T.Shl (a, T.Const k, _) when k >= 0L && k < 64L ->
      Option.map (T.lin_scale (Int64.shift_left 1L (Int64.to_int k))) (linearize a)
    | T.Not (a, _) ->
      Option.map (fun la -> T.lin_add (T.lin_neg la) (T.lin_const (-1L))) (linearize a)
    | _ -> None

  (* What the old smart constructor built from canonical operands:
     [Some t] for a leaf, an operand or [of_linear]'s form, [None] when
     the node did not linearize and was interned as it is. *)
  type built = T.t option

  let relin n : built = Option.map T.of_linear (linearize n)

  let add a b : built =
    let a = T.simplify a and b = T.simplify b in
    match a, b with
    | T.Const x, T.Const y -> Some (T.const (Int64.add x y))
    | T.Const 0L, t | t, T.Const 0L -> Some t
    | _ -> relin (T.Raw.add a b)

  let sub a b : built =
    let a = T.simplify a and b = T.simplify b in
    match a, b with
    | T.Const x, T.Const y -> Some (T.const (Int64.sub x y))
    | t, T.Const 0L -> Some t
    | x, y when T.same x y -> Some (T.const 0L)
    | _ -> relin (T.Raw.sub a b)

  (* [linearize (sub a b)] when it is a constant.  An interned [Sub]
     did not linearize, so neither does the term built. *)
  let const_distance a b =
    match Option.bind (sub a b) linearize with
    | Some { T.lin_terms = []; lin_const } -> Some lin_const
    | _ -> None
end
