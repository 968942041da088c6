(* Hex rendering helpers shared by the CLI, examples, and tests. *)

let of_bytes b =
  let buf = Buffer.create (Bytes.length b * 2) in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
  Buffer.contents buf

let int64_le v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  b
