(* Plain-text table rendering for the experiment reports. *)

type t = {
  title : string;
  header : string list;
  mutable rows : string list list;   (* reversed *)
}

let create ~title ~header = { title; header; rows = [] }

let add_row t row = t.rows <- row :: t.rows

let render t =
  let rows = List.rev t.rows in
  let all = t.header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init ncols width in
  let buf = Buffer.create 512 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  let render_row row =
    List.iteri
      (fun c w ->
        let cell = match List.nth_opt row c with Some s -> s | None -> "" in
        Buffer.add_string buf cell;
        Buffer.add_string buf (String.make (w - String.length cell + 2) ' '))
      widths;
    Buffer.add_char buf '\n'
  in
  render_row t.header;
  Buffer.add_string buf (String.make (List.fold_left ( + ) 0 widths + 2 * ncols) '-');
  Buffer.add_char buf '\n';
  List.iter render_row rows;
  Buffer.contents buf

(* helpers *)
let fmt_f1 v = Printf.sprintf "%.1f" v
let fmt_pct v = Printf.sprintf "%.0f%%" v
