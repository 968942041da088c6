(* Paged copy-on-write emulated memory: a few regions (code, data, stack,
   scratch), each cut into 4 KiB pages counted from the region's base.

   A region reads through its private page when that page has been
   written, and otherwise through its read-only base: the image's bytes
   for code and data (shared, never copied, never written), or nothing
   for the zeroed stack and scratch, whose unwritten pages read as 0.  The
   first write to a page copies it from the base (or zero-fills it).  So
   a machine costs what its run touches, not what the image maps.

   Code is writable like any other page — real processes can be
   self-modifying and the simulated self-mod/JIT obfuscations rely on it —
   and the fetch path reads through here, so it sees the patched bytes. *)

exception Fault of string

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

type region = {
  r_base : int64;
  r_end : int64;
  r_size : int;
  r_init : Bytes.t option;  (* read-only base; [None] reads as zeros *)
  r_pages : Bytes.t array;  (* private pages, [absent] until first write *)
}

(* Physical-equality sentinel for a page that has not been written. *)
let absent = Bytes.create 0

(* Matches no address: the lookup cache's initial value. *)
let no_region =
  { r_base = 0L; r_end = 0L; r_size = 0; r_init = None; r_pages = [||] }

type t = {
  mutable regions : region list;  (* newest first: it wins on overlap *)
  mutable last : region;          (* the region that answered last *)
  mutable disjoint : bool;        (* no two regions overlap *)
}

let create () = { regions = []; last = no_region; disjoint = true }

let add t base size init =
  let r =
    { r_base = base;
      r_end = Int64.add base (Int64.of_int size);
      r_size = size;
      r_init = init;
      r_pages = Array.make ((size + page_mask) lsr page_bits) absent }
  in
  (* On overlap the newest region shadows the older ones, so a cached
     older region could answer for an address the newer one owns: stop
     caching and let every lookup scan in order. *)
  let overlaps o =
    size > 0 && o.r_size > 0 && r.r_base < o.r_end && o.r_base < r.r_end
  in
  if List.exists overlaps t.regions then begin
    t.disjoint <- false;
    t.last <- no_region
  end;
  t.regions <- r :: t.regions

let map t base size = add t base size None
let map_bytes t base bytes = add t base (Bytes.length bytes) (Some bytes)

let hit r addr = addr >= r.r_base && addr < r.r_end

let rec scan addr = function
  | [] -> no_region
  | r :: rest -> if hit r addr then r else scan addr rest

let find t addr =
  let r = t.last in
  if hit r addr then r
  else begin
    let r = scan addr t.regions in
    if t.disjoint && r != no_region then t.last <- r;
    r
  end

(* The page holding region offset [off], made private on first call. *)
let private_page r off =
  let i = off lsr page_bits in
  let p = r.r_pages.(i) in
  if p != absent then p
  else begin
    let p = Bytes.make page_size '\000' in
    (match r.r_init with
     | Some b ->
       let start = i lsl page_bits in
       Bytes.blit b start p 0 (min page_size (r.r_size - start))
     | None -> ());
    r.r_pages.(i) <- p;
    p
  end

let read8 t addr =
  let r = find t addr in
  if r == no_region then
    raise (Fault (Printf.sprintf "read of unmapped address 0x%Lx" addr));
  let off = Int64.to_int (Int64.sub addr r.r_base) in
  let p = r.r_pages.(off lsr page_bits) in
  if p != absent then Bytes.get_uint8 p (off land page_mask)
  else match r.r_init with Some b -> Bytes.get_uint8 b off | None -> 0

let write8 t addr v =
  let r = find t addr in
  if r == no_region then
    raise (Fault (Printf.sprintf "write to unmapped address 0x%Lx" addr));
  let off = Int64.to_int (Int64.sub addr r.r_base) in
  Bytes.set_uint8 (private_page r off) (off land page_mask) (v land 0xff)

(* Region offset of an 8-byte access that lies inside one page of one
   region, or -1: the word fast paths take the former, and everything
   else goes byte by byte, faulting at the first unmapped byte.  With
   overlapping regions a newer one may shadow part of the word, so
   every access goes byte by byte. *)
let word_off t r addr =
  if r == no_region || not t.disjoint then -1
  else
    let off = Int64.to_int (Int64.sub addr r.r_base) in
    if off + 8 <= r.r_size && off land page_mask <= page_size - 8 then off else -1

let read64 t addr =
  let r = find t addr in
  let off = word_off t r addr in
  if off >= 0 then begin
    let p = r.r_pages.(off lsr page_bits) in
    if p != absent then Bytes.get_int64_le p (off land page_mask)
    else match r.r_init with Some b -> Bytes.get_int64_le b off | None -> 0L
  end
  else begin
    let rec go acc k =
      if k = 8 then acc
      else
        let b = Int64.of_int (read8 t (Int64.add addr (Int64.of_int k))) in
        go (Int64.logor acc (Int64.shift_left b (8 * k))) (k + 1)
    in
    go 0L 0
  end

let write64 t addr v =
  let r = find t addr in
  let off = word_off t r addr in
  if off >= 0 then Bytes.set_int64_le (private_page r off) (off land page_mask) v
  else
    for k = 0 to 7 do
      write8 t
        (Int64.add addr (Int64.of_int k))
        (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * k)) 0xffL))
    done

(* Snapshot [len] bytes starting at [addr] (faults if any byte unmapped). *)
let read_bytes t addr len =
  let b = Bytes.create len in
  for k = 0 to len - 1 do
    Bytes.set_uint8 b k (read8 t (Int64.add addr (Int64.of_int k)))
  done;
  b

let write_bytes t addr bytes =
  Bytes.iteri (fun k c -> write8 t (Int64.add addr (Int64.of_int k)) (Char.code c)) bytes

let read_cstring t addr =
  let buf = Buffer.create 16 in
  let rec loop a =
    let b = read8 t a in
    if b = 0 then Buffer.contents buf
    else begin
      Buffer.add_char buf (Char.chr b);
      loop (Int64.add a 1L)
    end
  in
  loop addr

let is_mapped t addr = find t addr != no_region
