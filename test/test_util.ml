(* Tests for Gp_util: RNG determinism, hex helpers, image container. *)

let test_rng_deterministic () =
  let a = Gp_util.Rng.create 42 in
  let b = Gp_util.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Gp_util.Rng.next_int64 a)
      (Gp_util.Rng.next_int64 b)
  done

let test_rng_seeds_differ () =
  let a = Gp_util.Rng.create 1 in
  let b = Gp_util.Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true
    (Gp_util.Rng.next_int64 a <> Gp_util.Rng.next_int64 b)

let test_rng_int_bounds () =
  let rng = Gp_util.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Gp_util.Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_choose () =
  let rng = Gp_util.Rng.create 7 in
  let l = [ 1; 2; 3 ] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "member" true (List.mem (Gp_util.Rng.choose rng l) l)
  done

let test_rng_shuffle_permutes () =
  let rng = Gp_util.Rng.create 3 in
  let l = List.init 20 Fun.id in
  let s = Gp_util.Rng.shuffle rng l in
  Alcotest.(check (list int)) "same multiset" l (List.sort compare s)

let test_rng_split_independent () =
  let a = Gp_util.Rng.create 9 in
  let sub = Gp_util.Rng.split a in
  let v1 = Gp_util.Rng.next_int64 sub in
  (* same construction gives the same sub-stream *)
  let b = Gp_util.Rng.create 9 in
  let sub' = Gp_util.Rng.split b in
  Alcotest.(check int64) "split deterministic" v1 (Gp_util.Rng.next_int64 sub')

let test_hex_of_bytes () =
  Alcotest.(check string) "hex" "deadbeef"
    (Gp_util.Hex.of_bytes (Bytes.of_string "\xde\xad\xbe\xef"))

let test_hex_int64_le () =
  let b = Gp_util.Hex.int64_le 0x0102030405060708L in
  Alcotest.(check string) "little endian" "0807060504030201"
    (Gp_util.Hex.of_bytes b)

let mk_image () =
  Gp_util.Image.create ~entry:0x400000L
    ~code:(Bytes.of_string "\x90\xc3")
    ~data:(Bytes.of_string "hi\x00there\x00")
    ~symbols:
      [ { Gp_util.Image.sym_name = "f"; sym_addr = 0x400000L; sym_size = 2 } ]
    ()

let test_image_bounds () =
  let img = mk_image () in
  Alcotest.(check bool) "in code" true (Gp_util.Image.in_code img 0x400001L);
  Alcotest.(check bool) "not in code" false (Gp_util.Image.in_code img 0x400002L);
  Alcotest.(check bool) "in data" true (Gp_util.Image.in_data img 0x600000L);
  Alcotest.(check int) "code byte" 0x90 (Gp_util.Image.byte img 0x400000L);
  Alcotest.(check int) "data byte" (Char.code 'h') (Gp_util.Image.byte img 0x600000L)

let test_image_unmapped_raises () =
  let img = mk_image () in
  Alcotest.check_raises "unmapped"
    (Invalid_argument "Image.byte: address 0x500000 unmapped") (fun () ->
      ignore (Gp_util.Image.byte img 0x500000L))

let test_image_symbols () =
  let img = mk_image () in
  Alcotest.(check int64) "symbol addr" 0x400000L (Gp_util.Image.symbol_addr img "f");
  Alcotest.(check bool) "symbol_at" true
    (match Gp_util.Image.symbol_at img 0x400001L with
     | Some s -> s.Gp_util.Image.sym_name = "f"
     | None -> false)

let test_image_cstring () =
  let img = mk_image () in
  Alcotest.(check string) "first" "hi" (Gp_util.Image.read_cstring img 0x600000L);
  Alcotest.(check string) "second" "there"
    (Gp_util.Image.read_cstring img 0x600003L)

(* ----- Store: advisory locks and the write-ahead log ----- *)

let store_schema = 7

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "gp-util-test-%d-%d" (Unix.getpid ()) !n)
    in
    (try Sys.remove d with Sys_error _ -> ());
    Gp_util.Store.mkdir_p d;
    d

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Deliberately awkward payloads: empties, embedded NULs and
   newlines, a record-length-sized blob. *)
let wal_records =
  [ ("summaries", "k1", "v1");
    ("summaries", "", "");
    ("memos", "key\x00with\nnoise", String.make 300 '\xab');
    ("memos", "k2", "last") ]

let wal_write dir records =
  let path = Gp_util.Store.Wal.path_of (Filename.concat dir "s") in
  (match Gp_util.Store.Wal.open_append ~schema:store_schema path with
   | Ok (w, _) ->
     List.iter
       (fun (s, k, v) ->
         Gp_util.Store.Wal.append w ~section:s ~key:k ~value:v)
       records;
     Gp_util.Store.Wal.close w
   | Error e -> Alcotest.fail ("open_append: " ^ e));
  path

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
  | _ :: _, [] -> false

let test_wal_roundtrip () =
  let dir = tmp_dir () in
  let path = wal_write dir wal_records in
  (match Gp_util.Store.Wal.read ~schema:store_schema path with
   | Ok r ->
     Alcotest.(check bool) "entries back in order" true
       (r.Gp_util.Store.Wal.entries = wal_records);
     Alcotest.(check int) "clean tail" 0 r.Gp_util.Store.Wal.torn_bytes
   | Error e ->
     Alcotest.fail ("read: " ^ Gp_util.Store.error_reason e));
  Sys.remove path

(* The recovery contract, exhaustively: chopping the journal at ANY
   byte boundary yields the valid record prefix — never an exception,
   never a reordered or invented entry. *)
let test_wal_truncation_every_byte () =
  let dir = tmp_dir () in
  let path = wal_write dir wal_records in
  let full = read_file path in
  let n = String.length full in
  for k = 0 to n do
    match Gp_util.Store.Wal.decode ~schema:store_schema (String.sub full 0 k) with
    | Ok r ->
      Alcotest.(check bool)
        (Printf.sprintf "prefix at %d/%d bytes" k n)
        true
        (is_prefix r.Gp_util.Store.Wal.entries wal_records);
      Alcotest.(check bool)
        (Printf.sprintf "accounting at %d" k)
        true
        (r.Gp_util.Store.Wal.valid_bytes + r.Gp_util.Store.Wal.torn_bytes = k);
      if k = n then begin
        Alcotest.(check bool) "full file replays all" true
          (r.Gp_util.Store.Wal.entries = wal_records);
        Alcotest.(check int) "full file clean" 0 r.Gp_util.Store.Wal.torn_bytes
      end
    | Error e ->
      Alcotest.fail
        (Printf.sprintf "truncation at %d raised %s" k
           (Gp_util.Store.error_reason e))
  done;
  Sys.remove path

let prop_wal_truncation (records, cut) =
  let dir = tmp_dir () in
  let path = wal_write dir records in
  let full = read_file path in
  let k = cut mod (String.length full + 1) in
  let ok =
    match Gp_util.Store.Wal.decode ~schema:store_schema (String.sub full 0 k) with
    | Ok r ->
      is_prefix r.Gp_util.Store.Wal.entries records
      && r.Gp_util.Store.Wal.valid_bytes + r.Gp_util.Store.Wal.torn_bytes = k
    | Error _ -> false
  in
  Sys.remove path;
  ok

(* Single flipped bytes anywhere in the file: recovery returns a
   prefix of the true entries (the per-record checksum stops the walk)
   or rejects the file outright — never raises, never a wrong entry. *)
let test_wal_bitflip_prefix_or_reject () =
  let dir = tmp_dir () in
  let path = wal_write dir wal_records in
  let full = read_file path in
  let n = String.length full in
  List.iter
    (fun i ->
      let i = i mod n in
      let b = Bytes.of_string full in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x41));
      match Gp_util.Store.Wal.decode ~schema:store_schema (Bytes.to_string b) with
      | Ok r ->
        Alcotest.(check bool)
          (Printf.sprintf "flip at %d yields a true prefix" i)
          true
          (is_prefix r.Gp_util.Store.Wal.entries wal_records)
      | Error _ -> ())
    [ 0; 3; 4; 11; 19; 20; 25; 40; n / 2; n - 300; n - 20; n - 1 ];
  Sys.remove path

let test_wal_open_after_torn () =
  let dir = tmp_dir () in
  let path = wal_write dir wal_records in
  let n = String.length (read_file path) in
  (* tear the last record mid-body *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (n - 2);
  Unix.close fd;
  (match Gp_util.Store.Wal.open_append ~schema:store_schema path with
   | Error e -> Alcotest.fail ("open after tear: " ^ e)
   | Ok (w, replay) ->
     Alcotest.(check int) "valid prefix survives" 3
       (List.length replay.Gp_util.Store.Wal.entries);
     Alcotest.(check bool) "tear measured" true
       (replay.Gp_util.Store.Wal.torn_bytes > 0);
     Gp_util.Store.Wal.append w ~section:"memos" ~key:"k3" ~value:"appended";
     Gp_util.Store.Wal.close w);
  (match Gp_util.Store.Wal.read ~schema:store_schema path with
   | Ok r ->
     Alcotest.(check bool) "append lands after the truncated tail" true
       (r.Gp_util.Store.Wal.entries
      = [ ("summaries", "k1", "v1"); ("summaries", "", "");
          ("memos", "key\x00with\nnoise", String.make 300 '\xab');
          ("memos", "k3", "appended") ])
   | Error e -> Alcotest.fail ("reread: " ^ Gp_util.Store.error_reason e));
  Sys.remove path

let test_wal_foreign_rejected () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "foreign.wal" in
  let oc = open_out_bin path in
  output_string oc "NOPE and then some bytes";
  close_out oc;
  (match Gp_util.Store.Wal.read ~schema:store_schema path with
   | Error (Gp_util.Store.Corrupt _) -> ()
   | Ok _ -> Alcotest.fail "foreign magic must not replay"
   | Error e -> Alcotest.fail ("wrong class: " ^ Gp_util.Store.error_reason e));
  (match Gp_util.Store.Wal.open_append ~schema:store_schema path with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "open_append must refuse a foreign file");
  (* wrong schema version: stale, not corrupt *)
  let path2 = wal_write dir [ ("s", "k", "v") ] in
  (match Gp_util.Store.Wal.read ~schema:(store_schema + 1) path2 with
   | Error (Gp_util.Store.Stale _) -> ()
   | _ -> Alcotest.fail "schema bump must read as stale");
  Sys.remove path;
  Sys.remove path2

(* Something at the journal's path that cannot be read is not a
   missing journal: [read] reports why, and [open_append] refuses it
   instead of truncating it as a fresh file. *)
let test_wal_unreadable_not_missing () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "blocked.wal" in
  Gp_util.Store.mkdir_p path;
  let inside = Filename.concat path "x" in
  Out_channel.with_open_bin inside (fun oc -> Out_channel.output_string oc "kept");
  (match Gp_util.Store.Wal.read ~schema:store_schema path with
   | Error (Gp_util.Store.Unreadable _) -> ()
   | Error Gp_util.Store.Missing -> Alcotest.fail "a directory read as Missing"
   | Error e -> Alcotest.fail ("wrong class: " ^ Gp_util.Store.error_reason e)
   | Ok _ -> Alcotest.fail "a directory replayed as a journal");
  (match Gp_util.Store.Wal.open_append ~schema:store_schema path with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "open_append must refuse an unreadable path");
  Alcotest.(check bool) "still a directory" true (Sys.is_directory path);
  Alcotest.(check string) "its contents untouched" "kept" (read_file inside);
  Sys.remove inside;
  Sys.rmdir path

let test_store_lock_exclusion () =
  let dir = tmp_dir () in
  match Gp_util.Store.try_lock dir with
  | Error e -> Alcotest.fail ("first lock: " ^ e)
  | Ok l ->
    (match Gp_util.Store.try_lock dir with
     | Ok _ -> Alcotest.fail "second writer must be refused"
     | Error _ -> ());
    (* distinct lock names don't conflict *)
    (match Gp_util.Store.try_lock ~name:".other.lock" dir with
     | Ok l2 -> Gp_util.Store.unlock l2
     | Error e -> Alcotest.fail ("distinct name: " ^ e));
    Gp_util.Store.unlock l;
    (match Gp_util.Store.try_lock dir with
     | Ok l3 -> Gp_util.Store.unlock l3
     | Error e -> Alcotest.fail ("relock after unlock: " ^ e))

(* Par.run exception hardening: a task raising must re-raise the
   LOWEST-indexed failure after every domain joined, leave no sibling
   result slot unset for tasks that ran, and leave no domain behind —
   checked by immediately reusing the pool, many times over. *)
let test_par_run_exception_safety () =
  let n = 16 in
  for _ = 1 to 50 do
    let executed = Array.make n false in
    let tasks =
      Array.init n (fun i () ->
          executed.(i) <- true;
          if i = 5 || i = 11 then failwith (Printf.sprintf "task-%d" i);
          i)
    in
    (match Gp_util.Par.run ~jobs:4 tasks with
     | _ -> Alcotest.fail "a failed task must re-raise"
     | exception Failure msg ->
       Alcotest.(check string) "lowest-indexed failure wins" "task-5" msg);
    Alcotest.(check bool) "tasks before the failure all ran" true
      (executed.(0) && executed.(1) && executed.(2) && executed.(3)
       && executed.(4))
  done;
  let ok = Gp_util.Par.run ~jobs:4 (Array.init n (fun i () -> i * i)) in
  Alcotest.(check bool) "pool unharmed: subsequent run correct" true
    (ok = Array.init n (fun i -> i * i))

let suite =
  [ Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng choose member" `Quick test_rng_choose;
    Alcotest.test_case "rng shuffle permutes" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "rng split deterministic" `Quick test_rng_split_independent;
    Alcotest.test_case "hex of bytes" `Quick test_hex_of_bytes;
    Alcotest.test_case "hex int64 le" `Quick test_hex_int64_le;
    Alcotest.test_case "image bounds" `Quick test_image_bounds;
    Alcotest.test_case "image unmapped raises" `Quick test_image_unmapped_raises;
    Alcotest.test_case "image symbols" `Quick test_image_symbols;
    Alcotest.test_case "image cstring" `Quick test_image_cstring;
    Alcotest.test_case "wal roundtrip" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal truncation every byte" `Quick
      test_wal_truncation_every_byte;
    Gen.qtest "wal truncation (random records)" ~count:60
      QCheck2.Gen.(
        pair
          (list_size (int_range 0 6)
             (triple (string_size (int_range 0 8))
                (string_size (int_range 0 12))
                (string_size (int_range 0 64))))
          (int_range 0 10_000))
      prop_wal_truncation;
    Alcotest.test_case "wal bit flips: prefix or reject" `Quick
      test_wal_bitflip_prefix_or_reject;
    Alcotest.test_case "wal append after torn tail" `Quick
      test_wal_open_after_torn;
    Alcotest.test_case "wal foreign/stale rejected" `Quick
      test_wal_foreign_rejected;
    Alcotest.test_case "wal unreadable path is not missing" `Quick
      test_wal_unreadable_not_missing;
    Alcotest.test_case "store lock exclusion" `Quick test_store_lock_exclusion;
    Alcotest.test_case "par run exception safety" `Quick
      test_par_run_exception_safety ]
