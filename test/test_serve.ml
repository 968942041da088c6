(* Analysis daemon tests (DESIGN.md §15).  Five angles:

   - the wire: frame codec round-trips, incremental parsing across
     arbitrary split points, and totality — truncations and bit flips
     map to Incomplete/Malformed, never an exception (qcheck, plus an
     exhaustive sweep of every single-bit flip and every truncation of
     a few fixed frames) — and the same sweep over fixed request,
     report, resume, message and reply payloads, which must decode or
     raise [Truncated], as must negative list counts and messages or
     replies with trailing bytes;
   - shared state: the sharded solver [Cache] is observationally
     identical to a single-lock model — first-write-wins, size/reset,
     hit/miss counters exact under a sequential op stream (qcheck) —
     and the [Incr] image table to a first-write-wins map; both are
     conserved under a 4-domain stress;
   - the [Sched.Service] persistent pool: everything submitted runs,
     tasks that resubmit from inside a worker complete, worker
     exceptions are fatal and re-raised at [stop] — only after every
     in-flight task has finished;
   - the acceptance differential: a resident daemon serving a shuffled
     replay (each survey cell twice) answers bit-identically to the
     inline CLI path, at pool jobs 1 and JOBS, from one client and from
     two concurrent ones;
   - failure stories: a client writing to a daemon that has gone away
     gets an error, not SIGPIPE; every keyed wire-fault mode (torn length, torn
     body, bad checksum, client hangup) is quarantined under the right
     [Fail.Frame_fault] label WITHOUT poisoning resident caches (the
     next clean request is still bit-identical); a fatal exception in
     a request (a crash injected at the mid-stage point) propagates out
     of the daemon only after every worker is joined and the socket is
     unlinked. *)

module Survey = Gp_harness.Survey
module S = Gp_harness.Sched
module Sv = Gp_harness.Serve
module F = Gp_util.Frame
module Fault = Gp_harness.Faultsim

let jobs_under_test =
  match Sys.getenv_opt "JOBS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

let fib = Gp_corpus.Programs.find "fibonacci"

let one_request () =
  match
    Survey.serve_requests
      { Survey.entries = [ fib ]; configs = [ ("original", Gp_obf.Obf.none) ] }
  with
  | [ (_, rq) ] -> rq
  | _ -> assert false

(* ----- frame codec ----- *)

let test_frame_roundtrip () =
  let payload = "hello frames" in
  let f = F.encode payload in
  Alcotest.(check int) "frame length"
    (F.header_bytes + String.length payload + F.trailer_bytes)
    (String.length f);
  (match F.parse f with
  | F.Complete (p, used) ->
    Alcotest.(check string) "payload" payload p;
    Alcotest.(check int) "consumed" (String.length f) used
  | _ -> Alcotest.fail "expected Complete");
  (* two frames back to back parse in sequence *)
  let f2 = F.encode "second" in
  let buf = f ^ f2 in
  match F.parse buf with
  | F.Complete (p, used) ->
    Alcotest.(check string) "first of two" payload p;
    (match F.parse ~off:used buf with
    | F.Complete (p2, _) -> Alcotest.(check string) "second of two" "second" p2
    | _ -> Alcotest.fail "second frame expected Complete")
  | _ -> Alcotest.fail "first frame expected Complete"

let test_frame_incremental () =
  let f = F.encode "abc" in
  for k = 0 to String.length f - 1 do
    match F.parse ~len:k f with
    | F.Incomplete -> ()
    | F.Complete _ -> Alcotest.failf "Complete at %d/%d bytes" k (String.length f)
    | F.Malformed e -> Alcotest.failf "Malformed (%s) at prefix %d" (F.error_reason e) k
  done

(* A peer one format version behind: a well-formed frame (good magic,
   length and checksum) stamped [format_version - 1] around an analysis
   request in that version's layout, which ended with a within-request
   domain count.  The frame layer must refuse it as [Bad_version]
   instead of handing the old layout to the decoder. *)
let test_frame_version_skew () =
  let module B = Gp_util.Store.Bin in
  let old = F.format_version - 1 in
  let body = Buffer.create 64 in
  B.u8 body 1;
  Buffer.add_string body (Sv.request_encode (one_request ()));
  B.int_ body 1;
  let payload = Buffer.contents body in
  let frame = Buffer.create 128 in
  Buffer.add_string frame "GPFR";
  B.int_ frame old;
  B.int_ frame (String.length payload);
  Buffer.add_string frame payload;
  B.i64 frame (Gp_util.Store.fnv64 payload);
  match F.parse (Buffer.contents frame) with
  | F.Malformed (F.Bad_version v) ->
    Alcotest.(check int) "reported version" old v
  | F.Malformed e -> Alcotest.failf "expected Bad_version, got %s" (F.error_reason e)
  | F.Complete _ -> Alcotest.fail "old-layout frame accepted"
  | F.Incomplete -> Alcotest.fail "old-layout frame reported incomplete"

let test_frame_malformed () =
  let f = Bytes.of_string (F.encode "payload") in
  let with_byte i v =
    let b = Bytes.copy f in
    Bytes.set_uint8 b i v;
    Bytes.to_string b
  in
  (match F.parse (with_byte 0 0x58) with
  | F.Malformed F.Bad_magic -> ()
  | _ -> Alcotest.fail "expected Bad_magic");
  (match F.parse (with_byte 4 99) with
  | F.Malformed (F.Bad_version _) -> ()
  | _ -> Alcotest.fail "expected Bad_version");
  (* length field promising more than max_payload: rejected before
     any allocation *)
  (match F.parse (with_byte 18 0x7f) with
  | F.Malformed (F.Bad_length _) -> ()
  | _ -> Alcotest.fail "expected Bad_length");
  (* flip a payload byte: checksum must catch it *)
  match F.parse (with_byte (F.header_bytes + 2) 0x00) with
  | F.Malformed F.Bad_checksum -> ()
  | _ -> Alcotest.fail "expected Bad_checksum"

let qcheck_frame_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"frame encode/parse round-trip"
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 0 500))
    (fun payload ->
      match F.parse (F.encode payload) with
      | F.Complete (p, used) ->
        p = payload
        && used = F.header_bytes + String.length payload + F.trailer_bytes
      | _ -> false)

let qcheck_frame_truncation =
  QCheck2.Test.make ~count:300 ~name:"truncated frames are never Complete"
    QCheck2.Gen.(
      pair
        (string_size ~gen:(char_range '\000' '\255') (int_range 0 200))
        (float_bound_inclusive 1.))
    (fun (payload, frac) ->
      let f = F.encode payload in
      let k = int_of_float (frac *. float (String.length f - 1)) in
      match F.parse ~len:k f with
      | F.Complete _ -> false
      | F.Incomplete | F.Malformed _ -> true)

let qcheck_frame_bitflip =
  QCheck2.Test.make ~count:300
    ~name:"bit-flipped frames never yield the original payload"
    QCheck2.Gen.(
      triple
        (string_size ~gen:(char_range '\000' '\255') (int_range 1 200))
        small_nat (int_range 1 255))
    (fun (payload, pos, mask) ->
      let f = Bytes.of_string (F.encode payload) in
      let i = pos mod Bytes.length f in
      Bytes.set_uint8 f i (Bytes.get_uint8 f i lxor mask);
      match F.parse (Bytes.to_string f) with
      | F.Complete (p, _) -> p <> payload
      | F.Incomplete | F.Malformed _ -> true)

(* Every single-bit flip and every truncation of a few fixed frames is
   Malformed or Incomplete — never a payload, the original least of
   all.  The random property above samples this space; this sweeps it,
   including the top bit of the version and length fields, which a bare
   [Int64.to_int] once dropped. *)
let test_frame_exhaustive () =
  List.iter
    (fun payload ->
      let f = F.encode payload in
      let n = String.length f in
      let check what = function
        | F.Incomplete | F.Malformed _ -> ()
        | F.Complete (p, _) ->
          Alcotest.failf "%S: %s parsed as Complete (%s payload)" payload what
            (if p = payload then "the original" else "a different")
      in
      for i = 0 to n - 1 do
        for bit = 0 to 7 do
          let b = Bytes.of_string f in
          Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl bit));
          check (Printf.sprintf "flip of bit %d in byte %d" bit i)
            (F.parse (Bytes.to_string b))
        done
      done;
      for k = 0 to n - 1 do
        check (Printf.sprintf "truncation to %d bytes" k)
          (F.parse (String.sub f 0 k))
      done)
    [ ""; "abcdef"; String.init 300 (fun i -> Char.chr (i land 0xff)) ]

(* ----- request/report payload codecs ----- *)

let test_request_codec_roundtrip () =
  let rq =
    { (one_request ()) with Sv.rq_goal = "mprotect"; rq_budget_s = 2.5 }
  in
  let rq' = Sv.request_decode (Sv.request_encode rq) (ref 0) in
  Alcotest.(check bool) "request round-trips" true (rq = rq')

let test_report_codec_roundtrip () =
  let r =
    { Sv.sr_pool = 42;
      sr_chains = [ ("k1", "desc one\nline 2"); ("k2", "desc two") ];
      sr_rungs = [ "full"; "dedup-only" ];
      sr_budget_hits = [ "plan" ];
      sr_quarantined = [ ("decode", 3) ];
      sr_counters = [ ("plans_found", 2); ("plan_expanded", 5); ("q:emu", 1) ] }
  in
  let r' = Sv.report_decode (Sv.report_encode r) (ref 0) in
  Alcotest.(check bool) "report round-trips" true (r = r')

(* Codec totality: every truncation and every single-bit flip of a
   fixed request, report, resume payload, wire message and reply either
   decodes or raises [Truncated] — nothing else may escape a decoder,
   since the client and the resume path catch only that — and a wire
   message or reply with trailing bytes raises [Truncated]. *)
let check_total name decode s =
  let n = String.length s in
  let check what bytes =
    match decode bytes with
    | _ -> ()
    | exception F.Truncated -> ()
    | exception e ->
      Alcotest.failf "%s, %s: raised %s" name what (Printexc.to_string e)
  in
  for k = 0 to n - 1 do
    check (Printf.sprintf "truncation to %d bytes" k) (String.sub s 0 k)
  done;
  for i = 0 to n - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string s in
      Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl bit));
      check (Printf.sprintf "flip of bit %d in byte %d" bit i)
        (Bytes.to_string b)
    done
  done

let small_request () =
  let image =
    Gp_util.Image.create
      ~symbols:
        [ { Gp_util.Image.sym_name = "main"; sym_addr = 0x400000L; sym_size = 8 };
          { Gp_util.Image.sym_name = "f"; sym_addr = 0x400008L; sym_size = 4 } ]
      ~entry:0x400000L
      ~code:(Bytes.of_string "\x58\xc3\x5f\xc3\x0f\x05\xf4\x90")
      ~data:(Bytes.of_string "/bin/sh\000") ()
  in
  { (Sv.default_request image) with Sv.rq_goal = "mmap"; rq_budget_s = 1.5 }

let small_report =
  { Sv.sr_pool = 7;
    sr_chains = [ ("k1", "pop rdi; ret"); ("k2", "syscall") ];
    sr_rungs = [ "full"; "dedup-only" ];
    sr_budget_hits = [ "plan" ];
    sr_quarantined = [ ("decode", 3) ];
    sr_counters = [ ("plans_found", 2); ("q:emu", 1) ] }

let small_resume_payload =
  { Survey.rp_program = "fibonacci";
    rp_config = "original";
    rp_pool = 42;
    rp_chains = [ "k1"; "k2" ];
    rp_rungs = [ "full" ];
    rp_counters = [ ("plans_found", 2); ("plan_expanded", 9) ] }

let test_codecs_total () =
  check_total "request"
    (fun s -> Sv.request_decode s (ref 0))
    (Sv.request_encode (small_request ()));
  check_total "report"
    (fun s -> Sv.report_decode s (ref 0))
    (Sv.report_encode small_report);
  check_total "resume payload" Survey.resume_payload_decode
    (Survey.resume_payload_encode small_resume_payload);
  let msgs = [ Sv.Analyze (small_request ()); Sv.Stats; Sv.Shutdown ] in
  let replies =
    [ Sv.Report small_report;
      Sv.Stats_reply
        { Sv.ds_served = 3; ds_faults = [ ("frame-torn", 1) ];
          ds_incr_size = 2; ds_memo_entries = 40 };
      Sv.Shutdown_ack;
      Sv.Err_reply ("frame-checksum", "undecodable request body") ]
  in
  List.iter (check_total "message" Sv.msg_decode) (List.map Sv.msg_encode msgs);
  List.iter (check_total "reply" Sv.reply_decode) (List.map Sv.reply_encode replies);
  (* a whole message followed by anything is not a message *)
  let trailing name decode s =
    List.iter
      (fun extra ->
        match decode (s ^ extra) with
        | _ -> Alcotest.failf "%s with %d trailing byte(s) decoded" name
                 (String.length extra)
        | exception F.Truncated -> ()
        | exception e ->
          Alcotest.failf "%s with trailing bytes: raised %s" name
            (Printexc.to_string e))
      [ "\000"; "\001\002"; String.make 9 'x' ]
  in
  List.iter (trailing "message" Sv.msg_decode) (List.map Sv.msg_encode msgs);
  List.iter (trailing "reply" Sv.reply_decode) (List.map Sv.reply_encode replies);
  trailing "resume payload" Survey.resume_payload_decode
    (Survey.resume_payload_encode small_resume_payload)

(* A negative list count is malformed input like any other: every list
   the request, report and resume decoders read must reject it with
   [Truncated] (List.init would raise Invalid_argument), and so must a
   string length that would wrap the cursor arithmetic. *)
let test_codecs_reject_bad_counts () =
  let module B = Gp_util.Store.Bin in
  let bytes_of f =
    let b = Buffer.create 64 in
    f b;
    Buffer.contents b
  in
  let truncated name decode s =
    match decode s with
    | _ -> Alcotest.failf "%s: decoded" name
    | exception F.Truncated -> ()
    | exception e ->
      Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
  in
  let image_prefix b =
    B.i64 b 0x400000L;
    B.str b "\xc3";
    B.i64 b 0x600000L;
    B.str b "";
    B.i64 b 0x400000L
  in
  truncated "request symbols"
    (fun s -> Sv.request_decode s (ref 0))
    (bytes_of (fun b -> image_prefix b; B.int_ b (-1)));
  let report n_empty =
    bytes_of (fun b ->
        B.int_ b 7;
        for _ = 1 to n_empty do
          B.int_ b 0
        done;
        B.int_ b (-1))
  in
  List.iteri
    (fun n_empty what ->
      truncated ("report " ^ what)
        (fun s -> Sv.report_decode s (ref 0))
        (report n_empty))
    [ "chains"; "rungs"; "budget hits"; "quarantined"; "counters" ];
  let resume n_empty =
    bytes_of (fun b ->
        B.str b "p";
        B.str b "c";
        B.int_ b 1;
        for _ = 1 to n_empty do
          B.int_ b 0
        done;
        B.int_ b (-1))
  in
  List.iteri
    (fun n_empty what ->
      truncated ("resume " ^ what) Survey.resume_payload_decode (resume n_empty))
    [ "chains"; "rungs"; "counters" ];
  truncated "string length near max_int"
    (fun s -> Sv.report_decode s (ref 0))
    (bytes_of (fun b ->
         B.int_ b 7;
         B.int_ b 1;
         B.int_ b max_int;
         Buffer.add_string b "k"))

(* ----- shared tables vs their single-lock models (qcheck) ----- *)

let qcheck_cache_model =
  QCheck2.Test.make ~count:300
    ~name:"sharded Cache ≡ single-lock model (values, size, counters)"
    QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 40))
    (fun keys ->
      let c = Gp_smt.Cache.create ~size:4 () in
      let m = Hashtbl.create 16 in
      let mhits = ref 0 and mmiss = ref 0 in
      let ok =
        List.for_all
          (fun k ->
            let v = Gp_smt.Cache.find_or_add c k (fun () -> (k * 7) + 1) in
            let mv =
              match Hashtbl.find_opt m k with
              | Some v -> incr mhits; v
              | None ->
                incr mmiss;
                let v = (k * 7) + 1 in
                Hashtbl.add m k v;
                v
            in
            v = mv)
          keys
      in
      ok
      && Gp_smt.Cache.length c = Hashtbl.length m
      && Gp_smt.Cache.hits c = !mhits
      && Gp_smt.Cache.misses c = !mmiss
      &&
      (Gp_smt.Cache.reset c;
       Gp_smt.Cache.length c = 0 && Gp_smt.Cache.hits c = 0
       && Gp_smt.Cache.misses c = 0))

(* A compute that publishes while another compute of the same key is
   running (the race [find_or_add] allows, since it computes outside the
   lock) wins: the slower one returns its own value but must not
   override the binding.  Over enough keys to reach every shard. *)
let test_cache_first_write_wins () =
  let c = Gp_smt.Cache.create () in
  let keys = List.init 64 (Printf.sprintf "k%d") in
  List.iteri
    (fun i k ->
      let slower =
        Gp_smt.Cache.find_or_add c k (fun () ->
            ignore (Gp_smt.Cache.find_or_add c k (fun () -> i));
            i + 1000)
      in
      Alcotest.(check int) (k ^ ": the slower compute returns its own value")
        (i + 1000) slower)
    keys;
  List.iteri
    (fun i k ->
      Alcotest.(check int) (k ^ ": the first write is kept") i
        (Gp_smt.Cache.find_or_add c k (fun () -> Alcotest.fail "recompute")))
    keys;
  Alcotest.(check int) "every shard's entries counted" 64 (Gp_smt.Cache.length c)

(* The shard and the bucket inside the shard must come from different
   hash bits: with both taken from the low bits, each shard's keys share
   their hash mod 16 and pile into 1/16 of its buckets (chains of ~30
   here instead of ~6).  Keys shaped like [Solver.pool_memo]'s pool keys. *)
let test_cache_keys_spread_over_buckets () =
  let c = Gp_smt.Cache.create ~size:4096 () in
  for k = 0 to 4095 do
    ignore (Gp_smt.Cache.find_or_add c (Int64.of_int (k * 8), k mod 14) (fun () -> k))
  done;
  Alcotest.(check int) "all keys present" 4096 (Gp_smt.Cache.length c);
  let chain = Gp_smt.Cache.max_chain c in
  if chain > 8 then Alcotest.failf "longest bucket chain %d > 8" chain

let test_cache_stress_domains () =
  let c = Gp_smt.Cache.create () in
  let nkeys = 100 and per = 400 and ndom = 4 in
  let computes = Atomic.make 0 in
  let doms =
    List.init ndom (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              (* strides 7,8,9,10 over Z/100: overlapping coverage *)
              let k = i * (d + 7) mod nkeys in
              let v =
                Gp_smt.Cache.find_or_add c k (fun () ->
                    Atomic.incr computes;
                    k * 3)
              in
              assert (v = k * 3)
            done))
  in
  List.iter Domain.join doms;
  Alcotest.(check int) "every key present exactly once" nkeys
    (Gp_smt.Cache.length c);
  Alcotest.(check int) "hits+misses = lookups" (ndom * per)
    (Gp_smt.Cache.hits c + Gp_smt.Cache.misses c);
  Alcotest.(check int) "every miss computed exactly once" (Atomic.get computes)
    (Gp_smt.Cache.misses c);
  Alcotest.(check bool) "misses cover the key space" true
    (Gp_smt.Cache.misses c >= nkeys)

let qcheck_incr_model =
  QCheck2.Test.make ~count:200
    ~name:"Incr image table ≡ first-write-wins map"
    QCheck2.Gen.(list_size (int_range 0 120) (pair (int_range 0 25) small_nat))
    (fun ops ->
      Survey.reset_world ();
      let m = Hashtbl.create 16 in
      let ok =
        List.for_all
          (fun (k, salt) ->
            let key = Printf.sprintf "image-%d" k in
            let v = { Gp_core.Incr.v_starts = (k * 1000) + salt; v_records = [] } in
            if not (Hashtbl.mem m key) then Hashtbl.add m key v;
            Gp_core.Incr.add key v;
            Gp_core.Incr.find key = Hashtbl.find_opt m key)
          ops
      in
      let size_ok = Gp_core.Incr.size () = Hashtbl.length m in
      Survey.reset_world ();
      ok && size_ok && Gp_core.Incr.size () = 0)

let test_incr_stress_domains () =
  Survey.reset_world ();
  let nkeys = 50 and ndom = 4 in
  let doms =
    List.init ndom (fun d ->
        Domain.spawn (fun () ->
            for k = 0 to nkeys - 1 do
              let key = Printf.sprintf "image-%d" k in
              Gp_core.Incr.add key { Gp_core.Incr.v_starts = d; v_records = [] };
              (* whatever we read back must already be the winner *)
              match Gp_core.Incr.find key with
              | Some _ -> ()
              | None -> assert false
            done))
  in
  List.iter Domain.join doms;
  Alcotest.(check int) "no lost keys" nkeys (Gp_core.Incr.size ());
  for k = 0 to nkeys - 1 do
    match Gp_core.Incr.find (Printf.sprintf "image-%d" k) with
    | Some { Gp_core.Incr.v_starts = w; v_records = [] } ->
      Alcotest.(check bool) "winner is one of the writers" true
        (w >= 0 && w < ndom)
    | _ -> Alcotest.fail "missing or malformed entry"
  done;
  Survey.reset_world ()

(* ----- Service pool ----- *)

let test_service_runs_all () =
  let sv = S.Service.start ~jobs:4 in
  let n = Atomic.make 0 in
  for _ = 1 to 200 do
    S.Service.submit sv (fun () -> Atomic.incr n)
  done;
  S.Service.stop sv;
  Alcotest.(check int) "every task ran" 200 (Atomic.get n);
  Alcotest.(check int) "nothing pending" 0 (S.Service.pending sv)

let test_service_chained () =
  (* each task resubmits its continuation from inside a worker *)
  let sv = S.Service.start ~jobs:2 in
  let hops = Atomic.make 0 in
  let rec chain k =
    S.Service.submit sv (fun () ->
        Atomic.incr hops;
        if k > 1 then chain (k - 1))
  in
  chain 50;
  chain 50;
  S.Service.stop sv;
  Alcotest.(check int) "both chains completed" 100 (Atomic.get hops)

let test_service_fatal () =
  let sv = S.Service.start ~jobs:2 in
  S.Service.submit sv (fun () -> failwith "handler bug");
  Alcotest.check_raises "worker exception is fatal at stop"
    (Failure "handler bug") (fun () -> S.Service.stop sv)

let test_service_fatal_waits () =
  (* a fatal task must not let [stop] return while a sibling is still
     mid-task: the daemon tears down right after *)
  let sv = S.Service.start ~jobs:2 in
  let started = Atomic.make false and done_ = Atomic.make false in
  S.Service.submit sv (fun () ->
      Atomic.set started true;
      Unix.sleepf 0.05;
      Atomic.set done_ true);
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  S.Service.submit sv (fun () -> failwith "handler bug");
  Alcotest.check_raises "fatal re-raised at stop" (Failure "handler bug")
    (fun () -> S.Service.stop sv);
  Alcotest.(check bool) "in-flight task finished before the re-raise" true
    (Atomic.get done_)

(* ----- daemon plumbing shared by the integration tests ----- *)

let fresh_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gp-serve-t-%d-%d.sock" (Unix.getpid ()) !n)

(* Run [f ~sock cl] against a fresh in-process daemon.  The daemon's
   own crash (e.g. an injected [Faultsim.Crashed]) re-raises from
   [Domain.join], taking precedence over [f]'s result — exactly the
   observation order a supervisor would have. *)
let with_daemon ~jobs f =
  Survey.reset_world ();
  let sock = fresh_sock () in
  let cfg = { (Sv.default_config ~socket:sock) with Sv.d_jobs = jobs } in
  let dmn = Domain.spawn (fun () -> Sv.serve cfg) in
  let rec conn tries =
    match Sv.Client.connect sock with
    | Ok cl -> cl
    | Error why ->
      if tries > 500 then failwith ("daemon never came up: " ^ why)
      else begin
        Unix.sleepf 0.01;
        conn (tries + 1)
      end
  in
  let cl = conn 0 in
  let fin = match f ~sock cl with v -> Ok v | exception e -> Error e in
  (match Sv.Client.shutdown cl with
  | Ok () -> ()
  | Error _ -> (
    (* the connection [f] used may be gone; a fresh one still reaches a
       living daemon, and a dead daemon surfaces at the join below *)
    match Sv.Client.connect sock with
    | Ok c2 ->
      ignore (Sv.Client.shutdown c2);
      Sv.Client.close c2
    | Error _ -> ()));
  Sv.Client.close cl;
  let sm = Domain.join dmn in
  match fin with Ok v -> (v, sm) | Error e -> raise e

(* Submit [replay] in order from one client; the encoded replies. *)
let daemon_replay ~jobs replay =
  with_daemon ~jobs (fun ~sock:_ cl ->
      List.map
        (fun (_, rq) ->
          match Sv.Client.submit cl rq with
          | Ok r -> Sv.report_encode r
          | Error f -> "FAIL:" ^ Gp_core.Fail.label f)
        replay)

let rec stats_until cl pred tries =
  match Sv.Client.stats cl with
  | Ok ds when pred ds || tries > 100 -> ds
  | Ok _ ->
    Unix.sleepf 0.02;
    stats_until cl pred (tries + 1)
  | Error f -> Alcotest.failf "stats: %s" (Gp_core.Fail.to_string f)

(* ----- the acceptance differential ----- *)

let test_daemon_differential () =
  let requests =
    Survey.serve_requests { Survey.quick_grid with entries = [ fib ] }
  in
  let replay = requests @ requests in
  let refs =
    List.map
      (fun (_, rq) ->
        Survey.reset_world ();
        Sv.report_encode (Sv.handle rq))
      replay
  in
  List.iter
    (fun j ->
      let results, sm = daemon_replay ~jobs:j replay in
      Alcotest.(check int)
        (Printf.sprintf "served count at pool jobs %d" j)
        (List.length replay) sm.Sv.sm_served;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "no wire faults at pool jobs %d" j)
        [] sm.Sv.sm_faults;
      Alcotest.(check (list string))
        (Printf.sprintf "bit-identical to the CLI path at pool jobs %d" j)
        refs results)
    (List.sort_uniq compare [ 1; jobs_under_test ]);
  (* Two clients at once on a two-worker pool, so requests really share
     the daemon: every reply must still be the cold in-process answer
     of its request, per-request counters included — none may count
     work another request did. *)
  let replies, _ =
    with_daemon ~jobs:2 (fun ~sock cl ->
        let cl2 =
          match Sv.Client.connect sock with
          | Ok c -> c
          | Error why -> Alcotest.failf "second client: %s" why
        in
        let indexed = List.mapi (fun i r -> (i, r)) replay in
        let serve_on c k =
          Domain.spawn (fun () ->
              List.filter_map
                (fun (i, (_, rq)) ->
                  if i mod 2 <> k then None
                  else Some (i, Sv.Client.submit c rq))
                indexed)
        in
        let d0 = serve_on cl 0 and d1 = serve_on cl2 1 in
        let got = Domain.join d0 @ Domain.join d1 in
        Sv.Client.close cl2;
        List.sort compare got)
  in
  List.iter2
    (fun (i, reply) reference ->
      match reply with
      | Error f ->
        Alcotest.failf "request %d failed: %s" i (Gp_core.Fail.to_string f)
      | Ok r ->
        let cold = Sv.report_decode reference (ref 0) in
        Alcotest.(check (list (pair string int)))
          (Printf.sprintf "request %d: counters equal the cold run" i)
          cold.Sv.sr_counters r.Sv.sr_counters;
        Alcotest.(check string)
          (Printf.sprintf "request %d: reply equals the cold run" i)
          reference (Sv.report_encode r))
    replies refs

(* ----- wire-fault injection (satellite: Faultsim frame faults) ----- *)

let fault_label = function
  | F.Torn_len | F.Torn_body -> "frame-torn"
  | F.Flip_sum -> "frame-checksum"
  | F.Hangup -> "frame-disconnect"

let test_wire_fault_modes () =
  let rq = one_request () in
  Survey.reset_world ();
  let reference = Sv.report_encode (Sv.handle rq) in
  let saved = !F.chaos_wire in
  let ((), sm) =
    with_daemon ~jobs:1 (fun ~sock cl ->
        Fun.protect
          ~finally:(fun () -> F.chaos_wire := saved)
          (fun () ->
            let last = ref cl in
            List.iter
              (fun mode ->
                (* damage only Analyze frames, so the daemon's own
                   stats/shutdown traffic stays clean *)
                F.chaos_wire :=
                  (fun p ->
                    if String.length p > 0 && p.[0] = '\001' then Some mode
                    else None);
                (match Sv.Client.submit !last rq with
                | Error (Gp_core.Fail.Frame_fault _) -> ()
                | Error f ->
                  Alcotest.failf "expected a frame fault, got %s"
                    (Gp_core.Fail.to_string f)
                | Ok _ -> Alcotest.fail "injected wire fault did not fire");
                F.chaos_wire := saved;
                (* the faulted connection is gone; a clean request on a
                   fresh one must still be bit-identical — the resident
                   caches never saw the damaged frame *)
                (match Sv.Client.connect sock with
                | Error why -> Alcotest.failf "reconnect: %s" why
                | Ok cl2 ->
                  (match Sv.Client.submit cl2 rq with
                  | Ok r ->
                    Alcotest.(check string)
                      (Printf.sprintf "clean request after %s unpoisoned"
                         (fault_label mode))
                      reference (Sv.report_encode r)
                  | Error f ->
                    Alcotest.failf "clean request failed: %s"
                      (Gp_core.Fail.to_string f));
                  Sv.Client.close !last;
                  last := cl2))
              [ F.Torn_len; F.Torn_body; F.Flip_sum; F.Hangup ];
            let ds =
              stats_until !last
                (fun ds ->
                  List.mem_assoc "frame-torn" ds.Sv.ds_faults
                  && List.mem_assoc "frame-checksum" ds.Sv.ds_faults
                  && List.mem_assoc "frame-disconnect" ds.Sv.ds_faults)
                0
            in
            Alcotest.(check int) "both torn modes quarantined" 2
              (List.assoc "frame-torn" ds.Sv.ds_faults);
            Alcotest.(check int) "checksum mode quarantined" 1
              (List.assoc "frame-checksum" ds.Sv.ds_faults);
            Alcotest.(check int) "hangup mode quarantined" 1
              (List.assoc "frame-disconnect" ds.Sv.ds_faults);
            Sv.Client.close !last))
  in
  (* the daemon's final ledger repeats the stats view *)
  Alcotest.(check int) "summary ledger total" 4
    (List.fold_left (fun a (_, n) -> a + n) 0 sm.Sv.sm_faults)

let test_wire_faults_via_faultsim () =
  let rq = one_request () in
  Survey.reset_world ();
  let reference = Sv.report_encode (Sv.handle rq) in
  let ((), _sm) =
    with_daemon ~jobs:1 (fun ~sock cl ->
        Fault.with_faults
          { Fault.disabled with seed = 0x5eed; frame_rate = 1.0 }
          (fun () ->
            match Sv.Client.submit cl rq with
            | Error (Gp_core.Fail.Frame_fault _) -> ()
            | Error f ->
              Alcotest.failf "expected a frame fault, got %s"
                (Gp_core.Fail.to_string f)
            | Ok _ -> Alcotest.fail "keyed schedule at rate 1.0 did not fire");
        (* hooks restored: a clean request still answers identically *)
        match Sv.Client.connect sock with
        | Error why -> Alcotest.failf "reconnect: %s" why
        | Ok cl2 ->
          (match Sv.Client.submit cl2 rq with
          | Ok r ->
            Alcotest.(check string) "post-fault request unpoisoned" reference
              (Sv.report_encode r)
          | Error f ->
            Alcotest.failf "clean request failed: %s"
              (Gp_core.Fail.to_string f));
          Sv.Client.close cl2)
  in
  ()

(* ----- a vanished daemon ----- *)

(* The peer accepts and hangs up at once.  The client's write then
   meets a closed socket; with SIGPIPE at its default disposition (as a
   stopped in-process daemon used to leave it) that killed the process.
   It must come back as an error instead. *)
let test_client_survives_dead_peer () =
  let rq = one_request () in
  let sock = fresh_sock () in
  let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_UNIX sock);
  Unix.listen lsock 1;
  let prev = Sys.signal Sys.sigpipe Sys.Signal_default in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigpipe prev;
      Unix.close lsock;
      try Unix.unlink sock with Unix.Unix_error _ -> ())
    (fun () ->
      match Sv.Client.connect sock with
      | Error why -> Alcotest.failf "connect: %s" why
      | Ok cl ->
        let fd, _ = Unix.accept lsock in
        Unix.close fd;
        (match Sv.Client.submit cl rq with
        | Error (Gp_core.Fail.Frame_fault _) -> ()
        | Error f ->
          Alcotest.failf "expected a frame fault, got %s"
            (Gp_core.Fail.to_string f)
        | Ok _ -> Alcotest.fail "a closed peer answered");
        Sv.Client.close cl;
        Alcotest.(check bool) "SIGPIPE disposition restored after close" true
          (Sys.signal Sys.sigpipe Sys.Signal_default = Sys.Signal_default))

(* ----- the daemon crash story ----- *)

(* A fatal exception in a request (here a crash injected at the
   mid-stage point, while two clients keep both workers busy) must leave
   the daemon only after its teardown: the exception propagates, the
   socket is unlinked, and no worker is left running — the resident
   tables stop changing once the daemon is gone. *)
let test_daemon_fatal_teardown () =
  let requests =
    Survey.serve_requests { Survey.quick_grid with entries = [ fib ] }
  in
  let sock_used = ref "" in
  (match
     Fault.with_crash_at ~hits:1 ~point:"mid-stage" (fun () ->
         with_daemon ~jobs:2 (fun ~sock cl ->
             sock_used := sock;
             let cl2 =
               match Sv.Client.connect sock with
               | Ok c -> c
               | Error why -> Alcotest.failf "second client: %s" why
             in
             (* stop at the first failure: the daemon is gone *)
             let rec submit_all c = function
               | [] -> ()
               | (_, rq) :: rest -> (
                 match Sv.Client.submit c rq with
                 | Ok _ -> submit_all c rest
                 | Error _ -> ())
             in
             let other = Domain.spawn (fun () -> submit_all cl2 requests) in
             submit_all cl requests;
             Domain.join other;
             Sv.Client.close cl2))
   with
  | Error "mid-stage" -> ()
  | Error p -> Alcotest.failf "crashed at unexpected point %s" p
  | Ok _ -> Alcotest.fail "the fatal exception did not propagate");
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists !sock_used);
  let tables () = (Gp_core.Incr.size (), Gp_smt.Solver.memo_count ()) in
  let after = tables () in
  Unix.sleepf 0.2;
  Alcotest.(check (pair int int)) "no worker left running" after (tables ());
  Survey.reset_world ()

let suite =
  [ Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame incremental parse" `Quick test_frame_incremental;
    Alcotest.test_case "frame malformed prefixes" `Quick test_frame_malformed;
    Alcotest.test_case "frame from the previous format version" `Quick
      test_frame_version_skew;
    QCheck_alcotest.to_alcotest qcheck_frame_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_frame_truncation;
    QCheck_alcotest.to_alcotest qcheck_frame_bitflip;
    Alcotest.test_case "every bit flip and cut of fixed frames" `Quick
      test_frame_exhaustive;
    Alcotest.test_case "request codec round-trip" `Quick
      test_request_codec_roundtrip;
    Alcotest.test_case "report codec round-trip" `Quick
      test_report_codec_roundtrip;
    Alcotest.test_case "every bit flip and cut of fixed codec payloads"
      `Quick test_codecs_total;
    Alcotest.test_case "negative list counts are Truncated" `Quick
      test_codecs_reject_bad_counts;
    QCheck_alcotest.to_alcotest qcheck_cache_model;
    Alcotest.test_case "cache first-write-wins across shards" `Quick
      test_cache_first_write_wins;
    Alcotest.test_case "cache keys spread over each shard's buckets" `Quick
      test_cache_keys_spread_over_buckets;
    Alcotest.test_case "cache 4-domain stress" `Quick test_cache_stress_domains;
    QCheck_alcotest.to_alcotest qcheck_incr_model;
    Alcotest.test_case "incr 4-domain stress" `Quick test_incr_stress_domains;
    Alcotest.test_case "service runs everything" `Quick test_service_runs_all;
    Alcotest.test_case "service chained resubmission" `Quick
      test_service_chained;
    Alcotest.test_case "service fatal worker exception" `Quick
      test_service_fatal;
    Alcotest.test_case "service fatal waits for in-flight tasks" `Quick
      test_service_fatal_waits;
    Alcotest.test_case "daemon differential vs CLI path" `Quick
      test_daemon_differential;
    Alcotest.test_case "wire-fault modes quarantined, caches unpoisoned"
      `Quick test_wire_fault_modes;
    Alcotest.test_case "keyed wire faults via Faultsim" `Quick
      test_wire_faults_via_faultsim;
    Alcotest.test_case "client survives a vanished daemon" `Quick
      test_client_survives_dead_peer;
    Alcotest.test_case "daemon tears down on a fatal exception" `Quick
      test_daemon_fatal_teardown ]
