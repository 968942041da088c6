(* Length-prefixed wire frames for the analysis daemon (DESIGN.md §15).

   One frame carries one opaque payload over a byte stream (Unix-domain
   socket).  The layout reuses the store discipline ([Gp_util.Store]):
   a magic tag, a format version owned by this module, a 64-bit length,
   the payload bytes, and a 64-bit FNV-1a checksum of the payload —
   the same checksum the WAL puts on every record, so a flipped bit on
   the wire is caught exactly like a flipped bit on disk.

     "GPFR" | version i64 | len i64 | payload bytes | fnv64(payload)

   Reading is INCREMENTAL: a socket delivers bytes in arbitrary chunks,
   so {!parse} is a pure function of (buffer, offset) that either
   yields a complete frame and how many bytes it consumed, asks for
   more bytes, or reports a malformed prefix.  Every malformed shape a
   peer can send — wrong magic, stale version, absurd length, checksum
   mismatch — is a [parse_error], never an exception: the daemon maps
   them onto the [Fail] taxonomy and drops the connection without
   trusting another byte from it.

   A frame is self-delimiting but the STREAM is not self-healing: after
   any parse error the reader has lost sync and must close the
   connection (there is no resync marker by design — a request is cheap
   to resubmit, a heuristic resync could silently splice two frames). *)

exception Truncated = Store.Bin.Truncated

let magic = "GPFR"
(* v2: the daemon's stats reply lost its three fingerprint counters
   (DESIGN.md §17), so a v1 stats body no longer decodes as v2. *)
let format_version = 2
let header_bytes = 4 + 8 + 8 (* magic, version, length *)
let trailer_bytes = 8 (* payload checksum *)

(* Upper bound on a payload: large enough for any survey binary plus
   its report, small enough that a corrupted length field cannot make
   the daemon allocate the universe before the checksum check. *)
let max_payload = 64 * 1024 * 1024

let encode payload =
  let b = Buffer.create (header_bytes + String.length payload + trailer_bytes) in
  Buffer.add_string b magic;
  Store.Bin.i64 b (Int64.of_int format_version);
  Store.Bin.i64 b (Int64.of_int (String.length payload));
  Buffer.add_string b payload;
  Store.Bin.i64 b (Store.fnv64 payload);
  Buffer.contents b

type parse_error =
  | Bad_magic
  | Bad_version of int
  | Bad_length of int
  | Bad_checksum

let error_reason = function
  | Bad_magic -> "bad magic"
  | Bad_version v -> Printf.sprintf "version %d (want %d)" v format_version
  | Bad_length n -> Printf.sprintf "length %d out of range" n
  | Bad_checksum -> "payload checksum mismatch"

type parse =
  | Complete of string * int  (* payload, total bytes consumed *)
  | Incomplete                (* valid prefix; need more bytes *)
  | Malformed of parse_error

(* Parse one frame starting at [off] in [buf] (only bytes below [len]
   are meaningful).  Pure: call again with a longer buffer after
   [Incomplete].  Never raises. *)
let parse ?(off = 0) ?len buf =
  let len = match len with Some l -> l | None -> String.length buf in
  let avail = len - off in
  if avail < header_bytes then
    (* check however much of the magic we do have, so garbage is
       rejected on the first bytes rather than after a blocking read *)
    if avail > 0 && String.sub buf off (min avail 4) <> String.sub magic 0 (min avail 4)
    then Malformed Bad_magic
    else Incomplete
  else if String.sub buf off 4 <> magic then Malformed Bad_magic
  else begin
    let cur = ref (off + 4) in
    let version = Int64.to_int (Store.Bin.gi64 buf cur) in
    let plen = Int64.to_int (Store.Bin.gi64 buf cur) in
    if version <> format_version then Malformed (Bad_version version)
    else if plen < 0 || plen > max_payload then Malformed (Bad_length plen)
    else if avail < header_bytes + plen + trailer_bytes then Incomplete
    else begin
      let payload = String.sub buf !cur plen in
      cur := !cur + plen;
      let sum = Store.Bin.gi64 buf cur in
      if sum <> Store.fnv64 payload then Malformed Bad_checksum
      else Complete (payload, header_bytes + plen + trailer_bytes)
    end
  end

(* ----- wire fault injection ----- *)

(* Keyed chaos hook, same layering trick as [Store.crash_hook]:
   gp_util cannot see the harness, so [Faultsim] installs a schedule
   here and the CLIENT send path consults it via {!mangle}.  The
   decision is keyed on the payload, so the injected fault set is a
   pure function of (seed, request) — jobs- and interleaving-proof,
   like every other Faultsim schedule. *)

type wire_fault =
  | Torn_len   (* die inside the length field: EOF mid-header *)
  | Torn_body  (* die inside the payload: EOF mid-frame *)
  | Flip_sum   (* deliver fully, checksum wrong: corruption in flight *)
  | Hangup     (* deliver fully, then vanish before reading the reply *)

let chaos_wire : (string -> wire_fault option) ref = ref (fun _ -> None)

(* Apply the installed schedule to an encoded [frame] for [payload]:
   returns the bytes to actually write and whether the sender must
   slam the connection shut immediately after. *)
let mangle ~payload frame =
  match !chaos_wire payload with
  | None -> (frame, false)
  | Some Torn_len -> (String.sub frame 0 (4 + 8 + 3), true)
  | Some Torn_body ->
    let cut = header_bytes + max 0 ((String.length frame - header_bytes) / 2) in
    (String.sub frame 0 cut, true)
  | Some Flip_sum ->
    let b = Bytes.of_string frame in
    let last = Bytes.length b - 1 in
    Bytes.set_uint8 b last (Bytes.get_uint8 b last lxor 0xff);
    (Bytes.to_string b, false)
  | Some Hangup -> (frame, true)
