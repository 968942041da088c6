(* Image-grain extraction memo (DESIGN.md §11).

   One process-wide table maps an image digest (the five extraction
   config fields, the code base and the code bytes — everything
   [Exec.summarize_r] and the prefilter read) to that image's harvest,
   recorded as converted gadget records: the start count, then for each
   start that passed the prefilter its offset, the faults it tallied and
   its gadget entries with placeholder ids.  [Extract.harvest_r] looks
   the image up once per request; a hit replays the records without
   decoding or symbolically executing anything, drawing ids and
   consulting the chaos hook exactly as a fresh harvest would, so a hit
   is bit-identical to a fresh compute.

   The table lives in memory only: a long-lived process (the daemon, a
   survey sweep) keeps it hot across requests, and a new process starts
   cold.

   Thread safety: one lookup per request, so one [Hashtbl] behind one
   mutex; first-write-wins, so racing domains at worst duplicate a
   harvest. *)

type record = {
  r_pos : int;
  r_fails : Fail.t list;
  r_entries : Gadget.t option list;
}

type value = { v_starts : int; v_records : record list }

let tbl : (string, value) Hashtbl.t = Hashtbl.create 64
let tbl_lock = Mutex.create ()

let size () = Mutex.protect tbl_lock (fun () -> Hashtbl.length tbl)

(* always 0: stubs bench/e2e still reads (see incr.mli) *)
let suffix_size () = 0
let fp_size () = 0

let reset () = Mutex.protect tbl_lock (fun () -> Hashtbl.reset tbl)

let find key = Mutex.protect tbl_lock (fun () -> Hashtbl.find_opt tbl key)

let add key v =
  Mutex.protect tbl_lock (fun () ->
      if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key v)
