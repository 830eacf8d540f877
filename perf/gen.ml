(* Workload generators.

   Every workload is two infinite per-session request streams plus a
   session-less populate script, all derived from the seed alone, so any
   number of independent copies (one per arm, one for the Spec replay)
   produce identical requests.  Each session works in its own directory
   tree, so a stream never depends on the other session's progress: the
   generators track their own model of what exists and emit only requests
   that succeed.  Populations are bounded, so a long run stays in the
   same steady state as a short one. *)

open Rae_vfs
module Rng = Rae_util.Rng

(* A request as generated.  An fd-carrying op holds a per-session {e slot}
   index in its fd field; whoever executes it substitutes the fd bound to that
   slot.  [bind >= 0] names the slot an [Open]'s returned fd goes to. *)
type req = { op : Op.t; bind : int }

type t = {
  name : string;
  bugs : string list;  (** catalog bug ids armed in the served runs *)
  populate : (req -> unit) -> unit;  (** setup script, leaves no fd open *)
  session : int -> unit -> req;  (** a fresh copy of session [s]'s stream *)
  prologue : int;  (** leading requests per session that run before the clock *)
}

let sessions = 2
let plain op = { op; bind = -1 }

let map_fd f (op : Op.t) : Op.t =
  match op with
  | Close s -> Close (f s)
  | Pread (s, off, len) -> Pread (f s, off, len)
  | Pwrite (s, off, d) -> Pwrite (f s, off, d)
  | Fstat s -> Fstat (f s)
  | Fsync s -> Fsync (f s)
  | op -> op

type cls = Read | Write | Sync

let cls (op : Op.t) =
  match op with
  | Pread _ | Stat _ | Fstat _ | Lookup _ | Readdir _ | Readlink _ -> Read
  | Fsync _ | Sync -> Sync
  | _ -> Write

let rng_for ~seed ~salt s = Rng.create (Int64.add (Int64.mul seed 1_000_003L) (Int64.of_int ((salt * 16) + s)))

(* Per-session FIFO of requests an action expanded to. *)
let queue_stream ~refill =
  let q = Queue.create () in
  fun () ->
    if Queue.is_empty q then refill q;
    Queue.pop q

let payload rng len = String.init len (fun _ -> Char.chr (97 + Rng.int rng 26))

(* ---- varmail: a per-session mail spool, deliver / read / append / delete ---- *)

let varmail_target = 200

let varmail ~seed =
  let dir s = Printf.sprintf "s%d" s in
  let msg s id = [ dir s; Printf.sprintf "m%d" id ] in
  (* Message bodies come from a pool whose sizes step evenly over
     200..2000 B whatever the seed (only contents and picks are seeded),
     so the work per op does not drift from seed to seed.  Each stream
     copy rebuilds the same pool and initial spool from the seed. *)
  let pool = let r = Rng.create seed in Array.init 64 (fun k -> payload r (200 + (k * 1800 / 63))) in
  let initial s = let r = rng_for ~seed ~salt:1 s in Array.init varmail_target (fun _ -> Rng.int r 64) in
  let populate emit =
    for s = 0 to sessions - 1 do
      emit (plain (Op.Mkdir ([ dir s ], 0o755)));
      Array.iteri
        (fun id k ->
          emit { op = Op.Open (msg s id, Types.flags_create); bind = 0 };
          emit (plain (Op.Pwrite (0, 0, pool.(k))));
          emit (plain (Op.Close 0)))
        (initial s)
    done;
    emit (plain Op.Sync)
  in
  let session s =
    let rng = rng_for ~seed ~salt:2 s in
    (* Live messages as parallel arrays (swap-remove keeps picks O(1)). *)
    let ids = Array.make (2 * varmail_target) 0 and sizes = Array.make (2 * varmail_target) 0 in
    let pop = ref 0 in
    Array.iteri (fun id k -> ids.(id) <- id; sizes.(id) <- String.length pool.(k); incr pop) (initial s);
    let next_id = ref varmail_target in
    let refill q =
      let push op = Queue.push (plain op) q in
      let deliver () =
        let id = !next_id in
        incr next_id;
        let body = Rng.pick rng pool in
        ids.(!pop) <- id;
        sizes.(!pop) <- String.length body;
        incr pop;
        Queue.push { op = Op.Open (msg s id, Types.flags_create); bind = 0 } q;
        push (Op.Pwrite (0, 0, body));
        push (Op.Fsync 0);
        push (Op.Close 0)
      in
      let delete () =
        let i = Rng.int rng !pop in
        push (Op.Unlink (msg s ids.(i)));
        decr pop;
        ids.(i) <- ids.(!pop);
        sizes.(i) <- sizes.(!pop)
      in
      let read i =
        Queue.push { op = Op.Open (msg s ids.(i), Types.flags_ro); bind = 0 } q;
        push (Op.Pread (0, 0, sizes.(i)));
        push (Op.Close 0)
      in
      let append i =
        let body = Rng.pick rng pool in
        sizes.(i) <- sizes.(i) + String.length body;
        Queue.push { op = Op.Open (msg s ids.(i), Types.flags_append); bind = 0 } q;
        push (Op.Pwrite (0, 0, body));
        push (Op.Fsync 0);
        push (Op.Close 0)
      in
      if !pop < varmail_target - 20 then deliver ()
      else if !pop > varmail_target + 20 then delete ()
      else
        match Rng.int rng 100 with
        | n when n < 25 -> deliver ()
        | n when n < 50 -> delete ()
        | n when n < 80 -> read (Rng.int rng !pop)
        | _ ->
            (* Cap message growth so the spool's footprint stays bounded. *)
            let i = Rng.int rng !pop in
            if sizes.(i) < 16384 then append i else read i
    in
    queue_stream ~refill
  in
  { name = "varmail"; bugs = []; populate; session; prologue = 0 }

(* ---- bigread: 64 x 256 KiB files read through long-lived fds ---- *)

let big_files = 64
let big_file_bytes = 256 * 1024
let block = 4096
let big_blocks = big_file_bytes / block
let fds_per_session = big_files / sessions
let session_blocks = fds_per_session * big_blocks

let bigread ~seed =
  let file i = [ "big"; Printf.sprintf "f%02d" i ] in
  let filler = let r = Rng.create seed in payload r (2 * 65536) in
  (* Every block carries its own (file, block) header, so a read served
     from the wrong block can never match the Spec outcome. *)
  let chunk i c =
    let b = Bytes.create 65536 in
    for k = 0 to 15 do
      let blk = (c * 16) + k in
      Bytes.blit_string filler (((i * big_blocks) + blk) * 97 mod 65536) b (k * block) block;
      Bytes.blit_string (Printf.sprintf "<%02d:%02d>" i blk) 0 b (k * block) 7
    done;
    Bytes.unsafe_to_string b
  in
  let populate emit =
    emit (plain (Op.Mkdir ([ "big" ], 0o755)));
    for i = 0 to big_files - 1 do
      emit { op = Op.Open (file i, Types.flags_create); bind = 0 };
      for c = 0 to (big_file_bytes / 65536) - 1 do
        emit (plain (Op.Pwrite (0, c * 65536, chunk i c)))
      done;
      emit (plain (Op.Close 0))
    done;
    emit (plain Op.Sync)
  in
  let overwrites = let r = Rng.create (Int64.add seed 7L) in Array.init 8 (fun _ -> payload r block) in
  let session s =
    let rng = rng_for ~seed ~salt:3 s in
    let opened = ref 0 and writes = ref 0 in
    (* A hot fifth of the session's blocks (every fifth one) takes 80% of
       the accesses; the rest spread over the cold four fifths. *)
    let pick_block () =
      let g =
        if Rng.chance rng 0.8 then 5 * Rng.int rng (session_blocks / 5)
        else (5 * Rng.int rng (session_blocks / 5)) + 1 + Rng.int rng 4
      in
      (g / big_blocks, g mod big_blocks * block)
    in
    let refill q =
      if !opened < fds_per_session then begin
        let j = !opened in
        incr opened;
        Queue.push { op = Op.Open (file ((s * fds_per_session) + j), Types.flags_rw); bind = j } q
      end
      else
        let slot, off = pick_block () in
        if Rng.chance rng 0.1 then begin
          Queue.push (plain (Op.Pwrite (slot, off, Rng.pick rng overwrites))) q;
          incr writes;
          (* Rare fsyncs, as a database checkpointing its pages would. *)
          if !writes mod 16 = 0 then Queue.push (plain (Op.Fsync slot)) q
        end
        else Queue.push (plain (Op.Pread (slot, off, block))) q
    in
    queue_stream ~refill
  in
  { name = "bigread"; bugs = []; populate; session; prologue = fds_per_session }

(* ---- bugstorm: a metadata mix with two catalog bugs armed ---- *)

let storm_dirs = 8
let storm_initial = 64
let storm_min = 48
let storm_max = 96

type entry = { mutable dir : int; mutable name : string; sym : bool }

let bugstorm ~seed =
  let root s = Printf.sprintf "s%d" s in
  let dname d = Printf.sprintf "d%d" d in
  let path s d name = [ root s; dname d; name ] in
  let populate emit =
    for s = 0 to sessions - 1 do
      emit (plain (Op.Mkdir ([ root s ], 0o755)));
      for d = 0 to storm_dirs - 1 do
        emit (plain (Op.Mkdir ([ root s; dname d ], 0o755)))
      done;
      for i = 0 to storm_initial - 1 do
        emit (plain (Op.Create (path s (i mod storm_dirs) (Printf.sprintf "f%d" i), 0o644)))
      done
    done;
    emit (plain Op.Sync)
  in
  let session s =
    let rng = rng_for ~seed ~salt:4 s in
    let live = Array.make (storm_max + 1) { dir = 0; name = ""; sym = false } in
    let pop = ref 0 in
    for i = 0 to storm_initial - 1 do
      live.(i) <- { dir = i mod storm_dirs; name = Printf.sprintf "f%d" i; sym = false };
      incr pop
    done;
    let next_id = ref storm_initial in
    let fresh prefix =
      let id = !next_id in
      incr next_id;
      Printf.sprintf "%s%d" prefix id
    in
    let p e = path s e.dir e.name in
    (* [pick_kind sym] returns the index of a live entry of that kind, if any
       within a few tries; the population is mostly regular files. *)
    let pick_kind sym =
      let rec go n = if n = 0 then None else
        let i = Rng.int rng !pop in if live.(i).sym = sym then Some i else go (n - 1) in
      go 8
    in
    let refill q =
      let push op = Queue.push (plain op) q in
      let add e = live.(!pop) <- e; incr pop in
      let create () =
        let e = { dir = Rng.int rng storm_dirs; name = fresh "f"; sym = false } in
        push (Op.Create (p e, 0o644));
        add e
      in
      let unlink () =
        let i = Rng.int rng !pop in
        push (Op.Unlink (p live.(i)));
        decr pop;
        live.(i) <- live.(!pop)
      in
      let grow f = if !pop >= storm_max then unlink () else f () in
      let on_file f = match pick_kind false with Some i -> f live.(i) | None -> grow create in
      match Rng.int rng 1000 with
      | n when n < 150 -> grow create
      | n when n < 250 ->
          let e = live.(Rng.int rng !pop) in
          let src = p e in
          e.dir <- Rng.int rng storm_dirs;
          e.name <- fresh (if e.sym then "l" else "r");
          push (Op.Rename (src, p e))
      | n when n < 320 ->
          grow (fun () ->
              on_file (fun e ->
                  let l = { dir = Rng.int rng storm_dirs; name = fresh "h"; sym = false } in
                  push (Op.Link (p e, p l));
                  add l))
      | n when n < 490 -> if !pop <= storm_min then create () else unlink ()
      | n when n < 540 ->
          let t = path s (Rng.int rng storm_dirs) (fresh "t") in
          push (Op.Mkdir (t, 0o755));
          push (Op.Rmdir t)
      | n when n < 590 ->
          grow (fun () ->
              let target = Path.to_string (p live.(Rng.int rng !pop)) in
              let l = { dir = Rng.int rng storm_dirs; name = fresh "l"; sym = true } in
              push (Op.Symlink (target, p l));
              add l)
      | n when n < 680 ->
          on_file (fun e -> push (Op.Chmod (p e, Rng.pick rng [| 0o600; 0o640; 0o644; 0o755 |])))
      | n when n < 860 -> on_file (fun e -> push (Op.Stat (p e)))
      | n when n < 920 -> push (Op.Readdir [ root s; dname (Rng.int rng storm_dirs) ])
      | n when n < 950 -> (
          match pick_kind true with
          | Some i -> push (Op.Readlink (p live.(i)))
          | None -> on_file (fun e -> push (Op.Stat (p e))))
      | n when n < 960 -> push Op.Sync
      | n when n < 963 ->
          (* The crafted-name bug fires on any op with a path component
             "pwn": create and remove one, two recoveries. *)
          let t = path s (Rng.int rng storm_dirs) "pwn" in
          push (Op.Create (t, 0o644));
          push (Op.Unlink t)
      | _ -> on_file (fun e -> push (Op.Stat (p e)))
    in
    queue_stream ~refill
  in
  { name = "bugstorm"; bugs = [ "rename-race-panic"; "crafted-name-panic" ]; populate; session; prologue = 0 }

let find name ~seed =
  match name with
  | "varmail" -> Some (varmail ~seed)
  | "bigread" -> Some (bigread ~seed)
  | "bugstorm" -> Some (bugstorm ~seed)
  | _ -> None
