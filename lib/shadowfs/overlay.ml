module Device = Rae_block.Device

(* [scratch] receives the device block on a {!view} miss; [viewing] is
   set while a view holds it, so a nested miss takes a fresh buffer
   instead of overwriting the block the outer view is reading. *)
type t = {
  dev : Device.t;  (* read-only *)
  blocks : (int, bytes) Hashtbl.t;
  scratch : bytes;
  mutable viewing : bool;
  mutable device_reads : int;
}

let create dev =
  {
    dev = Device.read_only dev;
    blocks = Hashtbl.create 64;
    scratch = Bytes.create (Device.block_size dev);
    viewing = false;
    device_reads = 0;
  }

let read t blk =
  match Hashtbl.find_opt t.blocks blk with
  | Some b -> Bytes.copy b
  | None ->
      t.device_reads <- t.device_reads + 1;
      Device.read t.dev blk

let check_block t what blk data =
  if blk < 0 || blk >= Device.nblocks t.dev then
    invalid_arg (Printf.sprintf "Overlay.%s: block %d out of range" what blk);
  if Bytes.length data <> Device.block_size t.dev then
    invalid_arg (Printf.sprintf "Overlay.%s: wrong block size" what)

let write t blk data =
  check_block t "write" blk data;
  (* Re-use the stored buffer when the block is already shadowed: stored
     bytes never escape uncopied ([read]/[dirty] copy on the way out), so
     blitting in place is unobservable — and it keeps hot blocks
     (superblock, bitmaps, inode table, directories) from churning one
     promoted-then-garbage 4 KiB buffer per write. *)
  match Hashtbl.find_opt t.blocks blk with
  | Some stored -> Bytes.blit data 0 stored 0 (Bytes.length data)
  | None -> Hashtbl.add t.blocks blk (Bytes.copy data)

let view t blk f =
  match Hashtbl.find_opt t.blocks blk with
  | Some stored -> f stored
  | None ->
      t.device_reads <- t.device_reads + 1;
      if t.viewing then f (Device.read t.dev blk)
      else begin
        Device.read_into t.dev blk t.scratch;
        t.viewing <- true;
        match f t.scratch with
        | v ->
            t.viewing <- false;
            v
        | exception e ->
            t.viewing <- false;
            raise e
      end

let rmw t blk f =
  if blk < 0 || blk >= Device.nblocks t.dev then
    invalid_arg (Printf.sprintf "Overlay.rmw: block %d out of range" blk);
  match Hashtbl.find_opt t.blocks blk with
  | Some stored -> ignore (f stored : bool)
  | None ->
      t.device_reads <- t.device_reads + 1;
      (* The device hands back a fresh buffer, so ownership transfers to
         the overlay — but only if [f] actually changed it; an untouched
         block must not show up in the dirty set. *)
      let b = Device.read t.dev blk in
      if f b then Hashtbl.add t.blocks blk b

(* The buffers come from {!dirty}, which copied them; storing them as
   they are saves a second copy of every block. *)
let import t blocks =
  List.iter
    (fun (blk, data) ->
      check_block t "import" blk data;
      Hashtbl.replace t.blocks blk data)
    blocks
let mem t blk = Hashtbl.mem t.blocks blk

let dirty t =
  Hashtbl.fold (fun blk data acc -> (blk, Bytes.copy data) :: acc) t.blocks []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let dirty_count t = Hashtbl.length t.blocks
let block_size t = Device.block_size t.dev
let nblocks t = Device.nblocks t.dev
let reads_from_device t = t.device_reads
