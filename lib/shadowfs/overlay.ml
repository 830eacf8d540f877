module Device = Rae_block.Device

type t = {
  dev : Device.t;  (* read-only *)
  blocks : (int, bytes) Hashtbl.t;
  mutable device_reads : int;
}

let create dev = { dev = Device.read_only dev; blocks = Hashtbl.create 64; device_reads = 0 }

let read t blk =
  match Hashtbl.find_opt t.blocks blk with
  | Some b -> Bytes.copy b
  | None ->
      t.device_reads <- t.device_reads + 1;
      Device.read t.dev blk

let write t blk data =
  if blk < 0 || blk >= Device.nblocks t.dev then
    invalid_arg (Printf.sprintf "Overlay.write: block %d out of range" blk);
  if Bytes.length data <> Device.block_size t.dev then
    invalid_arg "Overlay.write: wrong block size";
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
      f (Device.read t.dev blk)

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

let import t blocks = List.iter (fun (blk, data) -> write t blk data) blocks
let mem t blk = Hashtbl.mem t.blocks blk

let dirty t =
  Hashtbl.fold (fun blk data acc -> (blk, Bytes.copy data) :: acc) t.blocks []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let dirty_count t = Hashtbl.length t.blocks
let block_size t = Device.block_size t.dev
let nblocks t = Device.nblocks t.dev
let reads_from_device t = t.device_reads
