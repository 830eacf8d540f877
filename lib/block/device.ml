exception Io_error of string
exception Read_only_device

type t = {
  dev_read : int -> bytes;
  dev_write : int -> bytes -> unit;
  dev_flush : unit -> unit;
  dev_block_size : int;
  dev_nblocks : int;
  dev_read_into : int -> bytes -> unit;
  dev_read_into_for : int -> bytes;
}

let of_disk disk =
  let read = Disk.read disk in
  {
    dev_read = read;
    dev_write = Disk.write disk;
    dev_flush = (fun () -> ());
    dev_block_size = Disk.block_size disk;
    dev_nblocks = Disk.nblocks disk;
    dev_read_into = Disk.read_into disk;
    dev_read_into_for = read;
  }

let read t blk = t.dev_read blk

(* The copy-free path stands in for [dev_read] only while [dev_read] is
   still the read it was built beside: a wrapper that replaced
   [dev_read] (fault injection, crash simulation, counters, loggers) must
   keep seeing every read, so it gets [dev_read] plus a blit. *)
let read_into t blk buf =
  if Bytes.length buf <> t.dev_block_size then invalid_arg "Device.read_into: buffer size mismatch";
  if t.dev_read == t.dev_read_into_for then t.dev_read_into blk buf
  else
    let b = t.dev_read blk in
    Bytes.blit b 0 buf 0 t.dev_block_size
let write t blk data = t.dev_write blk data
let flush t = t.dev_flush ()
let block_size t = t.dev_block_size
let nblocks t = t.dev_nblocks

let read_only t =
  {
    t with
    dev_write = (fun _ _ -> raise Read_only_device);
    dev_flush = (fun () -> raise Read_only_device);
  }

let counting t =
  let reads = ref 0 and writes = ref 0 in
  let wrapped =
    {
      t with
      dev_read =
        (fun blk ->
          incr reads;
          t.dev_read blk);
      dev_write =
        (fun blk data ->
          incr writes;
          t.dev_write blk data);
    }
  in
  (wrapped, fun () -> (!reads, !writes))
