(* CRC32C, slicing-by-8 implementation using the Castagnoli polynomial
   0x1EDC6F41 (reflected: 0x82F63B78), as used by ext4 metadata_csum,
   iSCSI and Btrfs.

   The arithmetic runs on native [int]s (every intermediate fits in 32
   bits, OCaml ints have 63): an [Int32]-typed loop boxes every
   intermediate, which made checksumming a 4 KiB block cost tens of
   microseconds and dominated every structural block write.  On top of
   that, the classic one-table loop still costs one dependent table
   lookup per byte; slicing-by-8 folds eight input bytes per iteration
   through eight precomputed tables whose lookups are mutually
   independent, which matters here because the superblock flush
   checksums a whole block on every shadow mutation.  Only the public
   interface speaks [Int32]. *)

let mask32 = 0xFFFFFFFF
let poly = 0x82F63B78

(* tables.(0) is the classic byte-at-a-time table; tables.(k).(v) equals
   the CRC of byte [v] followed by [k] zero bytes, so an 8-byte group can
   be folded in one step:

     crc' = T7[b0] ^ T6[b1] ^ ... ^ T0[b7]   with b0..b3 pre-xored
                                             against the running crc.

   Built eagerly at module initialisation, before any domain can exist:
   a lazy table forced by two domains at once raises
   [CamlinternalLazy.Undefined] in one of them. *)
let tables =
  let t = Array.make_matrix 8 256 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 <> 0 then c := (!c lsr 1) lxor poly else c := !c lsr 1
    done;
    t.(0).(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(k - 1).(n) in
      t.(k).(n) <- t.(0).(prev land 0xFF) lxor (prev lsr 8)
    done
  done;
  t

let crc32c ?(init = 0l) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Checksum.crc32c: out of bounds";
  let t = tables in
  let t0 = t.(0) and t1 = t.(1) and t2 = t.(2) and t3 = t.(3) in
  let t4 = t.(4) and t5 = t.(5) and t6 = t.(6) and t7 = t.(7) in
  let c = ref (Int32.to_int init land mask32 lxor mask32) in
  let i = ref pos in
  let stop = pos + len in
  (* All table indices are masked to [0, 255] and every table has 256
     entries; [i] stays within [pos, stop), which the guard above proved
     in bounds — so the unsafe accesses cannot be out of bounds. *)
  let byte j = Char.code (Bytes.unsafe_get b j) in
  while stop - !i >= 8 do
    let j = !i in
    let lo =
      !c
      lxor (byte j
           lor (byte (j + 1) lsl 8)
           lor (byte (j + 2) lsl 16)
           lor (byte (j + 3) lsl 24))
    in
    c :=
      Array.unsafe_get t7 (lo land 0xFF)
      lxor Array.unsafe_get t6 ((lo lsr 8) land 0xFF)
      lxor Array.unsafe_get t5 ((lo lsr 16) land 0xFF)
      lxor Array.unsafe_get t4 (lo lsr 24)
      lxor Array.unsafe_get t3 (byte (j + 4))
      lxor Array.unsafe_get t2 (byte (j + 5))
      lxor Array.unsafe_get t1 (byte (j + 6))
      lxor Array.unsafe_get t0 (byte (j + 7));
    i := j + 8
  done;
  while !i < stop do
    let idx = (!c lxor byte !i) land 0xFF in
    c := Array.unsafe_get t0 idx lxor (!c lsr 8);
    incr i
  done;
  Int32.of_int (!c lxor mask32)

let crc32c_string s =
  let b = Bytes.unsafe_of_string s in
  crc32c b ~pos:0 ~len:(Bytes.length b)

let verify b ~pos ~len ~expect = Int32.equal (crc32c b ~pos ~len) expect
