(* CRC32C over the Castagnoli polynomial 0x1EDC6F41 (reflected:
   0x82F63B78), as used by ext4 metadata_csum, iSCSI and Btrfs.

   The arithmetic lives in one C stub (crc32c_stubs.c): the SSE4.2 [crc32]
   instruction where the host has it, a slicing-by-8 table loop everywhere
   else, chosen once when the program is loaded.  Both compute the same
   function, so the on-disk format does not depend on the host.  The stub
   takes and returns the CRC as an untagged int and never allocates; only
   the public interface speaks [Int32]. *)

let mask32 = 0xFFFFFFFF

external crc32c_unsafe :
  (int[@untagged]) -> bytes -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "rae_crc32c_byte" "rae_crc32c"
[@@noalloc]

let crc32c ?(init = 0l) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Checksum.crc32c: out of bounds";
  Int32.of_int (crc32c_unsafe (Int32.to_int init land mask32) b pos len)

let crc32c_string s =
  let b = Bytes.unsafe_of_string s in
  crc32c b ~pos:0 ~len:(Bytes.length b)

let verify b ~pos ~len ~expect = Int32.equal (crc32c b ~pos ~len) expect
