(** CRC32C (Castagnoli) checksums over byte buffers.

    Every on-disk structure in the filesystem format carries a CRC32C
    checksum, mirroring ext4's metadata_csum feature.  The shadow filesystem
    verifies these checksums on every structural read; the base verifies them
    only at mount time (a deliberate contrast the paper draws between the two
    implementations).

    The implementation is a C stub: the SSE4.2 [crc32] instruction on hosts
    that have it, a slicing-by-8 table loop on every other host, selected
    once at program load.  Both paths compute the same function, so every
    checksum, and with it the on-disk format, is independent of the host. *)

val crc32c : ?init:int32 -> bytes -> pos:int -> len:int -> int32
(** [crc32c ?init b ~pos ~len] computes the CRC32C of [len] bytes of [b]
    starting at [pos].  [init] seeds the accumulator for incremental use
    (default [0l], meaning a fresh checksum).
    @raise Invalid_argument if [pos]/[len] fall outside [b]. *)

val crc32c_string : string -> int32
(** [crc32c_string s] is the CRC32C of the whole string [s]. *)

val verify : bytes -> pos:int -> len:int -> expect:int32 -> bool
(** [verify b ~pos ~len ~expect] recomputes the checksum and compares it
    against [expect]. *)
