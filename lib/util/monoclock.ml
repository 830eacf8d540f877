external now_ns : unit -> (int64[@unboxed]) = "rae_monotonic_ns_byte" "rae_monotonic_ns"
[@@noalloc]
