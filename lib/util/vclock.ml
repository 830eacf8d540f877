(* The clock is advanced from every domain that touches its disk: the
   checkpoint's background fold domain reads the device while the owning
   domain writes it.  So the counter is an atomic and [advance] is a CAS
   loop rather than a read-modify-write.  (The crash sweep's domains each
   build their own disks and clocks.) *)
type t = { ns : int64 Atomic.t }

let create () = { ns = Atomic.make 0L }
let now t = Atomic.get t.ns

let advance t delta =
  if Int64.compare delta 0L < 0 then invalid_arg "Vclock.advance: negative delta";
  let rec loop () =
    let cur = Atomic.get t.ns in
    if not (Atomic.compare_and_set t.ns cur (Int64.add cur delta)) then loop ()
  in
  loop ()

let reset t = Atomic.set t.ns 0L

let pp_duration ppf ns =
  let f = Int64.to_float ns in
  if f < 1e3 then Format.fprintf ppf "%.0fns" f
  else if f < 1e6 then Format.fprintf ppf "%.2fus" (f /. 1e3)
  else if f < 1e9 then Format.fprintf ppf "%.2fms" (f /. 1e6)
  else Format.fprintf ppf "%.3fs" (f /. 1e9)
