type t = { mutable ns : int64 }

let create () = { ns = 0L }
let now t = t.ns

let advance t delta =
  if Int64.compare delta 0L < 0 then invalid_arg "Vclock.advance: negative delta";
  t.ns <- Int64.add t.ns delta

let reset t = t.ns <- 0L

let pp_duration ppf ns =
  let f = Int64.to_float ns in
  if f < 1e3 then Format.fprintf ppf "%.0fns" f
  else if f < 1e6 then Format.fprintf ppf "%.2fus" (f /. 1e3)
  else if f < 1e9 then Format.fprintf ppf "%.2fms" (f /. 1e6)
  else Format.fprintf ppf "%.3fs" (f /. 1e9)
