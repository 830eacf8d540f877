(* Growable int vectors kept outside the OCaml heap, so the bench's own
   latency and digest logs neither feed the GC nor show in the
   heap_peak_mb metric. *)

open Bigarray

type t = { mutable a : (int, int_elt, c_layout) Array1.t; mutable n : int }

let create () = { a = Array1.create int c_layout 65536; n = 0 }
let length v = v.n

let push v x =
  if v.n = Array1.dim v.a then begin
    let b = Array1.create int c_layout (2 * v.n) in
    Array1.blit v.a (Array1.sub b 0 v.n);
    v.a <- b
  end;
  Array1.unsafe_set v.a v.n x;
  v.n <- v.n + 1

let get v i = if i < 0 || i >= v.n then invalid_arg "Vec.get" else Array1.unsafe_get v.a i

let sorted v =
  let a = Array.init v.n (Array1.unsafe_get v.a) in
  Array.sort compare a;
  a

(* Nearest-rank quantile of a sorted array; 0 when empty. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then 0 else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))
