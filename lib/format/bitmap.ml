type t = {
  bits : Bytes.t;
  nbits : int;
  (* Maintained population count: [count_set]/[count_free] are O(1) and the
     superblock cross-checks stop re-counting the whole bitmap. *)
  mutable nset : int;
  (* Next-fit rotor: one past the most recent [find_free_next] hit.  Purely
     an in-memory search accelerator — never serialized. *)
  mutable cursor : int;
}

let create ~nbits =
  if nbits <= 0 then invalid_arg "Bitmap.create: nbits must be positive";
  { bits = Bytes.make ((nbits + 7) / 8) '\000'; nbits; nset = 0; cursor = 0 }

let nbits t = t.nbits
let copy t = { t with bits = Bytes.copy t.bits }

let check t i what =
  if i < 0 || i >= t.nbits then
    invalid_arg (Printf.sprintf "Bitmap.%s: index %d outside [0,%d)" what i t.nbits)

let test t i =
  check t i "test";
  Char.code (Bytes.get t.bits (i / 8)) land (1 lsl (i mod 8)) <> 0

let set t i =
  check t i "set";
  let byte = i / 8 in
  let v = Char.code (Bytes.get t.bits byte) in
  let mask = 1 lsl (i mod 8) in
  if v land mask = 0 then begin
    Bytes.set t.bits byte (Char.chr (v lor mask));
    t.nset <- t.nset + 1
  end

let clear t i =
  check t i "clear";
  let byte = i / 8 in
  let v = Char.code (Bytes.get t.bits byte) in
  let mask = 1 lsl (i mod 8) in
  if v land mask <> 0 then begin
    Bytes.set t.bits byte (Char.chr (v land lnot mask land 0xFF));
    t.nset <- t.nset - 1
  end

let set_result t i =
  if i < 0 || i >= t.nbits then Error (Printf.sprintf "bit %d out of range" i)
  else if test t i then Error (Printf.sprintf "bit %d already set (double allocation)" i)
  else begin
    set t i;
    Ok ()
  end

let clear_result t i =
  if i < 0 || i >= t.nbits then Error (Printf.sprintf "bit %d out of range" i)
  else if not (test t i) then Error (Printf.sprintf "bit %d already clear (double free)" i)
  else begin
    clear t i;
    Ok ()
  end

(* First clear bit in [a, b), or -1.  Word-level scan: bytes that read 0xFF
   are skipped with one compare, and interior runs of full bytes are skipped
   eight at a time through 64-bit loads.  Padding bits past [nbits] are kept
   zero in memory, so a byte straddling the boundary can never read 0xFF by
   accident; the [b] bound still guards the bit-level pick. *)
let scan_range t a b =
  if a >= b then -1
  else begin
    let bits = t.bits in
    let len = Bytes.length bits in
    let first_byte = a lsr 3 and last_byte = (b - 1) lsr 3 in
    let rec pick v base j hi =
      if j >= hi then -1
      else if v land (1 lsl j) = 0 then base + j
      else pick v base (j + 1) hi
    in
    let rec go bi =
      if bi > last_byte then -1
      else
        let v = Char.code (Bytes.unsafe_get bits bi) in
        if v = 0xFF then begin
          let bi = ref (bi + 1) in
          while
            !bi + 8 <= len && !bi + 7 <= last_byte && Int64.equal (Bytes.get_int64_le bits !bi) (-1L)
          do
            bi := !bi + 8
          done;
          go !bi
        end
        else
          let lo = if bi = first_byte then a land 7 else 0 in
          let hi = if bi = last_byte then ((b - 1) land 7) + 1 else 8 in
          let r = pick v (bi lsl 3) lo hi in
          if r >= 0 then r else go (bi + 1)
    in
    go first_byte
  end

let find_free t ~from =
  if from < 0 || from >= t.nbits then None
  else match scan_range t from t.nbits with -1 -> None | i -> Some i

(* Next-fit: resume at the rotor, wrap once back to [lo].  Finds a free bit
   iff one exists in [lo, nbits); amortized O(1) for append-dominated
   allocation patterns where first-fit re-scans the allocated prefix. *)
let find_free_next t ~lo =
  if lo < 0 || lo >= t.nbits then None
  else begin
    let start = if t.cursor < lo || t.cursor >= t.nbits then lo else t.cursor in
    let i =
      match scan_range t start t.nbits with
      | -1 -> scan_range t lo start
      | i -> i
    in
    if i < 0 then None
    else begin
      t.cursor <- i + 1;
      Some i
    end
  end

let cursor t = t.cursor
let reset_cursor t = t.cursor <- 0

let count_set t = t.nset
let count_free t = t.nbits - t.nset

(* Bits set in each byte value, built at module initialisation. *)
let byte_popcount =
  let t = Bytes.create 256 in
  for v = 0 to 255 do
    let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
    Bytes.unsafe_set t v (Char.unsafe_chr (go v 0))
  done;
  Bytes.unsafe_to_string t

let popcount_bytes bits =
  let total = ref 0 in
  for i = 0 to Bytes.length bits - 1 do
    let v = Char.code (Bytes.unsafe_get bits i) in
    total := !total + Char.code (String.unsafe_get byte_popcount v)
  done;
  !total

let block_count t ~block_size = max 1 ((Bytes.length t.bits + block_size - 1) / block_size)

let encode_block t ~block_size i =
  let out = Bytes.make block_size '\xff' in
  let src_off = i * block_size in
  let n = min block_size (Bytes.length t.bits - src_off) in
  if n > 0 then Bytes.blit t.bits src_off out 0 n;
  (* Padding bits inside the last partially-used byte read as allocated:
     in-range bits keep their value, out-of-range bits are forced to 1. *)
  let last_byte = (t.nbits - 1) / 8 in
  let used_bits = ((t.nbits - 1) mod 8) + 1 in
  if used_bits < 8 && last_byte / block_size = i then begin
    let off = last_byte mod block_size in
    let mask_high = lnot ((1 lsl used_bits) - 1) land 0xFF in
    Bytes.set out off (Char.chr (Char.code (Bytes.get out off) lor mask_high))
  end;
  out

let block t ~block_size i =
  if i < 0 || i >= block_count t ~block_size then None else Some (encode_block t ~block_size i)

let to_blocks t ~block_size = List.init (block_count t ~block_size) (encode_block t ~block_size)

(* Copies the needed bytes straight out of the blocks; the bytes past them
   are only inspected (strict mode) in place. *)
let parse blocks ~nbits ~strict =
  if nbits <= 0 then Error "nbits must be positive"
  else
    let needed_bytes = (nbits + 7) / 8 in
    let total_bytes = List.fold_left (fun acc b -> acc + Bytes.length b) 0 blocks in
    if total_bytes < needed_bytes then
      Error (Printf.sprintf "bitmap blocks hold %d bytes, need %d" total_bytes needed_bytes)
    else begin
      let bits = Bytes.create needed_bytes in
      let padding_ok = ref true in
      let off = ref 0 in
      List.iter
        (fun b ->
          let blen = Bytes.length b in
          let n = max 0 (min blen (needed_bytes - !off)) in
          if n > 0 then Bytes.blit b 0 bits !off n;
          (* Bytes past needed_bytes must be all-ones in strict mode. *)
          if strict then
            for i = n to blen - 1 do
              if Bytes.unsafe_get b i <> '\xff' then padding_ok := false
            done;
          off := !off + blen)
        blocks;
      (* Clear the in-memory padding bits of the final byte. *)
      let used_bits = ((nbits - 1) mod 8) + 1 in
      if used_bits < 8 then begin
        let v = Char.code (Bytes.get bits (needed_bytes - 1)) in
        let mask_high = lnot ((1 lsl used_bits) - 1) land 0xFF in
        if v land mask_high <> mask_high then padding_ok := false;
        Bytes.set bits (needed_bytes - 1) (Char.chr (v land ((1 lsl used_bits) - 1)))
      end;
      let t = { bits; nbits; nset = popcount_bytes bits; cursor = 0 } in
      if strict && not !padding_ok then Error "bitmap padding bits are not all-ones" else Ok t
    end

let of_blocks blocks ~nbits = parse blocks ~nbits ~strict:true
let of_blocks_lenient blocks ~nbits = parse blocks ~nbits ~strict:false

let equal a b = a.nbits = b.nbits && Bytes.equal a.bits b.bits

let iter_set t f =
  for i = 0 to t.nbits - 1 do
    if test t i then f i
  done

let pp ppf t =
  Format.fprintf ppf "bitmap<%d bits, %d set>" t.nbits (count_set t)
