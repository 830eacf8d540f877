(* Unit and property tests for rae_util: checksums, codecs, RNG, clock. *)

open Rae_util

let check_i32 = Alcotest.testable (fun ppf v -> Format.fprintf ppf "0x%08lx" v) Int32.equal

(* ---- Checksum ---- *)

let test_crc32c_known_vectors () =
  (* Canonical CRC32C test vectors (RFC 3720 appendix / kernel selftests). *)
  Alcotest.check check_i32 "empty" 0x00000000l (Checksum.crc32c_string "");
  Alcotest.check check_i32 "123456789" 0xE3069283l (Checksum.crc32c_string "123456789");
  let zeros32 = String.make 32 '\000' in
  Alcotest.check check_i32 "32 zeros" 0x8A9136AAl (Checksum.crc32c_string zeros32)

let test_crc32c_differs_on_flip () =
  let b = Bytes.of_string "the quick brown fox" in
  let c1 = Checksum.crc32c b ~pos:0 ~len:(Bytes.length b) in
  Bytes.set b 3 'X';
  let c2 = Checksum.crc32c b ~pos:0 ~len:(Bytes.length b) in
  Alcotest.(check bool) "flip changes checksum" false (Int32.equal c1 c2)

let test_crc32c_bounds () =
  let b = Bytes.create 8 in
  Alcotest.check_raises "negative pos" (Invalid_argument "Checksum.crc32c: out of bounds")
    (fun () -> ignore (Checksum.crc32c b ~pos:(-1) ~len:4));
  Alcotest.check_raises "overlong" (Invalid_argument "Checksum.crc32c: out of bounds") (fun () ->
      ignore (Checksum.crc32c b ~pos:4 ~len:8))

let test_verify () =
  let b = Bytes.of_string "payload" in
  let c = Checksum.crc32c b ~pos:0 ~len:7 in
  Alcotest.(check bool) "verify ok" true (Checksum.verify b ~pos:0 ~len:7 ~expect:c);
  Alcotest.(check bool) "verify bad" false
    (Checksum.verify b ~pos:0 ~len:7 ~expect:(Int32.add c 1l))

(* The reference CRC32C: the slicing-by-8 loop the library used before it
   moved into C, kept here to check both C paths against. *)
let reference_tables =
  let poly = 0x82F63B78 in
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

let reference_crc32c ?(init = 0l) b ~pos ~len =
  let t = reference_tables in
  let mask32 = 0xFFFFFFFF in
  let c = ref (Int32.to_int init land mask32 lxor mask32) in
  let i = ref pos in
  let stop = pos + len in
  let byte j = Char.code (Bytes.get b j) in
  while stop - !i >= 8 do
    let j = !i in
    let word = byte j lor (byte (j + 1) lsl 8) lor (byte (j + 2) lsl 16) lor (byte (j + 3) lsl 24) in
    let lo = !c lxor word in
    c :=
      t.(7).(lo land 0xFF)
      lxor t.(6).((lo lsr 8) land 0xFF)
      lxor t.(5).((lo lsr 16) land 0xFF)
      lxor t.(4).(lo lsr 24)
      lxor t.(3).(byte (j + 4))
      lxor t.(2).(byte (j + 5))
      lxor t.(1).(byte (j + 6))
      lxor t.(0).(byte (j + 7));
    i := j + 8
  done;
  while !i < stop do
    c := t.(0).((!c lxor byte !i) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  Int32.of_int (!c lxor mask32)

(* The stub's portable table path, bound directly so it is checked on hosts
   where the hardware path is the one selected. *)
external table_crc32c :
  (int[@untagged]) -> bytes -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "rae_crc32c_table_byte" "rae_crc32c_table"
[@@noalloc]

let table_path ?(init = 0l) b ~pos ~len =
  Int32.of_int (table_crc32c (Int32.to_int init land 0xFFFFFFFF) b pos len)

let test_crc32c_rfc3720 () =
  (* RFC 3720 appendix B.4. *)
  let ff = String.make 32 '\xff' in
  let inc = String.init 32 Char.chr in
  let dec = String.init 32 (fun i -> Char.chr (31 - i)) in
  List.iter
    (fun (name, s, want) ->
      Alcotest.check check_i32 name want (Checksum.crc32c_string s);
      let b = Bytes.of_string s in
      Alcotest.check check_i32 (name ^ ", table path") want (table_path b ~pos:0 ~len:32);
      Alcotest.check check_i32 (name ^ ", reference") want (reference_crc32c b ~pos:0 ~len:32))
    [ ("32 x 0xFF", ff, 0x62A8AB43l); ("0..31", inc, 0x46DD794El); ("31..0", dec, 0x113FDB5Cl) ]

(* Random buffers cut at every alignment 0-7, lengths 0-64 and the two
   block-sized ones the format checksums, with a random chained [~init]. *)
let prop_crc32c_matches_reference =
  let gen =
    QCheck2.Gen.(
      let* off = int_range 0 7 in
      let* len = oneof [ int_range 0 64; oneofl [ 4092; 4096 ] ] in
      let* init = map Int32.of_int (int_bound 0x3FFFFFFF) in
      let* flip = bool in
      let* data = string_size ~gen:char (return (off + len)) in
      return (off, len, (if flip then Int32.lognot init else init), data))
  in
  QCheck2.Test.make ~name:"crc32c = reference (both paths)" ~count:1000 gen
    (fun (pos, len, init, data) ->
      let b = Bytes.of_string data in
      let want = reference_crc32c ~init b ~pos ~len in
      Int32.equal want (Checksum.crc32c ~init b ~pos ~len)
      && Int32.equal want (table_path ~init b ~pos ~len)
      (* Chaining: a CRC over two pieces, the second seeded with the first,
         is the CRC over the whole. *)
      && Int32.equal want
           (let half = len / 2 in
            let c = Checksum.crc32c ~init b ~pos ~len:half in
            Checksum.crc32c ~init:c b ~pos:(pos + half) ~len:(len - half)))

(* ---- Codec ---- *)

let test_codec_roundtrip_fixed () =
  let b = Bytes.make 64 '\000' in
  Codec.set_u8 b 0 0xAB;
  Codec.set_u16 b 1 0xBEEF;
  Codec.set_u32 b 3 0xDEADBEEFL;
  Codec.set_u64 b 7 0x0123456789ABCDEFL;
  Codec.set_u32_int b 15 4294967295;
  Alcotest.(check int) "u8" 0xAB (Codec.get_u8 b 0);
  Alcotest.(check int) "u16" 0xBEEF (Codec.get_u16 b 1);
  Alcotest.(check int64) "u32" 0xDEADBEEFL (Codec.get_u32 b 3);
  Alcotest.(check int64) "u64" 0x0123456789ABCDEFL (Codec.get_u64 b 7);
  Alcotest.(check int) "u32_int max" 4294967295 (Codec.get_u32_int b 15)

let test_codec_bounds () =
  let b = Bytes.create 4 in
  let raises f = try f (); false with Codec.Decode_error _ -> true in
  Alcotest.(check bool) "u16 over end" true (raises (fun () -> ignore (Codec.get_u16 b 3)));
  Alcotest.(check bool) "u32 over end" true (raises (fun () -> ignore (Codec.get_u32 b 1)));
  Alcotest.(check bool) "u64 over end" true (raises (fun () -> ignore (Codec.get_u64 b 0)));
  Alcotest.(check bool) "negative offset" true (raises (fun () -> ignore (Codec.get_u8 b (-1))));
  Alcotest.(check bool) "set over end" true (raises (fun () -> Codec.set_u32 b 1 0L))

let test_cursor () =
  let b = Bytes.make 32 '\000' in
  let c = Codec.Cursor.of_bytes b in
  Codec.Cursor.write_u8 c 7;
  Codec.Cursor.write_u16 c 300;
  Codec.Cursor.write_u32_int c 70000;
  Codec.Cursor.write_string c "abc";
  Codec.Cursor.pad_to c 16;
  Codec.Cursor.write_u64 c 42L;
  Alcotest.(check int) "cursor pos after writes" 24 (Codec.Cursor.pos c);
  let r = Codec.Cursor.of_bytes b in
  Alcotest.(check int) "u8" 7 (Codec.Cursor.read_u8 r);
  Alcotest.(check int) "u16" 300 (Codec.Cursor.read_u16 r);
  Alcotest.(check int) "u32" 70000 (Codec.Cursor.read_u32_int r);
  Alcotest.(check string) "string" "abc" (Codec.Cursor.read_string r ~len:3);
  Codec.Cursor.seek r 16;
  Alcotest.(check int64) "u64" 42L (Codec.Cursor.read_u64 r)

let prop_u32_roundtrip =
  QCheck2.Test.make ~name:"codec u32 roundtrip" ~count:500
    QCheck2.Gen.(pair (int_bound 59) ui64)
    (fun (off, v) ->
      let v = Int64.logand v 0xFFFFFFFFL in
      let b = Bytes.make 64 '\000' in
      Codec.set_u32 b off v;
      Int64.equal (Codec.get_u32 b off) v)

let prop_u64_roundtrip =
  QCheck2.Test.make ~name:"codec u64 roundtrip" ~count:500
    QCheck2.Gen.(pair (int_bound 56) ui64)
    (fun (off, v) ->
      let b = Bytes.make 64 '\000' in
      Codec.set_u64 b off v;
      Int64.equal (Codec.get_u64 b off) v)

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_int_range () =
  let rng = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in rng 5 9 in
    Alcotest.(check bool) "int_in range" true (v >= 5 && v <= 9)
  done

let test_rng_invalid () =
  let rng = Rng.create 1L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Rng.int_in: empty range") (fun () ->
      ignore (Rng.int_in rng 5 4));
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng [||]))

let test_rng_pick_weighted () =
  let rng = Rng.create 3L in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 3000 do
    let v = Rng.pick_weighted rng [ (1, "a"); (0, "never"); (9, "b") ] in
    Hashtbl.replace counts v ((try Hashtbl.find counts v with Not_found -> 0) + 1)
  done;
  Alcotest.(check bool) "never has weight 0" false (Hashtbl.mem counts "never");
  let a = try Hashtbl.find counts "a" with Not_found -> 0 in
  let b = try Hashtbl.find counts "b" with Not_found -> 0 in
  Alcotest.(check bool) "roughly 1:9" true (b > 5 * a)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 11L in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_rng_split_independent () =
  let a = Rng.create 5L in
  let b = Rng.split a in
  let va = Rng.next a and vb = Rng.next b in
  Alcotest.(check bool) "different streams" false (Int64.equal va vb)

let prop_chance_bounds =
  QCheck2.Test.make ~name:"rng float in [0,bound)" ~count:200 QCheck2.Gen.(float_range 0.001 100.)
    (fun bound ->
      let rng = Rng.create 99L in
      let v = Rng.float rng bound in
      v >= 0.0 && v < bound)

(* ---- Vclock ---- *)

let test_vclock () =
  let c = Vclock.create () in
  Alcotest.(check int64) "starts at 0" 0L (Vclock.now c);
  Vclock.advance c 500L;
  Vclock.advance c 1500L;
  Alcotest.(check int64) "accumulates" 2000L (Vclock.now c);
  Alcotest.check_raises "negative" (Invalid_argument "Vclock.advance: negative delta") (fun () ->
      Vclock.advance c (-1L));
  Vclock.reset c;
  Alcotest.(check int64) "reset" 0L (Vclock.now c)

let test_vclock_pp () =
  let s ns = Format.asprintf "%a" Vclock.pp_duration ns in
  Alcotest.(check string) "ns" "500ns" (s 500L);
  Alcotest.(check string) "us" "1.50us" (s 1500L);
  Alcotest.(check string) "ms" "2.00ms" (s 2_000_000L);
  Alcotest.(check string) "s" "3.000s" (s 3_000_000_000L)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rae_util"
    [
      ( "checksum",
        [
          Alcotest.test_case "known vectors" `Quick test_crc32c_known_vectors;
          Alcotest.test_case "bit flip detected" `Quick test_crc32c_differs_on_flip;
          Alcotest.test_case "bounds" `Quick test_crc32c_bounds;
          Alcotest.test_case "verify" `Quick test_verify;
          Alcotest.test_case "RFC 3720 vectors" `Quick test_crc32c_rfc3720;
          q prop_crc32c_matches_reference;
        ] );
      ( "codec",
        [
          Alcotest.test_case "fixed roundtrip" `Quick test_codec_roundtrip_fixed;
          Alcotest.test_case "bounds checked" `Quick test_codec_bounds;
          Alcotest.test_case "cursor" `Quick test_cursor;
          q prop_u32_roundtrip;
          q prop_u64_roundtrip;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "int ranges" `Quick test_rng_int_range;
          Alcotest.test_case "invalid args" `Quick test_rng_invalid;
          Alcotest.test_case "weighted pick" `Quick test_rng_pick_weighted;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          q prop_chance_bounds;
        ] );
      ( "vclock",
        [
          Alcotest.test_case "advance/reset" `Quick test_vclock;
          Alcotest.test_case "duration pp" `Quick test_vclock_pp;
        ] );
    ]
