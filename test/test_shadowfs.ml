(* Tests for rae_shadowfs: overlay behaviour, runtime checks, and the key
   property — the shadow is observationally equivalent to the executable
   specification on arbitrary operation sequences. *)

open Rae_vfs
module Spec = Rae_specfs.Spec
module Shadow = Rae_shadowfs.Shadow
module Overlay = Rae_shadowfs.Overlay
module Disk = Rae_block.Disk
module Device = Rae_block.Device
module Fault = Rae_block.Fault
module Crashsim = Rae_block.Crashsim
module Layout = Rae_format.Layout
module Reader = Rae_format.Reader

let p = Path.parse_exn
let bs = Layout.block_size
let ok = Result.get_ok

let mk_image ?(nblocks = 2048) ?(ninodes = 256) () =
  let disk = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks () in
  let dev = Device.of_disk disk in
  ignore (ok (Rae_format.Mkfs.format dev ~ninodes ()));
  (disk, dev)

let mk_shadow ?config () =
  let disk, dev = mk_image () in
  (disk, ok (Shadow.attach ?config dev))

(* ---- overlay ---- *)

let test_overlay_cow () =
  let disk, dev = mk_image () in
  let ov = Overlay.create dev in
  let before = Disk.writes disk in
  Overlay.write ov 100 (Bytes.make bs 'x');
  Alcotest.(check int) "device untouched" before (Disk.writes disk);
  Alcotest.(check bool) "read sees overlay" true (Bytes.equal (Overlay.read ov 100) (Bytes.make bs 'x'));
  Alcotest.(check int) "one dirty block" 1 (Overlay.dirty_count ov);
  Alcotest.(check bool) "mem" true (Overlay.mem ov 100);
  Alcotest.(check bool) "other blocks from device" false (Overlay.mem ov 0)

let test_overlay_sorted_dirty () =
  let _disk, dev = mk_image () in
  let ov = Overlay.create dev in
  List.iter (fun b -> Overlay.write ov b (Bytes.make bs 'x')) [ 300; 100; 200 ];
  Alcotest.(check (list int)) "sorted" [ 100; 200; 300 ] (List.map fst (Overlay.dirty ov))

(* A view that misses reads into the overlay's scratch block; a nested
   miss must not overwrite the block the outer view is reading, and an
   exception must not leave the scratch block taken. *)
let test_overlay_view_scratch () =
  let disk, dev = mk_image () in
  Disk.write disk 1000 (Bytes.make bs 'A');
  Disk.write disk 1001 (Bytes.make bs 'B');
  let ov = Overlay.create dev in
  let outer0, inner, outer1 =
    Overlay.view ov 1000 (fun outer ->
        let o0 = Bytes.get outer 0 in
        let inner = Overlay.view ov 1001 (fun b -> Bytes.get b (bs - 1)) in
        (o0, inner, Bytes.get outer (bs - 1)))
  in
  Alcotest.(check (list char)) "outer kept under a nested miss" [ 'A'; 'B'; 'A' ] [ outer0; inner; outer1 ];
  (match Overlay.view ov 1001 (fun _ -> failwith "reader failed") with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  Alcotest.(check char) "next miss after an exception" 'B' (Overlay.view ov 1001 (fun b -> Bytes.get b 7));
  Alcotest.(check char) "and again" 'A' (Overlay.view ov 1000 (fun b -> Bytes.get b 7));
  Overlay.write ov 1000 (Bytes.make bs 'C');
  Alcotest.(check char) "overlay content wins" 'C' (Overlay.view ov 1000 (fun b -> Bytes.get b 7));
  Alcotest.(check int) "misses counted" 5 (Overlay.reads_from_device ov);
  Alcotest.(check char) "device untouched" 'A' (Bytes.get (Disk.read disk 1000) 0)

(* ---- shadow never writes ---- *)

let test_shadow_never_writes_device () =
  let disk, sh = mk_shadow () in
  Disk.reset_counters disk;
  ignore (ok (Shadow.mkdir sh (p "/d") ~mode:0o755));
  ignore (ok (Shadow.create sh (p "/d/f") ~mode:0o644));
  let fd = ok (Shadow.openf sh (p "/d/f") Types.flags_rw) in
  ignore (ok (Shadow.pwrite sh fd ~off:0 (String.make 10000 'z')));
  ignore (ok (Shadow.close sh fd));
  ignore (ok (Shadow.rename sh (p "/d/f") (p "/d/g")));
  ignore (ok (Shadow.unlink sh (p "/d/g")));
  Alcotest.(check int) "zero device writes" 0 (Disk.writes disk);
  Alcotest.(check bool) "overlay accumulated the state" true (List.length (Shadow.dirty_blocks sh) > 0)

let test_shadow_smoke () =
  let _disk, sh = mk_shadow () in
  ignore (ok (Shadow.mkdir sh (p "/home") ~mode:0o755));
  let fd = ok (Shadow.openf sh (p "/home/doc.txt") Types.flags_create) in
  Alcotest.(check int) "write" 11 (ok (Shadow.pwrite sh fd ~off:0 "hello world"));
  Alcotest.(check string) "read back" "hello world" (ok (Shadow.pread sh fd ~off:0 ~len:100));
  ignore (ok (Shadow.close sh fd));
  Alcotest.(check (list string)) "listing" [ "doc.txt" ] (ok (Shadow.readdir sh (p "/home")));
  let st = ok (Shadow.stat sh (p "/home/doc.txt")) in
  Alcotest.(check int) "size" 11 st.Types.st_size

let test_shadow_large_file_indirect () =
  (* Cross the direct-pointer boundary (12 * 4096 = 49152 bytes). *)
  let _disk, sh = mk_shadow () in
  let fd = ok (Shadow.openf sh (p "/big") Types.flags_create) in
  let chunk = String.make bs 'A' in
  for i = 0 to 19 do
    Alcotest.(check int) "chunk written" bs (ok (Shadow.pwrite sh fd ~off:(i * bs) chunk))
  done;
  Alcotest.(check int) "size" (20 * bs) (ok (Shadow.fstat sh fd)).Types.st_size;
  Alcotest.(check string) "read across boundary" (String.make 100 'A')
    (ok (Shadow.pread sh fd ~off:((12 * bs) - 50) ~len:100));
  (* Truncate back under the boundary: indirect blocks freed. *)
  ignore (ok (Shadow.close sh fd));
  ignore (ok (Shadow.truncate sh (p "/big") ~size:100));
  Alcotest.(check int) "shrunk" 100 (ok (Shadow.stat sh (p "/big"))).Types.st_size

let test_shadow_enospc () =
  (* A tiny image runs out of blocks; ENOSPC must surface, not corruption. *)
  let disk = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks:80 () in
  let dev = Device.of_disk disk in
  ignore (ok (Rae_format.Mkfs.format dev ~ninodes:16 ~journal_len:4 ()));
  let sh = ok (Shadow.attach dev) in
  let fd = ok (Shadow.openf sh (p "/f") Types.flags_create) in
  let big = String.make (100 * bs) 'x' in
  (match Shadow.pwrite sh fd ~off:0 big with
  | Error Errno.ENOSPC -> ()
  | Error e -> Alcotest.failf "expected ENOSPC, got %s" (Errno.to_string e)
  | Ok n -> Alcotest.failf "wrote %d bytes on a full disk" n);
  (* The filesystem must still work after the failure. *)
  ignore (ok (Shadow.close sh fd));
  ignore (ok (Shadow.create sh (p "/small") ~mode:0o644))

(* ---- runtime checks ---- *)

let test_checks_counted () =
  let _disk, sh = mk_shadow () in
  ignore (ok (Shadow.create sh (p "/f") ~mode:0o644));
  Alcotest.(check bool) "checks performed" true (Shadow.checks_performed sh > 0);
  let _disk2, sh2 = mk_shadow ~config:{ Shadow.default_config with Shadow.checks = false } () in
  ignore (ok (Shadow.create sh2 (p "/f") ~mode:0o644));
  Alcotest.(check int) "no checks when disabled" 0 (Shadow.checks_performed sh2)

let test_violation_on_corrupt_inode () =
  let disk, dev = mk_image () in
  ignore dev;
  (* Corrupt the root inode on the medium, then attach and operate. *)
  let g = (Result.get_ok (Rae_format.Reader.attach (fun b -> Disk.read disk b))).Rae_format.Reader.sb
          .Rae_format.Superblock.geometry in
  Disk.corrupt_byte disk ~block:g.Layout.inode_table_start ~offset:10 (fun _ -> '\xee');
  let sh = ok (Shadow.attach (Device.of_disk disk)) in
  match Shadow.create sh (p "/f") ~mode:0o644 with
  | exception Shadow.Violation _ -> ()
  | Ok _ -> Alcotest.fail "operated on a corrupt image"
  | Error e -> Alcotest.failf "expected Violation, got errno %s" (Errno.to_string e)

let test_violation_on_crafted_dirent () =
  let disk, dev = mk_image () in
  ignore dev;
  let g = (Result.get_ok (Rae_format.Reader.attach (fun b -> Disk.read disk b))).Rae_format.Reader.sb
          .Rae_format.Superblock.geometry in
  (* rec_len = 0 in the root directory block. *)
  Disk.corrupt_byte disk ~block:g.Layout.data_start ~offset:4 (fun _ -> '\000');
  Disk.corrupt_byte disk ~block:g.Layout.data_start ~offset:5 (fun _ -> '\000');
  let sh = ok (Shadow.attach (Device.of_disk disk)) in
  match Shadow.lookup sh (p "/x") with
  | exception Shadow.Violation _ -> ()
  | Ok _ | Error _ -> Alcotest.fail "crafted dirent not caught"

let test_fsck_on_attach_rejects () =
  let disk, dev = mk_image () in
  ignore dev;
  let g = (Result.get_ok (Rae_format.Reader.attach (fun b -> Disk.read disk b))).Rae_format.Reader.sb
          .Rae_format.Superblock.geometry in
  Disk.corrupt_byte disk ~block:g.Layout.data_start ~offset:4 (fun _ -> '\000');
  Disk.corrupt_byte disk ~block:g.Layout.data_start ~offset:5 (fun _ -> '\000');
  let config = { Shadow.default_config with Shadow.fsck_on_attach = true } in
  match Shadow.attach ~config (Device.of_disk disk) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fsck_on_attach accepted a corrupt image"

(* ---- equivalence with the specification ---- *)

let snapshot_shadow sh =
  (* Rebuild a Spec-comparable view by walking the shadow through its own
     public API. *)
  let rec walk path acc =
    let names = ok (Shadow.readdir sh (p path)) in
    List.fold_left
      (fun acc name ->
        let child = if path = "/" then "/" ^ name else path ^ "/" ^ name in
        (* Use lookup without following for kind via readlink probe. *)
        match Shadow.readlink sh (p child) with
        | Ok target -> (child, `Symlink target) :: acc
        | Error Errno.EINVAL -> (
            let st = ok (Shadow.stat sh (p child)) in
            match st.Types.st_kind with
            | Types.Directory -> walk child ((child, `Dir) :: acc)
            | Types.Regular ->
                let fd = ok (Shadow.openf sh (p child) Types.flags_ro) in
                let data = ok (Shadow.pread sh fd ~off:0 ~len:st.Types.st_size) in
                ignore (ok (Shadow.close sh fd));
                (child, `File data) :: acc
            | Types.Symlink -> acc (* unreachable: stat follows *))
        | Error e -> Alcotest.failf "walk %s: %s" child (Errno.to_string e))
      acc names
  in
  List.sort compare (walk "/" [])

let snapshot_spec sp =
  let snap = Spec.snapshot sp in
  snap.Spec.State.entries
  |> List.filter_map (fun e ->
         if e.Spec.State.e_path = "/" || String.length e.Spec.State.e_path > 0 && e.Spec.State.e_path.[0] = '!' then None
         else
           match e.Spec.State.e_kind with
           | Types.Directory -> Some (e.Spec.State.e_path, `Dir)
           | Types.Regular -> Some (e.Spec.State.e_path, `File e.Spec.State.e_content)
           | Types.Symlink -> Some (e.Spec.State.e_path, `Symlink e.Spec.State.e_content))
  |> List.sort compare

let run_equivalence ~seed ~count =
  let rng = Rae_util.Rng.create seed in
  let ops = Rae_workload.Workload.uniform rng ~count in
  let sp = Spec.make () in
  let _disk, sh = mk_shadow () in
  List.iteri
    (fun i op ->
      let ro = Spec.exec sp op in
      let so = Shadow.exec sh op in
      if not (Op.outcome_equal ro so) then
        Alcotest.failf "op %d %s: spec %s, shadow %s" i (Op.to_string op)
          (Format.asprintf "%a" Op.pp_outcome ro)
          (Format.asprintf "%a" Op.pp_outcome so))
    ops;
  (* Final state equivalence, contents included. *)
  let a = snapshot_spec sp and b = snapshot_shadow sh in
  if a <> b then
    Alcotest.failf "final states differ after %d ops (seed %Ld): %d vs %d entries" count seed
      (List.length a) (List.length b)

let test_equivalence_seeds () =
  List.iter (fun seed -> run_equivalence ~seed ~count:300) [ 1L; 2L; 3L; 42L; 99L ]

let prop_shadow_equals_spec =
  QCheck2.Test.make ~name:"shadow == spec on random traces" ~count:40
    QCheck2.Gen.(pair ui64 (int_range 20 200))
    (fun (seed, count) ->
      run_equivalence ~seed ~count;
      true)

let test_profile_traces_equivalent () =
  (* The profile workloads (mostly-succeeding realistic shapes) must also
     agree, including fd-number allocation across open/close churn. *)
  List.iter
    (fun profile ->
      let rng = Rae_util.Rng.create 7L in
      let ops = Rae_workload.Workload.ops profile rng ~count:200 in
      let sp = Spec.make () in
      let _disk, sh = mk_shadow () in
      List.iteri
        (fun i op ->
          let ro = Spec.exec sp op in
          let so = Shadow.exec sh op in
          if not (Op.outcome_equal ro so) then
            Alcotest.failf "%s op %d %s: spec %s, shadow %s"
              (Rae_workload.Workload.profile_name profile)
              i (Op.to_string op)
              (Format.asprintf "%a" Op.pp_outcome ro)
              (Format.asprintf "%a" Op.pp_outcome so))
        ops)
    Rae_workload.Workload.all_profiles

(* ---- fast paths vs naive execution ---- *)

let naive_config = { Shadow.default_config with Shadow.fast_paths = false }

let run_fast_vs_naive ~seed ~count =
  let rng = Rae_util.Rng.create seed in
  let ops = Rae_workload.Workload.uniform rng ~count in
  let _d1, fast = mk_shadow () in
  let _d2, naive = mk_shadow ~config:naive_config () in
  List.iteri
    (fun i op ->
      let fo = Shadow.exec fast op in
      let no = Shadow.exec naive op in
      if not (Op.outcome_equal fo no) then
        Alcotest.failf "op %d %s: fast %s, naive %s" i (Op.to_string op)
          (Format.asprintf "%a" Op.pp_outcome fo)
          (Format.asprintf "%a" Op.pp_outcome no))
    ops;
  if snapshot_shadow fast <> snapshot_shadow naive then
    Alcotest.failf "fast/naive final states differ after %d ops (seed %Ld)" count seed

let prop_fast_equals_naive =
  QCheck2.Test.make ~name:"fast_paths == naive walk on random traces" ~count:30
    QCheck2.Gen.(pair ui64 (int_range 20 200))
    (fun (seed, count) ->
      run_fast_vs_naive ~seed ~count;
      true)

let test_cache_invalidation_adversary () =
  (* Interleave lookups (cache warmers) with every namespace mutation that
     could leave a resolution or dirent-index entry stale. *)
  let _disk, sh = mk_shadow () in
  let expect_enoent what r =
    match r with
    | Error Errno.ENOENT -> ()
    | Ok _ -> Alcotest.failf "%s: stale cached resolution survived" what
    | Error e -> Alcotest.failf "%s: expected ENOENT, got %s" what (Errno.to_string e)
  in
  ignore (ok (Shadow.mkdir sh (p "/a") ~mode:0o755));
  ignore (ok (Shadow.mkdir sh (p "/a/b") ~mode:0o755));
  ignore (ok (Shadow.create sh (p "/a/b/f") ~mode:0o644));
  ignore (ok (Shadow.lookup sh (p "/a/b/f")));
  ignore (ok (Shadow.stat sh (p "/a/b")));
  (* Rename the middle component out from under the cached resolution. *)
  ignore (ok (Shadow.rename sh (p "/a/b") (p "/a/c")));
  expect_enoent "lookup after dir rename" (Shadow.lookup sh (p "/a/b/f"));
  ignore (ok (Shadow.lookup sh (p "/a/c/f")));
  (* Unlink, then recreate the same name as a different kind. *)
  ignore (ok (Shadow.unlink sh (p "/a/c/f")));
  expect_enoent "lookup after unlink" (Shadow.lookup sh (p "/a/c/f"));
  ignore (ok (Shadow.mkdir sh (p "/a/c/f") ~mode:0o755));
  let st = ok (Shadow.stat sh (p "/a/c/f")) in
  (match st.Types.st_kind with
  | Types.Directory -> ()
  | _ -> Alcotest.fail "recreated entry resolved to the stale file inode");
  (* rmdir frees the inode: both the resolution and the dirent index must drop. *)
  ignore (ok (Shadow.rmdir sh (p "/a/c/f")));
  expect_enoent "readdir of removed dir" (Shadow.readdir sh (p "/a/c/f"));
  Alcotest.(check (list string)) "parent listing updated" [] (ok (Shadow.readdir sh (p "/a/c")));
  (* Symlink replacement: the new link must be followed, not the cached one. *)
  ignore (ok (Shadow.symlink sh ~target:"/a/c" (p "/ln")));
  ignore (ok (Shadow.stat sh (p "/ln")));
  ignore (ok (Shadow.unlink sh (p "/ln")));
  ignore (ok (Shadow.symlink sh ~target:"/nowhere" (p "/ln")));
  expect_enoent "stat through replaced symlink" (Shadow.stat sh (p "/ln"))

let test_window_equals_per_op () =
  (* Record a trace autonomously, then fold it both per-op and as one
     batched window on fresh twins: identical tallies and identical state. *)
  let rng = Rae_util.Rng.create 11L in
  let ops = Rae_workload.Workload.uniform rng ~count:150 in
  let _dr, recorder = mk_shadow () in
  let recorded = List.mapi (fun i op -> { Op.op; outcome = Shadow.exec recorder op; seq = i }) ops in
  let _d1, per_op = mk_shadow () in
  let m, d, s =
    List.fold_left
      (fun (m, d, s) r ->
        match Shadow.exec_constrained per_op r with
        | Shadow.Matches -> (m + 1, d, s)
        | Shadow.Divergence _ -> (m, d + 1, s)
        | Shadow.Skipped_error | Shadow.Skipped_sync -> (m, d, s + 1))
      (0, 0, 0) recorded
  in
  let _d2, windowed = mk_shadow () in
  let w = Shadow.exec_constrained_window windowed recorded in
  Alcotest.(check int) "ops" (List.length recorded) w.Shadow.w_ops;
  Alcotest.(check int) "matches" m w.Shadow.w_matches;
  Alcotest.(check int) "divergences" d w.Shadow.w_divergences;
  Alcotest.(check int) "skipped" s w.Shadow.w_skipped;
  if snapshot_shadow per_op <> snapshot_shadow windowed then
    Alcotest.fail "windowed and per-op folds reached different states";
  (* The window amortizes the per-mutation epilogue, so it must do strictly
     fewer runtime checks than per-op replay of the same trace. *)
  Alcotest.(check bool) "window amortizes checks" true
    (Shadow.checks_performed windowed < Shadow.checks_performed per_op)

let test_fd_table_exposed () =
  let _disk, sh = mk_shadow () in
  ignore (ok (Shadow.create sh (p "/f") ~mode:0o644));
  let fd = ok (Shadow.openf sh (p "/f") Types.flags_rw) in
  (match Shadow.fd_table sh with
  | [ (fd', ino, flags) ] ->
      Alcotest.(check int) "fd" fd fd';
      Alcotest.(check int) "ino" 2 ino;
      Alcotest.(check bool) "flags" true (flags = Types.flags_rw)
  | other -> Alcotest.failf "unexpected fd table size %d" (List.length other));
  ignore (ok (Shadow.close sh fd))

(* ---- reads through views: device faults, crash buffers, in-place compare ---- *)

(* An image whose /f (inode 2) has data and holes on the device itself,
   in direct and indirect blocks: a shadow builds it in its overlay and
   the overlay is written to the disk.  Logical blocks 0, 2, 4-6, 13 and
   15 hold data; 1, 3, 7-12 and 14 are holes. *)
let sparse_size = (15 * bs) + 100

let mk_sparse_image () =
  let disk, dev = mk_image () in
  let sh = ok (Shadow.attach dev) in
  let fd = ok (Shadow.openf sh (p "/f") Types.flags_create) in
  List.iter
    (fun (off, len, c) -> ignore (ok (Shadow.pwrite sh fd ~off (String.make len c))))
    [ (100, 3000, 'a'); (2 * bs, bs, 'b'); ((5 * bs) - 7, bs + 14, 'c'); ((13 * bs) + 5, 600, 'd');
      (15 * bs, 100, 'e') ];
  ignore (ok (Shadow.close sh fd));
  List.iter (fun (blk, data) -> Disk.write disk blk data) (Shadow.dirty_blocks sh);
  (disk, dev)

(* The physical block behind logical block [idx] of /f. *)
let phys_of dev idx =
  let r = ok (Reader.attach (Device.read dev)) in
  ok (Reader.file_block r (ok (Reader.read_inode r 2)) idx)

let recorded op outcome = { Op.op; outcome; seq = 0 }

let test_pread_io_error () =
  let _disk, dev = mk_sparse_image () in
  let phys = phys_of dev 0 in
  let want = String.make 100 '\000' ^ String.make 100 'a' in
  let f = Fault.create [ Fault.Read_error { block = phys; from_nth = 1; count = 2 } ] in
  let sh = ok (Shadow.attach (Fault.wrap f dev)) in
  let fd = ok (Shadow.openf sh (p "/f") Types.flags_ro) in
  Alcotest.(check bool) "pread answers EIO" true
    (Shadow.pread sh fd ~off:0 ~len:200 = Error Errno.EIO);
  (match Shadow.exec_constrained sh (recorded (Op.Pread (fd, 0, 200)) (Ok (Op.Data want))) with
  | Shadow.Divergence (Error Errno.EIO) -> ()
  | _ -> Alcotest.fail "in-place compare must answer EIO as pread does");
  Alcotest.(check bool) "fault spent: the block reads again" true
    (Shadow.pread sh fd ~off:0 ~len:200 = Ok want);
  (* Inside a fold window the device error escapes instead of becoming
     the op's answer: the checkpoint poisons on it. *)
  let f = Fault.create [ Fault.Read_error { block = phys; from_nth = 1; count = 1 } ] in
  let sh = ok (Shadow.attach (Fault.wrap f dev)) in
  let fd = ok (Shadow.openf sh (p "/f") Types.flags_ro) in
  (match
     Shadow.exec_constrained_window sh [ recorded (Op.Pread (fd, 0, 200)) (Ok (Op.Data want)) ]
   with
  | _ -> Alcotest.fail "device error folded as an answer"
  | exception Device.Io_error _ -> ());
  (* The same for an op answered by building its outcome: a lookup that
     cannot read the root directory. *)
  let root_dir =
    let r = ok (Reader.attach (Device.read dev)) in
    ok (Reader.file_block r (ok (Reader.read_inode r Types.root_ino)) 0)
  in
  let f = Fault.create [ Fault.Read_error { block = root_dir; from_nth = 1; count = 2 } ] in
  let sh = ok (Shadow.attach (Fault.wrap f dev)) in
  let stat = Op.Stat (p "/f") in
  Alcotest.(check bool) "outside a window: EIO" true (Shadow.exec sh stat = Error Errno.EIO);
  match Shadow.exec_constrained_window sh [ recorded stat (Ok Op.Unit) ] with
  | _ -> Alcotest.fail "device error folded as an answer"
  | exception Device.Io_error _ -> ()

let test_crashsim_unflushed_visible () =
  let _disk, dev = mk_sparse_image () in
  let phys = phys_of dev 2 in
  let sim, cdev = Crashsim.create dev in
  Device.write cdev phys (Bytes.make bs 'U');
  let sh = ok (Shadow.attach cdev) in
  let fd = ok (Shadow.openf sh (p "/f") Types.flags_ro) in
  Alcotest.(check bool) "pread sees the buffered write" true
    (Shadow.pread sh fd ~off:(2 * bs) ~len:4 = Ok "UUUU");
  (match Shadow.exec_constrained sh (recorded (Op.Pread (fd, 2 * bs, 4)) (Ok (Op.Data "UUUU"))) with
  | Shadow.Matches -> ()
  | _ -> Alcotest.fail "in-place compare must see the buffered write");
  Crashsim.crash sim;
  let sh = ok (Shadow.attach cdev) in
  let fd = ok (Shadow.openf sh (p "/f") Types.flags_ro) in
  Alcotest.(check bool) "after the crash the medium's block" true
    (Shadow.pread sh fd ~off:(2 * bs) ~len:4 = Ok "bbbb")

(* A shadow over the sparse image with some blocks moved into the
   overlay, so a compare reads device blocks (scratch views), overlay
   blocks and holes; [fd] reads, [wfd] cannot. *)
let compare_fixture () =
  let _disk, dev = mk_sparse_image () in
  let sh = ok (Shadow.attach dev) in
  let fd = ok (Shadow.openf sh (p "/f") Types.flags_rw) in
  ignore (ok (Shadow.pwrite sh fd ~off:((3 * bs) + 10) "overlay"));
  ignore (ok (Shadow.pwrite sh fd ~off:(5 * bs) "OV"));
  let wfd = ok (Shadow.openf sh (p "/f") { Types.flags_rw with Types.rd = false }) in
  (sh, fd, wfd)

(* The in-place compare must give the verdict building the answer and
   comparing it gives, and the same outcome on a divergence. *)
let same_verdict sh op want_outcome =
  let truth = Shadow.exec sh op in
  let built = if Op.outcome_equal want_outcome truth then None else Some truth in
  match (Shadow.exec_constrained sh (recorded op want_outcome), built) with
  | Shadow.Matches, None -> true
  | Shadow.Divergence o, Some t -> Op.outcome_equal o t
  | _ -> false

let corrupt s k =
  let b = Bytes.of_string s in
  Bytes.set b k (Char.chr (Char.code (Bytes.get b k) lxor 1));
  Bytes.to_string b

let prop_in_place_compare =
  let sh, fd, wfd = compare_fixture () in
  QCheck2.Test.make ~name:"in-place pread compare = build and compare" ~count:500
    QCheck2.Gen.(
      quad (int_range 0 2)
        (int_range (-2) (sparse_size + (2 * bs)))
        (oneof [ pure 0; int_range 0 ((3 * bs) + 20) ])
        (pair (int_range 0 4) nat))
    (fun (which, off, len, (mutation, k)) ->
      let fd = match which with 0 -> fd | 1 -> wfd | _ -> 99 in
      let op = Op.Pread (fd, off, len) in
      let s = match Shadow.exec sh op with Ok (Op.Data s) -> s | _ -> "x" in
      let n = String.length s in
      let s =
        match mutation with
        | 1 when n > 0 -> corrupt s (k mod n)
        | 2 when n > 0 -> String.sub s 0 (n - 1)
        | 3 -> s ^ "\000"
        | 4 -> ""
        | _ -> s
      in
      same_verdict sh op (Ok (Op.Data s)))

(* Every byte position of a device block, a hole and an overlay block,
   and the seams between them: a one-byte corruption anywhere is a
   divergence carrying the real answer. *)
let test_in_place_compare_every_position () =
  let sh, fd, _ = compare_fixture () in
  List.iter
    (fun (off, len) ->
      let op = Op.Pread (fd, off, len) in
      let s = match Shadow.exec sh op with Ok (Op.Data s) -> s | _ -> Alcotest.fail "pread" in
      Alcotest.(check bool) "exact answer matches" true (same_verdict sh op (Ok (Op.Data s)));
      for k = 0 to String.length s - 1 do
        if not (same_verdict sh op (Ok (Op.Data (corrupt s k)))) then
          Alcotest.failf "pread %d+%d: corruption at %d not reported as the real answer" off len k
      done)
    [ (bs - 10, (2 * bs) + 20); (5 * bs, bs); (0, bs); (sparse_size - 50, 200) ]

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rae_shadowfs"
    [
      ( "overlay",
        [
          Alcotest.test_case "copy-on-write" `Quick test_overlay_cow;
          Alcotest.test_case "dirty sorted" `Quick test_overlay_sorted_dirty;
          Alcotest.test_case "view scratch block" `Quick test_overlay_view_scratch;
        ] );
      ( "shadow",
        [
          Alcotest.test_case "never writes the device" `Quick test_shadow_never_writes_device;
          Alcotest.test_case "smoke" `Quick test_shadow_smoke;
          Alcotest.test_case "indirect blocks" `Quick test_shadow_large_file_indirect;
          Alcotest.test_case "ENOSPC" `Quick test_shadow_enospc;
          Alcotest.test_case "fd table" `Quick test_fd_table_exposed;
        ] );
      ( "views",
        [
          Alcotest.test_case "device error is EIO, escapes a window" `Quick test_pread_io_error;
          Alcotest.test_case "unflushed crashsim write visible" `Quick
            test_crashsim_unflushed_visible;
          Alcotest.test_case "in-place compare, every position" `Quick
            test_in_place_compare_every_position;
          q prop_in_place_compare;
        ] );
      ( "checks",
        [
          Alcotest.test_case "counted / disableable" `Quick test_checks_counted;
          Alcotest.test_case "violation on corrupt inode" `Quick test_violation_on_corrupt_inode;
          Alcotest.test_case "violation on crafted dirent" `Quick test_violation_on_crafted_dirent;
          Alcotest.test_case "fsck_on_attach" `Quick test_fsck_on_attach_rejects;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "fixed seeds" `Quick test_equivalence_seeds;
          Alcotest.test_case "profile traces" `Quick test_profile_traces_equivalent;
          q prop_shadow_equals_spec;
        ] );
      ( "fast-paths",
        [
          Alcotest.test_case "cache invalidation adversary" `Quick test_cache_invalidation_adversary;
          Alcotest.test_case "window == per-op fold" `Quick test_window_equals_per_op;
          q prop_fast_equals_naive;
        ] );
    ]
