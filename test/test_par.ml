(* Tests for rae_par and the two layers that run off the calling domain:
   pool fork/join semantics, async checkpoint fold = sync fold (including
   the warm-generation guard and the cache-invalidation adversary), and
   crash-sweep verdict-set equality across pool sizes. *)

open Rae_vfs
module Pool = Rae_par.Pool
module Disk = Rae_block.Disk
module Device = Rae_block.Device
module Layout = Rae_format.Layout
module Base = Rae_basefs.Base
module Bug_registry = Rae_basefs.Bug_registry
module Controller = Rae_core.Controller
module Checkpoint = Rae_core.Checkpoint
module Engine = Rae_crash.Engine
module Spec = Rae_specfs.Spec

let p = Path.parse_exn
let bs = Layout.block_size
let ok = Result.get_ok

let with_pool domains f =
  let pl = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pl) (fun () -> f pl)

(* ---- the pool itself ---- *)

let test_pool_size_one_is_sequential () =
  with_pool 1 (fun pl ->
      Alcotest.(check int) "size" 1 (Pool.size pl);
      let seen = ref [] in
      Pool.parallel_for pl ~n:10 (fun i -> seen := i :: !seen);
      Alcotest.(check (list int)) "ascending order" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
        (List.rev !seen);
      let st = Pool.stats pl in
      Alcotest.(check int) "counted as sequential" 1 st.Pool.seq_batches;
      Alcotest.(check int) "no parallel batch" 0 st.Pool.batches)

let test_pool_every_index_exactly_once () =
  with_pool 4 (fun pl ->
      let n = 1000 in
      let hits = Array.make n 0 in
      (* Small chunks force dealing across all four deques (and give the
         work-stealing path something to steal). *)
      Pool.parallel_for pl ~chunk:7 ~n (fun i -> hits.(i) <- hits.(i) + 1);
      Array.iteri
        (fun i c -> if c <> 1 then Alcotest.failf "index %d ran %d times" i c)
        hits;
      let st = Pool.stats pl in
      Alcotest.(check bool) "chunks counted" true (st.Pool.tasks_run >= n / 7);
      Alcotest.(check int) "one parallel batch" 1 st.Pool.batches;
      Pool.reset_stats pl;
      Alcotest.(check int) "reset" 0 (Pool.stats pl).Pool.tasks_run)

let test_pool_map_array () =
  with_pool 3 (fun pl ->
      let xs = Array.init 257 (fun i -> i) in
      let got = Pool.map_array pl ~chunk:5 (fun x -> (x * 2) + 1) xs in
      Alcotest.(check bool) "matches Array.map" true
        (got = Array.map (fun x -> (x * 2) + 1) xs))

let test_pool_run_thunks () =
  with_pool 4 (fun pl ->
      let cells = Array.make 9 0 in
      Pool.run pl (List.init 9 (fun i () -> cells.(i) <- i + 1));
      Alcotest.(check bool) "all thunks ran" true
        (cells = Array.init 9 (fun i -> i + 1)))

let test_pool_reraises_child_exception () =
  with_pool 4 (fun pl ->
      (match Pool.parallel_for pl ~chunk:1 ~n:64 (fun i -> if i = 17 then failwith "boom17") with
      | () -> Alcotest.fail "expected the child's exception"
      | exception Failure m -> Alcotest.(check string) "child exception re-raised" "boom17" m);
      (* The batch joined cleanly: the pool is reusable afterwards. *)
      let hits = Array.make 64 0 in
      Pool.parallel_for pl ~chunk:1 ~n:64 (fun i -> hits.(i) <- 1);
      Alcotest.(check bool) "pool survives a failed batch" true
        (Array.for_all (fun c -> c = 1) hits))

let test_pool_shutdown_degrades () =
  let pl = Pool.create ~domains:3 () in
  Pool.shutdown pl;
  Pool.shutdown pl (* idempotent *);
  let seen = ref [] in
  Pool.parallel_for pl ~n:5 (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "sequential after shutdown" [ 0; 1; 2; 3; 4 ] (List.rev !seen)

(* ---- checkpoint: background fold = synchronous fold ---- *)

(* Record a mutation trace against a commit-free base: the disk stays at
   S0, so the entries are exactly what a warm shadow folds. *)
let record_entries ~seed ~count =
  let disk = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks:2048 () in
  let dev = Device.of_disk disk in
  ignore (ok (Base.mkfs dev ~ninodes:256 ()));
  let base =
    ok (Base.mount ~config:{ Base.default_config with Base.commit_interval = max_int } dev)
  in
  let ops =
    List.filter
      (fun op -> not (Op.is_sync op))
      (Rae_workload.Workload.uniform (Rae_util.Rng.create seed) ~count)
  in
  let entries =
    List.filter Op.is_mutation ops
    |> List.mapi (fun seq op -> { Op.op; outcome = Base.exec base op; seq })
  in
  (dev, entries)

let fold_in_batches ck entries ~batch =
  let arr = Array.of_list entries in
  let n = Array.length arr in
  let i = ref 0 in
  while !i < n do
    let j = min n (!i + batch) in
    Checkpoint.fold ck ~entries:(Array.to_list (Array.sub arr !i (j - !i))) ~next_seq:j;
    i := j
  done;
  n

let mk_ckpt ?(async = false) dev =
  let ck = Checkpoint.create ~shadow_checks:false ~fold_interval:1 dev in
  if async then Checkpoint.start_async_fold ck ~queue_cap:2;
  ok (Checkpoint.cut ck ~window:0 ~fds:[] ~next_seq:0 ~commit_seq:0L);
  ck

let prop_async_fold_equals_sync =
  QCheck2.Test.make ~name:"background fold = synchronous fold (seeded state)" ~count:12
    QCheck2.Gen.(triple ui64 (int_range 20 120) (int_range 2 9))
    (fun (seed, count, batch) ->
      let dev, entries = record_entries ~seed ~count in
      let sync = mk_ckpt dev in
      let n = fold_in_batches sync entries ~batch in
      let s_sh, s_cur = ok (Checkpoint.seed sync) in
      let async = mk_ckpt ~async:true dev in
      ignore (fold_in_batches async entries ~batch);
      let a_sh, a_cur = ok (Checkpoint.seed async) in
      Checkpoint.shutdown async;
      if s_cur <> n || a_cur <> n then
        QCheck2.Test.fail_reportf "cursors: sync %d, async %d, want %d (seed %Ld)" s_cur a_cur n
          seed;
      if not (Rae_core.Differential.shadow_states_equal s_sh a_sh) then
        QCheck2.Test.fail_reportf "seeded states diverge (seed %Ld, batch %d)" seed batch;
      true)

(* The warm-generation guard: a cut mid-stream discards the windows
   scheduled against the previous warm instance — whatever the worker's
   progress, the seeded state only ever reflects the new base plus the
   windows recorded after the cut.  Both interleavings (stale window
   folded into the old instance before the cut's quiesce, or discarded by
   it) must collapse to the same observable state. *)
let prop_cut_mid_fold_generation_guard =
  QCheck2.Test.make ~name:"cut mid background fold never leaks stale windows" ~count:12
    QCheck2.Gen.(triple ui64 (int_range 30 120) (int_range 25 75))
    (fun (seed, count, cut_pct) ->
      let dev, entries = record_entries ~seed ~count in
      let n = List.length entries in
      let k = max 1 (cut_pct * n / 100) in
      let pre = List.filteri (fun i _ -> i < k) entries
      and post = List.filteri (fun i _ -> i >= k) entries in
      let run ~async =
        let ck = mk_ckpt ~async dev in
        ignore (fold_in_batches ck pre ~batch:3);
        (* Re-base: quiesce + discard, bump the generation, cursor to k.
           The disk is still S0 (commit-free trace), so the cut is sound. *)
        ok (Checkpoint.cut ck ~window:0 ~fds:[] ~next_seq:k ~commit_seq:0L);
        List.iter
          (fun r -> Checkpoint.fold ck ~entries:[ r ] ~next_seq:(r.Op.seq + 1))
          post;
        let sh, cur = ok (Checkpoint.seed ck) in
        Checkpoint.shutdown ck;
        (sh, cur)
      in
      let s_sh, s_cur = run ~async:false in
      let a_sh, a_cur = run ~async:true in
      if s_cur <> a_cur then
        QCheck2.Test.fail_reportf "cursors differ: sync %d, async %d (seed %Ld)" s_cur a_cur seed;
      if not (Rae_core.Differential.shadow_states_equal s_sh a_sh) then
        QCheck2.Test.fail_reportf "post-cut seeded states diverge (seed %Ld, cut %d/%d)" seed k n;
      true)

(* ---- controller: par_domains is a pure latency knob ---- *)

let arm ids =
  Bug_registry.arm ~rng:(Rae_util.Rng.create 9L) (List.filter_map Bug_registry.find ids)

let mk_ctl ?policy ?config ?bugs () =
  let disk = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks:2048 () in
  let dev = Device.of_disk disk in
  ignore (ok (Base.mkfs dev ~ninodes:256 ()));
  let base = ok (Base.mount ?config ?bugs dev) in
  (disk, Controller.make ?policy ~device:dev base)

let par_policy domains =
  {
    Controller.default_policy with
    Controller.ckpt_enabled = true;
    Controller.ckpt_fold_interval = 8;
    Controller.par_domains = domains;
  }

(* The cache-invalidation adversary (stale resolutions, dirent-index
   entries, symlink targets) interleaved with panics: every namespace
   mutation that could leave a warm-shadow fast-path cache stale, each
   followed by the lookup that would expose it, with seeded recoveries in
   between.  The "pwn" components trigger crafted-name-panic. *)
let adversary_ops =
  [
    Op.Mkdir (p "/a", 0o755);
    Op.Mkdir (p "/a/b", 0o755);
    Op.Create (p "/a/b/f", 0o644);
    Op.Lookup (p "/a/b/f");
    Op.Stat (p "/a/b");
    Op.Create (p "/pwn", 0o644) (* panic #1: recovery seeds mid-warm *);
    Op.Rename (p "/a/b", p "/a/c");
    Op.Lookup (p "/a/b/f") (* must miss: resolution moved *);
    Op.Lookup (p "/a/c/f");
    Op.Unlink (p "/a/c/f");
    Op.Lookup (p "/a/c/f") (* must miss: unlinked *);
    Op.Mkdir (p "/a/c/f", 0o755) (* same name, different kind *);
    Op.Stat (p "/a/c/f");
    Op.Unlink (p "/a/c/pwn") (* panic #2 (ENOENT path still trips the trigger) *);
    Op.Rmdir (p "/a/c/f");
    Op.Readdir (p "/a/c/f") (* must miss: removed *);
    Op.Readdir (p "/a/c");
    Op.Symlink ("/a/c", p "/ln");
    Op.Stat (p "/ln");
    Op.Unlink (p "/ln");
    Op.Symlink ("/nowhere", p "/ln");
    Op.Stat (p "/ln") (* must ENOENT through the replaced link *);
    Op.Create (p "/a/c/g", 0o644);
    Op.Lookup (p "/a/c/g");
  ]

let run_against_spec ctl ops =
  let sp = Spec.make () in
  List.iteri
    (fun i op ->
      let want = Spec.exec sp op in
      let got = Controller.exec ctl op in
      if not (Op.outcome_equal want got) then
        Alcotest.failf "op %d %s: spec %s, got %s" i (Op.to_string op)
          (Format.asprintf "%a" Op.pp_outcome want)
          (Format.asprintf "%a" Op.pp_outcome got))
    ops

let test_adversary_all_domain_counts () =
  (* par_domains in {1, 2, 4}: identical outcomes op by op, identical
     final trees, no cold fallbacks — with the invalidation adversary
     running across seeded recoveries.  A stale fast-path cache in the
     warm shadow (the generation guard's failure mode) surfaces here as
     a spec divergence after recovery. *)
  let snapshots =
    List.map
      (fun domains ->
        let _disk, ctl =
          mk_ctl ~policy:(par_policy domains)
            ~config:{ Base.default_config with Base.commit_interval = 16 }
            ~bugs:(arm [ "crafted-name-panic" ])
            ()
        in
        run_against_spec ctl adversary_ops;
        Alcotest.(check bool)
          (Printf.sprintf "recoveries happened (par=%d)" domains)
          true
          ((Controller.stats ctl).Controller.recoveries >= 1);
        (match Controller.checkpoint_stats ctl with
        | Some s -> Alcotest.(check int) "no cold fallback" 0 s.Checkpoint.fallbacks
        | None -> Alcotest.fail "checkpoint stats missing");
        Alcotest.(check (option Alcotest.string)) "not degraded" None (Controller.degraded ctl);
        let snap = ok (Rae_workload.Snapshot.capture ~exec:Controller.exec ctl) in
        Controller.shutdown ctl;
        snap)
      [ 1; 2; 4 ]
  in
  match snapshots with
  | base :: rest ->
      List.iteri
        (fun i s ->
          if not (Rae_workload.Snapshot.equal base s) then
            Alcotest.failf "final tree at par_domains=%d differs: %s"
              (List.nth [ 2; 4 ] i)
              (String.concat "; " (Rae_workload.Snapshot.diff base s)))
        rest
  | [] -> assert false

let test_seed_awaits_inflight_fold () =
  (* A long commit-free window folded in the background, then a panic:
     recovery's seed phase must await the queued/in-flight folds, so the
     async arm replays exactly the same Δ as the sync arm — and both
     report the same fold count.  Without the barrier the async arm's
     cursor (and hence its replay length) would depend on worker timing. *)
  let run domains =
    let _disk, ctl =
      mk_ctl ~policy:(par_policy domains)
        ~config:{ Base.default_config with Base.commit_interval = max_int }
        ~bugs:(arm [ "crafted-name-panic" ])
        ()
    in
    for i = 1 to 20 do
      ignore (ok (Controller.create ctl (p (Printf.sprintf "/f%d" i)) ~mode:0o644))
    done;
    ignore (ok (Controller.create ctl (p "/pwn") ~mode:0o644));
    Alcotest.(check int) "one recovery" 1 (Controller.stats ctl).Controller.recoveries;
    let r = match Controller.last_recovery ctl with Some r -> r | None -> Alcotest.fail "no report" in
    Alcotest.(check bool) "seeded" true r.Rae_core.Report.r_seeded;
    let s =
      match Controller.checkpoint_stats ctl with Some s -> s | None -> Alcotest.fail "no stats"
    in
    Alcotest.(check int) "no cold fallback" 0 s.Checkpoint.fallbacks;
    for i = 1 to 20 do
      Alcotest.(check bool) "file visible" true
        (Result.is_ok (Controller.lookup ctl (p (Printf.sprintf "/f%d" i))))
    done;
    Controller.shutdown ctl;
    (r.Rae_core.Report.r_replayed, s.Checkpoint.folds, s.Checkpoint.folded_ops)
  in
  let sync_replayed, sync_folds, sync_ops = run 1 in
  let async_replayed, async_folds, async_ops = run 2 in
  Alcotest.(check int) "same Δ replayed" sync_replayed async_replayed;
  Alcotest.(check int) "same fold count" sync_folds async_folds;
  Alcotest.(check int) "same ops folded" sync_ops async_ops;
  Alcotest.(check bool) "folds actually happened" true (async_folds >= 1)

let prop_controller_par_equals_spec =
  QCheck2.Test.make ~name:"par controller = spec under random panics" ~count:8
    QCheck2.Gen.(triple ui64 (int_range 60 150) (int_range 1 30))
    (fun (seed, count, nth) ->
      let bug () =
        Bug_registry.arm
          [
            {
              Bug_registry.id = "par-prop-panic";
              determinism = Bug_registry.Deterministic;
              trigger = Bug_registry.Nth_op_of_kind (Op.K_create, nth);
              consequence = Bug_registry.Panic;
              modeled_after = "property-test injection";
            };
          ]
      in
      let ops = Rae_workload.Workload.uniform (Rae_util.Rng.create seed) ~count in
      let sp = Spec.make () in
      let _disk, ctl =
        mk_ctl ~policy:(par_policy 4)
          ~config:{ Base.default_config with Base.commit_interval = 16 }
          ~bugs:(bug ()) ()
      in
      let fail fmt =
        Controller.shutdown ctl;
        QCheck2.Test.fail_reportf fmt
      in
      List.iter
        (fun op ->
          let want = Spec.exec sp op in
          let got = Controller.exec ctl op in
          if not (Op.outcome_equal want got) then
            fail "par=4 diverges from spec on %s (seed %Ld)" (Op.to_string op) seed)
        ops;
      if Controller.degraded ctl <> None then fail "degraded (seed %Ld)" seed;
      Controller.shutdown ctl;
      true)

(* ---- crash engine: verdict sets across pool sizes ---- *)

let sweep_fingerprint (s : Engine.stats) =
  ( s.Engine.s_workloads,
    s.Engine.s_points,
    s.Engine.s_consistent,
    s.Engine.s_repaired,
    List.sort compare
      (List.map
         (fun d -> (d.Engine.d_label, d.Engine.d_key, d.Engine.d_reason))
         s.Engine.s_diverging) )

let test_sweep_verdicts_equal_across_domains () =
  let seq = Engine.sweep_bounded ~max_workloads:40 () in
  Alcotest.(check int) "workloads swept" 40 seq.Engine.s_workloads;
  Alcotest.(check bool) "points enumerated" true (seq.Engine.s_points > 0);
  with_pool 2 (fun p2 ->
      let par2 = Engine.sweep_bounded ~pool:p2 ~max_workloads:40 () in
      Alcotest.(check bool) "par=2 verdicts equal" true
        (sweep_fingerprint seq = sweep_fingerprint par2));
  let par4 = with_pool 4 (fun p4 -> Engine.sweep_bounded ~pool:p4 ~max_workloads:40 ()) in
  Alcotest.(check bool) "par=4 verdicts equal" true
    (sweep_fingerprint seq = sweep_fingerprint par4);
  Alcotest.(check int) "no divergence in the bounded space" 0
    (List.length par4.Engine.s_diverging)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rae_par"
    [
      ( "pool",
        [
          Alcotest.test_case "size 1 = sequential ascending" `Quick test_pool_size_one_is_sequential;
          Alcotest.test_case "every index exactly once" `Quick test_pool_every_index_exactly_once;
          Alcotest.test_case "map_array" `Quick test_pool_map_array;
          Alcotest.test_case "run thunks" `Quick test_pool_run_thunks;
          Alcotest.test_case "child exception re-raised" `Quick test_pool_reraises_child_exception;
          Alcotest.test_case "shutdown degrades to sequential" `Quick test_pool_shutdown_degrades;
        ] );
      ( "ckpt-fold",
        [ q prop_async_fold_equals_sync; q prop_cut_mid_fold_generation_guard ] );
      ( "controller",
        [
          Alcotest.test_case "invalidation adversary, par in {1,2,4}" `Quick
            test_adversary_all_domain_counts;
          Alcotest.test_case "seed awaits in-flight background fold" `Quick
            test_seed_awaits_inflight_fold;
          q prop_controller_par_equals_spec;
        ] );
      ( "crash-sweep",
        [
          Alcotest.test_case "verdict sets equal across pool sizes" `Slow
            test_sweep_verdicts_equal_across_domains;
        ] );
    ]
