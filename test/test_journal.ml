(* Tests for rae_journal: commit/checkpoint, replay, crash consistency,
   escaping, revocation, and replay against a last-write-wins model. *)

open Rae_block
module Journal = Rae_journal.Journal
module Layout = Rae_format.Layout

let bs = Layout.block_size

let setup ?(nblocks = 512) ?(journal_len = 16) () =
  let disk = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks () in
  let dev = Device.of_disk disk in
  let g = Result.get_ok (Layout.compute ~nblocks ~ninodes:64 ~journal_len ()) in
  Journal.format dev g;
  (disk, dev, g)

let attach_exn dev g =
  match Journal.attach dev g with Ok j -> j | Error msg -> Alcotest.failf "attach: %s" msg

let block_of_char c = Bytes.make bs c
let data_blk g i = g.Layout.data_start + i

let test_format_attach () =
  let _disk, dev, g = setup () in
  ignore (attach_exn dev g)

let test_attach_unformatted () =
  let disk = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks:512 () in
  let dev = Device.of_disk disk in
  let g = Result.get_ok (Layout.compute ~nblocks:512 ~ninodes:64 ~journal_len:16 ()) in
  match Journal.attach dev g with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "attached to an unformatted journal"

let test_commit_checkpoints () =
  let disk, dev, g = setup () in
  let j = attach_exn dev g in
  let txn = Journal.begin_txn j in
  Journal.txn_write txn (data_blk g 0) (block_of_char 'a');
  Journal.txn_write txn (data_blk g 1) (block_of_char 'b');
  Journal.commit j txn;
  Alcotest.(check bool) "home 0 written" true (Bytes.equal (Disk.read disk (data_blk g 0)) (block_of_char 'a'));
  Alcotest.(check bool) "home 1 written" true (Bytes.equal (Disk.read disk (data_blk g 1)) (block_of_char 'b'));
  let s = Journal.stats j in
  Alcotest.(check int) "1 commit" 1 s.Journal.commits;
  Alcotest.(check int) "2 blocks" 2 s.Journal.blocks_logged

let test_empty_commit_noop () =
  let disk, dev, g = setup () in
  let j = attach_exn dev g in
  let before = Disk.writes disk in
  Journal.commit j (Journal.begin_txn j);
  Alcotest.(check int) "no io" before (Disk.writes disk);
  Alcotest.(check int) "no commit counted" 0 (Journal.stats j).Journal.commits

let test_txn_write_supersedes () =
  let disk, dev, g = setup () in
  let j = attach_exn dev g in
  let txn = Journal.begin_txn j in
  Journal.txn_write txn (data_blk g 0) (block_of_char 'a');
  Journal.txn_write txn (data_blk g 0) (block_of_char 'b');
  Alcotest.(check int) "one block buffered" 1 (Journal.txn_block_count txn);
  Journal.commit j txn;
  Alcotest.(check bool) "later write wins" true
    (Bytes.equal (Disk.read disk (data_blk g 0)) (block_of_char 'b'))

let test_txn_overwrite_keeps_first_write_order () =
  (* Rewriting a buffered block must overwrite its slot in place: the
     transaction's write order (and hence descriptor tag order) stays the
     order of *first* writes, with the latest image. *)
  let _disk, dev, g = setup () in
  let j = attach_exn dev g in
  let txn = Journal.begin_txn j in
  Journal.txn_write txn (data_blk g 0) (block_of_char 'a');
  Journal.txn_write txn (data_blk g 1) (block_of_char 'b');
  Journal.txn_write txn (data_blk g 2) (block_of_char 'c');
  Journal.txn_write txn (data_blk g 0) (block_of_char 'A');
  Journal.txn_write txn (data_blk g 1) (block_of_char 'B');
  Alcotest.(check int) "three blocks buffered" 3 (Journal.txn_block_count txn);
  let slots = ref [] in
  Journal.txn_iter txn (fun blk d -> slots := (blk, d) :: !slots);
  let slots = List.rev !slots in
  Alcotest.(check (list int)) "first-write order preserved"
    [ data_blk g 0; data_blk g 1; data_blk g 2 ]
    (List.map fst slots);
  let images = List.map (fun (_, d) -> Bytes.get d 0) slots in
  Alcotest.(check (list char)) "latest images win" [ 'A'; 'B'; 'c' ] images

let test_revoke_dedup () =
  (* Revoking the same block repeatedly records it once. *)
  let _disk, dev, g = setup () in
  let j = attach_exn dev g in
  let txn = Journal.begin_txn j in
  Journal.txn_write txn (data_blk g 1) (block_of_char 'm');
  for _ = 1 to 5 do
    Journal.txn_revoke txn (data_blk g 0)
  done;
  Journal.txn_revoke txn (data_blk g 2);
  Journal.txn_revoke txn (data_blk g 0);
  Journal.commit j txn;
  Alcotest.(check int) "duplicate revokes collapsed" 2 (Journal.stats j).Journal.revokes

let test_abort_discards () =
  let disk, dev, g = setup () in
  let j = attach_exn dev g in
  let txn = Journal.begin_txn j in
  Journal.txn_write txn (data_blk g 0) (block_of_char 'a');
  Journal.abort j txn;
  Journal.commit j txn (* now empty: no-op *);
  Alcotest.(check bool) "home untouched" true
    (Bytes.equal (Disk.read disk (data_blk g 0)) (block_of_char '\000'))

let test_replay_clean_is_noop () =
  let _disk, dev, g = setup () in
  let j = attach_exn dev g in
  let txn = Journal.begin_txn j in
  Journal.txn_write txn (data_blk g 0) (block_of_char 'a');
  Journal.commit j txn;
  Alcotest.(check (result int string)) "0 replayed" (Ok 0) (Journal.replay dev g)

(* Crash between journal-commit and checkpoint: replay must re-apply. *)
let test_crash_after_journal_commit () =
  let nblocks = 512 and journal_len = 16 in
  let disk = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks () in
  let raw = Device.of_disk disk in
  let g = Result.get_ok (Layout.compute ~nblocks ~ninodes:64 ~journal_len ()) in
  Journal.format raw g;
  let sim, dev = Crashsim.create raw in
  let j = attach_exn dev g in
  let txn = Journal.begin_txn j in
  Journal.txn_write txn (data_blk g 0) (block_of_char 'a');
  Journal.txn_write txn (data_blk g 1) (block_of_char 'b');
  (* Intercept: run commit but crash before the checkpoint flush completes.
     We emulate by committing fully through the crashsim and then crashing
     with only the first flush applied: re-run commit steps manually is
     intrusive, so instead test the replay path by restoring a snapshot
     taken right after the journal flush.  Simpler: write journal records
     through a crashsim and crash after the *first* flush boundary. *)
  (* Commit issues: journal writes, flush, home writes, flush, jsb, flush.
     Crash the device after 1 flush by tracking flush count. *)
  (try
     let flush_budget = ref 1 in
     let dev' =
       {
         dev with
         Device.dev_flush =
           (fun () ->
             if !flush_budget = 0 then raise Exit;
             decr flush_budget;
             Device.flush dev);
       }
     in
     let j' = attach_exn dev' g in
     let txn' = Journal.begin_txn j' in
     Journal.txn_write txn' (data_blk g 0) (block_of_char 'a');
     Journal.txn_write txn' (data_blk g 1) (block_of_char 'b');
     Journal.commit j' txn'
   with Exit -> ());
  Crashsim.crash sim (* drop everything after the last flush *);
  ignore j;
  (* At this point the journal records are on the medium, the home writes
     are lost.  Replay must reconstruct them. *)
  (match Journal.replay raw g with
  | Ok n -> Alcotest.(check int) "one txn replayed" 1 n
  | Error msg -> Alcotest.failf "replay: %s" msg);
  Alcotest.(check bool) "home 0 recovered" true
    (Bytes.equal (Disk.read disk (data_blk g 0)) (block_of_char 'a'));
  Alcotest.(check bool) "home 1 recovered" true
    (Bytes.equal (Disk.read disk (data_blk g 1)) (block_of_char 'b'));
  (* Replay is idempotent and advances the tail. *)
  Alcotest.(check (result int string)) "second replay no-op" (Ok 0) (Journal.replay raw g)

(* Crash before the journal flush: transaction must vanish entirely. *)
let test_crash_before_journal_flush () =
  let nblocks = 512 and journal_len = 16 in
  let disk = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks () in
  let raw = Device.of_disk disk in
  let g = Result.get_ok (Layout.compute ~nblocks ~ninodes:64 ~journal_len ()) in
  Journal.format raw g;
  let sim, dev = Crashsim.create raw in
  (try
     let dev' = { dev with Device.dev_flush = (fun () -> raise Exit) } in
     let j = attach_exn dev' g in
     let txn = Journal.begin_txn j in
     Journal.txn_write txn (data_blk g 0) (block_of_char 'a');
     Journal.commit j txn
   with Exit -> ());
  Crashsim.crash sim;
  (match Journal.replay raw g with
  | Ok n -> Alcotest.(check int) "nothing replayed" 0 n
  | Error msg -> Alcotest.failf "replay: %s" msg);
  Alcotest.(check bool) "home untouched" true
    (Bytes.equal (Disk.read disk (data_blk g 0)) (block_of_char '\000'))

let test_escaping () =
  (* A data block that begins with the journal magic must roundtrip. *)
  let disk, dev, g = setup () in
  let j = attach_exn dev g in
  let tricky = Bytes.make bs '\000' in
  (* "JRNL" little-endian magic *)
  Bytes.set tricky 0 'J';
  Bytes.set tricky 1 'R';
  Bytes.set tricky 2 'N';
  Bytes.set tricky 3 'L';
  Bytes.set tricky 100 'x';
  let txn = Journal.begin_txn j in
  Journal.txn_write txn (data_blk g 0) tricky;
  Journal.commit j txn;
  Alcotest.(check int) "escape counted" 1 (Journal.stats j).Journal.escapes;
  Alcotest.(check bool) "home content exact" true (Bytes.equal (Disk.read disk (data_blk g 0)) tricky)

let test_escaping_survives_replay () =
  let nblocks = 512 and journal_len = 16 in
  let disk = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks () in
  let raw = Device.of_disk disk in
  let g = Result.get_ok (Layout.compute ~nblocks ~ninodes:64 ~journal_len ()) in
  Journal.format raw g;
  let sim, dev = Crashsim.create raw in
  let tricky = Bytes.make bs 'z' in
  Bytes.set tricky 0 'J'; Bytes.set tricky 1 'R'; Bytes.set tricky 2 'N'; Bytes.set tricky 3 'L';
  (try
     let flush_budget = ref 1 in
     let dev' =
       {
         dev with
         Device.dev_flush =
           (fun () ->
             if !flush_budget = 0 then raise Exit;
             decr flush_budget;
             Device.flush dev);
       }
     in
     let j = attach_exn dev' g in
     let txn = Journal.begin_txn j in
     Journal.txn_write txn (data_blk g 0) tricky;
     Journal.commit j txn
   with Exit -> ());
  Crashsim.crash sim;
  (match Journal.replay raw g with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "expected 1 txn, replayed %d" n
  | Error msg -> Alcotest.failf "replay: %s" msg);
  Alcotest.(check bool) "escaped block restored with magic" true
    (Bytes.equal (Disk.read disk (data_blk g 0)) tricky)

let test_many_commits_wrap () =
  (* More transactions than the journal region holds: the tail reset must
     kick in and everything must stay consistent. *)
  let disk, dev, g = setup ~journal_len:8 () in
  let j = attach_exn dev g in
  for i = 0 to 19 do
    let txn = Journal.begin_txn j in
    Journal.txn_write txn (data_blk g (i mod 4)) (block_of_char (Char.chr (Char.code 'a' + (i mod 26))));
    Journal.commit j txn
  done;
  Alcotest.(check bool) "tail resets happened" true ((Journal.stats j).Journal.tail_resets > 0);
  Alcotest.(check bool) "last value present" true
    (Bytes.equal (Disk.read disk (data_blk g 3)) (block_of_char 't'));
  Alcotest.(check (result int string)) "clean replay" (Ok 0) (Journal.replay dev g)

let test_journal_full () =
  let _disk, dev, g = setup ~journal_len:4 () in
  let j = attach_exn dev g in
  let txn = Journal.begin_txn j in
  for i = 0 to 9 do
    Journal.txn_write txn (data_blk g i) (block_of_char 'x')
  done;
  match Journal.commit j txn with
  | exception Journal.Journal_full _ -> ()
  | () -> Alcotest.fail "expected Journal_full"

let test_revoke_suppresses_replay () =
  (* txn1 writes block B; txn2 revokes B (freed).  Crash with both in the
     journal and no checkpoint: replay must NOT restore txn1's image of B. *)
  let nblocks = 512 and journal_len = 32 in
  let disk = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks () in
  let raw = Device.of_disk disk in
  let g = Result.get_ok (Layout.compute ~nblocks ~ninodes:64 ~journal_len ()) in
  Journal.format raw g;
  let target = data_blk g 0 in
  (* Make the journal superblock writes vanish: the tail never advances on
     the medium, so after the "crash" both transactions sit in the replay
     window even though they were fully checkpointed in memory. *)
  let fault = Fault.create [ Fault.Stuck_write { block = g.Layout.journal_start } ] in
  let dev = Fault.wrap fault raw in
  let j = attach_exn dev g in
  let txn1 = Journal.begin_txn j in
  Journal.txn_write txn1 target (block_of_char 'O');
  Journal.commit j txn1;
  let txn2 = Journal.begin_txn j in
  Journal.txn_write txn2 (data_blk g 1) (block_of_char 'M');
  Journal.txn_revoke txn2 target;
  Journal.commit j txn2;
  (* Overwrite the target on the medium to simulate its reuse as data. *)
  Disk.write disk target (block_of_char 'D');
  (match Journal.replay raw g with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "replay: %s" msg);
  Alcotest.(check bool) "revoked block not replayed" true
    (Bytes.equal (Disk.read disk target) (block_of_char 'D'));
  Alcotest.(check bool) "non-revoked write replayed" true
    (Bytes.equal (Disk.read disk (data_blk g 1)) (block_of_char 'M'))

let prop_commit_replay_equivalence =
  (* Random write batches: committing through the journal and crashing
     after the journal flush then replaying yields the same medium as
     committing without a crash. *)
  QCheck2.Test.make ~name:"crash+replay == direct commit" ~count:50
    QCheck2.Gen.(list_size (int_range 1 8) (pair (int_bound 19) (int_bound 25)))
    (fun writes ->
      let run ~crash =
        let nblocks = 512 and journal_len = 32 in
        let disk = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks () in
        let raw = Device.of_disk disk in
        let g = Result.get_ok (Layout.compute ~nblocks ~ninodes:64 ~journal_len ()) in
        Journal.format raw g;
        let sim, dev = Crashsim.create raw in
        (try
           let flush_budget = ref (if crash then 1 else max_int) in
           let dev' =
             {
               dev with
               Device.dev_flush =
                 (fun () ->
                   if !flush_budget = 0 then raise Exit;
                   decr flush_budget;
                   Device.flush dev);
             }
           in
           let j = attach_exn dev' g in
           let txn = Journal.begin_txn j in
           List.iter
             (fun (blk, c) ->
               Journal.txn_write txn (data_blk g blk) (block_of_char (Char.chr (Char.code 'a' + c))))
             writes;
           Journal.commit j txn
         with Exit -> ());
        if crash then Crashsim.crash sim else Device.flush dev;
        if crash then ignore (Result.get_ok (Journal.replay raw g));
        (* Compare only the data region: journal tail state may differ. *)
        List.init 20 (fun i -> Disk.read disk (data_blk g i))
      in
      let direct = run ~crash:false and recovered = run ~crash:true in
      List.for_all2 Bytes.equal direct recovered)

(* An image whose journal holds committed-but-undestaged transactions:
   commits run through a device that keeps the journal record writes but
   drops both the home-location writes and the journal superblock's tail
   advance — the on-medium state of a crash after the journal flush, so
   replay must destage everything.  Each txn makes a few writes with
   deliberate cross-txn overlap (so last-write-wins matters), sometimes a
   journal-magic collision (escape/unescape), and sometimes a revoke of
   an earlier-written block.  Returns the disk, the geometry and the
   committed txns as [(index, writes, revokes)]; eight txns of at most
   five writes fit the 64-block journal without a tail reset. *)
let undestaged_image ~seed ~ntxns =
  let nblocks = 512 and journal_len = 64 in
  let disk = Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks () in
  let raw = Device.of_disk disk in
  let g = Result.get_ok (Layout.compute ~nblocks ~ninodes:64 ~journal_len ()) in
  Journal.format raw g;
  let jlo = g.Layout.journal_start in
  let drop_homes =
    {
      raw with
      Device.dev_write =
        (fun b data -> if b > jlo && b < jlo + journal_len then Device.write raw b data);
    }
  in
  let j = attach_exn drop_homes g in
  let rng = Rae_util.Rng.create seed in
  let written = ref [] in
  let txns =
    List.init ntxns (fun k ->
        let txn = Journal.begin_txn j in
        let writes =
          List.init
            (1 + Rae_util.Rng.int rng 5)
            (fun _ ->
              let home = data_blk g (Rae_util.Rng.int rng 24) in
              let data = Bytes.make bs (Char.chr (Rae_util.Rng.int rng 256)) in
              if Rae_util.Rng.chance rng 0.2 then Bytes.blit_string "JRNL" 0 data 0 4;
              Journal.txn_write txn home data;
              written := home :: !written;
              (home, data))
        in
        let revokes =
          if Rae_util.Rng.chance rng 0.3 then begin
            let b = Rae_util.Rng.pick rng (Array.of_list !written) in
            Journal.txn_revoke txn b;
            [ b ]
          end
          else []
        in
        Journal.commit j txn;
        (k, writes, revokes))
  in
  (disk, g, txns)

(* The image replay must produce: per home block, the last committed
   write, unless a txn at the same or a later index revoked the block. *)
let last_write_wins txns =
  let revoked_at = Hashtbl.create 8 in
  List.iter (fun (k, _, revokes) -> List.iter (fun b -> Hashtbl.replace revoked_at b k) revokes) txns;
  let final = Hashtbl.create 32 in
  List.iter
    (fun (k, writes, _) ->
      List.iter
        (fun (home, data) ->
          match Hashtbl.find_opt revoked_at home with
          | Some r when r >= k -> ()
          | Some _ | None -> Hashtbl.replace final home data)
        writes)
    txns;
  final

let prop_replay_last_write_wins =
  QCheck2.Test.make ~name:"replay image = last-write-wins model" ~count:50
    QCheck2.Gen.(pair ui64 (int_range 1 8))
    (fun (seed, ntxns) ->
      let disk, g, txns = undestaged_image ~seed ~ntxns in
      let crashed = Disk.snapshot disk in
      (match Journal.replay (Device.of_disk disk) g with
      | Ok n when n = ntxns -> ()
      | Ok n -> QCheck2.Test.fail_reportf "replayed %d of %d txns (seed %Ld)" n ntxns seed
      | Error e -> QCheck2.Test.fail_reportf "replay failed: %s (seed %Ld)" e seed);
      let model = last_write_wins txns in
      (* Every block but the journal superblock, whose tail replay advances. *)
      Array.iteri
        (fun i before ->
          let want = Option.value (Hashtbl.find_opt model i) ~default:before in
          if i <> g.Layout.journal_start && not (Bytes.equal want (Disk.read disk i)) then
            QCheck2.Test.fail_reportf "block %d differs from the model (seed %Ld)" i seed)
        crashed;
      true)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rae_journal"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "format/attach" `Quick test_format_attach;
          Alcotest.test_case "attach unformatted" `Quick test_attach_unformatted;
        ] );
      ( "commit",
        [
          Alcotest.test_case "commit checkpoints" `Quick test_commit_checkpoints;
          Alcotest.test_case "empty commit no-op" `Quick test_empty_commit_noop;
          Alcotest.test_case "intra-txn supersede" `Quick test_txn_write_supersedes;
          Alcotest.test_case "overwrite keeps first-write order" `Quick
            test_txn_overwrite_keeps_first_write_order;
          Alcotest.test_case "revoke dedup" `Quick test_revoke_dedup;
          Alcotest.test_case "abort discards" `Quick test_abort_discards;
          Alcotest.test_case "journal full" `Quick test_journal_full;
          Alcotest.test_case "wraparound" `Quick test_many_commits_wrap;
          Alcotest.test_case "magic escaping" `Quick test_escaping;
        ] );
      ( "replay",
        [
          Alcotest.test_case "clean replay no-op" `Quick test_replay_clean_is_noop;
          Alcotest.test_case "crash after journal commit" `Quick test_crash_after_journal_commit;
          Alcotest.test_case "crash before journal flush" `Quick test_crash_before_journal_flush;
          Alcotest.test_case "escaping survives replay" `Quick test_escaping_survives_replay;
          Alcotest.test_case "revocation suppresses replay" `Quick test_revoke_suppresses_replay;
          q prop_commit_replay_equivalence;
          q prop_replay_last_write_wins;
        ] );
    ]
