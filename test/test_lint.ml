(* End-to-end tests for rae_lint: run the engine over the deliberately
   broken fixture library (test/lint_fixtures) and assert each rule
   fires at the expected file/line with the expected key, that the clean
   fixture stays clean, that the suppression baseline round-trips, and
   that the real tree under lib/ is lint-clean with an empty baseline. *)

open Rae_lint

(* The fixtures library plays the role of a read-path layer: it may see
   util/obs/vfs/block/format but not the journal, Bad_impure* units are
   purity roots, and Bad_swallow.Boom is the runtime-error signal.
   Bad_phase_order hosts a phase marker following the real declared
   phase order. *)
let fixture_config =
  let d = Lintcfg.default in
  {
    d with
    Lintcfg.libraries =
      ("lint_fixtures", [ "util"; "obs"; "vfs"; "block"; "format" ]) :: d.Lintcfg.libraries;
    purity_roots = [ "Lint_fixtures.Bad_impure" ];
    signal_exceptions = [ "Lint_fixtures.Bad_swallow.Boom" ];
    phase_protocols =
      ("Lint_fixtures.Bad_phase_order.phase", Lintcfg.default_phase_order) :: d.Lintcfg.phase_protocols;
  }

(* Tests run from _build/default/test; fall back for manual runs from
   the repo root. *)
let fixture_dir =
  if Sys.file_exists "lint_fixtures" then "lint_fixtures"
  else Filename.concat "test" "lint_fixtures"

let run_fixtures ?baseline () =
  match Engine.run ~config:fixture_config ?baseline ~dirs:[ fixture_dir ] () with
  | Error msg -> Alcotest.failf "fixture scan failed: %s" msg
  | Ok r -> r

let in_file name (f : Finding.t) = Filename.basename f.Finding.file = name
let with_rule rule (f : Finding.t) = String.equal f.Finding.rule rule

let hits rule file (r : Engine.result) =
  List.filter (fun f -> with_rule rule f && in_file file f) r.Engine.kept

let lines_of fs = List.sort_uniq compare (List.map (fun (f : Finding.t) -> f.Finding.line) fs)
let keys_of fs = List.sort_uniq compare (List.map (fun (f : Finding.t) -> f.Finding.key) fs)

(* ---- shadow-purity ---- *)

let test_purity_direct () =
  let r = run_fixtures () in
  match hits "shadow-purity" "bad_impure.ml" r with
  | [ f ] ->
      Alcotest.(check string) "sink key" "Rae_block.Device.write" f.Finding.key;
      Alcotest.(check int) "at scribble's definition" 6 f.Finding.line
  | fs -> Alcotest.failf "expected exactly one purity finding, got %d" (List.length fs)

let test_purity_transitive () =
  let r = run_fixtures () in
  match hits "shadow-purity" "bad_impure_indirect.ml" r with
  | [ f ] ->
      Alcotest.(check string) "sink key" "Rae_block.Device.write" f.Finding.key;
      Alcotest.(check int) "at sneaky's definition" 4 f.Finding.line;
      Alcotest.(check bool) "chain shows the hop through Bad_impure" true
        (let has s sub =
           let n = String.length sub in
           let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
           go 0
         in
         has f.Finding.message "sneaky" && has f.Finding.message "scribble")
  | fs -> Alcotest.failf "expected exactly one transitive finding, got %d" (List.length fs)

(* ---- no-swallow ---- *)

let test_swallow () =
  let r = run_fixtures () in
  let fs = hits "no-swallow" "bad_swallow.ml" r in
  Alcotest.(check (list int))
    "inline raise, call-reachable raise, match-exception" [ 9; 12; 15 ] (lines_of fs);
  Alcotest.(check (list string)) "all carry the signal key" [ "Lint_fixtures.Bad_swallow.Boom" ]
    (keys_of fs)

(* ---- persist-order ---- *)

let test_persist_bypass () =
  let r = run_fixtures () in
  match hits "persist-order" "bad_journal_bypass.ml" r with
  | [ f ] ->
      Alcotest.(check string) "bypass key" "journal-bypass:Rae_block.Device.write" f.Finding.key;
      Alcotest.(check int) "at the raw write" 5 f.Finding.line
  | fs -> Alcotest.failf "expected exactly one bypass finding, got %d" (List.length fs)

let test_persist_destage_order () =
  let r = run_fixtures () in
  let fs = hits "persist-order" "bad_destage_order.ml" r in
  Alcotest.(check (list string))
    "destage and barrier reorder both flagged"
    [ "destage-before-commit:Rae_block.Device.write"; "flush-before-commit:Rae_block.Device.flush" ]
    (keys_of fs);
  Alcotest.(check (list int)) "at the write and the flush" [ 10; 11 ] (lines_of fs)

(* ---- no-domain-spawn ---- *)

let test_domain_spawn () =
  let r = run_fixtures () in
  match hits "no-domain-spawn" "bad_domain_spawn.ml" r with
  | [ f ] ->
      Alcotest.(check string) "spawn key" "Stdlib.Domain.spawn" f.Finding.key;
      Alcotest.(check int) "at the spawn" 4 f.Finding.line
  | fs -> Alcotest.failf "expected exactly one no-domain-spawn finding, got %d" (List.length fs)

(* ---- phase-order ---- *)

let test_phase_order () =
  let r = run_fixtures () in
  let fs = hits "phase-order" "bad_phase_order.ml" r in
  Alcotest.(check (list string))
    "out-of-order phase and unknown phase"
    [ "phase-order:shadow-attach"; "unknown-phase:warp-core" ]
    (keys_of fs);
  Alcotest.(check (list int)) "at the offending marker calls" [ 11; 12 ] (lines_of fs)

(* The lint config declares the phase order as data (the lint library
   must not depend on rae_core); this pins it to the controller's
   actual phase_names so they cannot drift apart. *)
let test_phase_order_matches_controller () =
  Alcotest.(check (list string))
    "Lintcfg.default_phase_order = Controller.phase_names" Rae_core.Controller.phase_names
    Lintcfg.default_phase_order

(* ---- layering ---- *)

let test_layering () =
  let r = run_fixtures () in
  match hits "layering" "bad_layering.ml" r with
  | [ f ] -> Alcotest.(check string) "forbidden library" "journal" f.Finding.key
  | fs -> Alcotest.failf "expected exactly one layering finding, got %d" (List.length fs)

(* ---- poly-compare ---- *)

let test_poly_compare () =
  let r = run_fixtures () in
  let fs = hits "poly-compare" "bad_poly_compare.ml" r in
  Alcotest.(check (list int)) "(=), compare, List.sort compare" [ 8; 10; 12 ] (lines_of fs);
  Alcotest.(check (list string)) "on-disk types named"
    [ "Rae_format.Dirent.entry"; "Rae_format.Inode.t"; "Rae_format.Superblock.t" ]
    (keys_of fs)

(* ---- partial-call ---- *)

let test_partial () =
  let r = run_fixtures () in
  let fs = hits "partial-call" "bad_partial.ml" r in
  Alcotest.(check (list int)) "hd, tl, nth, get, find" [ 4; 6; 8; 10; 12 ] (lines_of fs);
  Alcotest.(check (list string)) "partial functions named"
    [
      "Stdlib.Hashtbl.find"; "Stdlib.List.hd"; "Stdlib.List.nth"; "Stdlib.List.tl";
      "Stdlib.Option.get";
    ]
    (keys_of fs)

(* ---- negative fixture ---- *)

let test_clean_fixture () =
  let r = run_fixtures () in
  let fs = List.filter (in_file "clean_ok.ml") r.Engine.kept in
  Alcotest.(check int) "no rule fires on clean_ok.ml" 0 (List.length fs)

(* ---- suppression baseline ---- *)

let test_baseline_roundtrip () =
  let r = run_fixtures () in
  Alcotest.(check bool) "fixtures do produce findings" true (r.Engine.kept <> []);
  let entries, bad = Baseline.parse (Baseline.to_string (Baseline.of_findings r.Engine.kept)) in
  Alcotest.(check (list string)) "serialized baseline has no malformed lines" [] bad;
  let r' = run_fixtures ~baseline:entries () in
  Alcotest.(check int) "every finding suppressed" 0 (List.length r'.Engine.kept);
  Alcotest.(check int) "nothing hidden twice or lost" (List.length r.Engine.kept)
    (List.length r'.Engine.hidden);
  Alcotest.(check int) "no unused entries" 0 (List.length r'.Engine.unused);
  Alcotest.(check bool) "suppressed run gates green" false (Engine.has_errors r')

let test_baseline_unused_and_malformed () =
  let stale = { Baseline.e_rule = "no-swallow"; e_file = "gone.ml"; e_key = "X" } in
  let kept, suppressed, unused = Baseline.apply [ stale ] [] in
  Alcotest.(check int) "nothing kept" 0 (List.length kept);
  Alcotest.(check int) "nothing suppressed" 0 (List.length suppressed);
  Alcotest.(check bool) "stale entry reported unused" true (unused = [ stale ]);
  let entries, bad = Baseline.parse "# comment\nrule only one field\n" in
  Alcotest.(check int) "malformed line rejected, not parsed" 0 (List.length entries);
  Alcotest.(check (list string)) "malformed line reported" [ "rule only one field" ] bad

(* ---- observability + JSON surface ---- *)

let test_stats_and_metrics () =
  let r = run_fixtures () in
  let s = r.Engine.stats in
  Alcotest.(check bool) "scanned some cmts" true (s.Engine.files_scanned > 0);
  Alcotest.(check int) "all eight rules ran" 8 s.Engine.rules_run;
  Alcotest.(check int) "by_rule covers every rule" 8 (List.length s.Engine.by_rule);
  let registry = Rae_obs.Metrics.create () in
  Engine.register_obs registry s;
  let prom = Rae_obs.Metrics.to_prometheus registry in
  let has sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length prom && (String.sub prom i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "findings counter exported" true (has "rae_lint_findings");
  Alcotest.(check bool) "wall-time gauge exported" true (has "rae_lint_wall_seconds");
  Alcotest.(check bool) "per-rule counter exported" true (has "rae_lint_findings_shadow_purity");
  let json = Engine.to_json r in
  Alcotest.(check bool) "json has stats" true (String.length json > 2 && json.[0] = '{');
  Alcotest.(check bool) "json names findings" true
    (let n = String.length "\"findings\"" in
     let rec go i = i + n <= String.length json && (String.sub json i n = "\"findings\"" || go (i + 1)) in
     go 0)

(* ---- the real tree ---- *)

let test_repo_is_clean () =
  (* When run under `dune runtest` the lib cmts exist (the @lint rule
     builds them); when the test binary is run in isolation they may
     not — treat that as a skip, not a failure. *)
  match Engine.run ~dirs:[ Filename.concat ".." "lib" ] () with
  | Error _ -> ()
  | Ok r ->
      List.iter (fun f -> Printf.eprintf "unexpected: %s\n" (Finding.to_human f)) r.Engine.kept;
      Alcotest.(check int) "lib/ is lint-clean with an empty baseline" 0
        (List.length r.Engine.kept)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "shadow-purity direct" `Quick test_purity_direct;
          Alcotest.test_case "shadow-purity transitive" `Quick test_purity_transitive;
          Alcotest.test_case "no-swallow" `Quick test_swallow;
          Alcotest.test_case "persist-order journal bypass" `Quick test_persist_bypass;
          Alcotest.test_case "persist-order destage/flush reorder" `Quick test_persist_destage_order;
          Alcotest.test_case "no-domain-spawn" `Quick test_domain_spawn;
          Alcotest.test_case "phase-order" `Quick test_phase_order;
          Alcotest.test_case "phase order pinned to controller" `Quick
            test_phase_order_matches_controller;
          Alcotest.test_case "layering" `Quick test_layering;
          Alcotest.test_case "poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "partial-call" `Quick test_partial;
          Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "round-trip" `Quick test_baseline_roundtrip;
          Alcotest.test_case "unused + malformed" `Quick test_baseline_unused_and_malformed;
        ] );
      ( "surface",
        [
          Alcotest.test_case "stats, metrics, json" `Quick test_stats_and_metrics;
          Alcotest.test_case "repo self-scan" `Quick test_repo_is_clean;
        ] );
    ]
