(* lint_rfs: static-analysis gate over the repo's own typed ASTs
   (dune-emitted .cmt files).  Exit status 0 = clean, 1 = findings,
   2 = no cmt files readable / bad baseline.

   Run from the repo root after `dune build`, or via the dune alias:
     dune build @lint *)

open Cmdliner
module Lint = Rae_lint

let default_dirs () =
  if Sys.file_exists "_build/default/lib" then [ "_build/default/lib" ]
  else if Sys.file_exists "lib" then [ "lib" ]
  else [ "." ]

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let run dirs baseline_path write_baseline update_baseline format json_out metrics quiet =
  let dirs = if dirs = [] then default_dirs () else dirs in
  let baseline, bad_lines =
    match baseline_path with Some p -> Lint.Baseline.load p | None -> ([], [])
  in
  List.iter (Printf.eprintf "lint_rfs: malformed baseline line ignored: %s\n") bad_lines;
  (* When regenerating the baseline, run without suppression so current
     findings are captured verbatim. *)
  let regen = write_baseline || update_baseline in
  let effective_baseline = if regen then [] else baseline in
  match Lint.Engine.run ~baseline:effective_baseline ~dirs () with
  | Error msg ->
      Printf.eprintf "lint_rfs: %s\n" msg;
      exit 2
  | Ok result ->
      List.iter (Printf.eprintf "lint_rfs: skipped %s\n") result.Lint.Engine.skipped;
      if regen then begin
        let path = Option.value baseline_path ~default:"lint.baseline" in
        let next = Lint.Baseline.of_findings result.Lint.Engine.kept in
        write_file path (Lint.Baseline.to_string next);
        if update_baseline then begin
          let added, removed = Lint.Baseline.diff ~prev:baseline ~next in
          List.iter
            (fun e -> Printf.printf "lint_rfs: + %s\n" (Lint.Baseline.entry_to_line e))
            added;
          List.iter
            (fun e -> Printf.printf "lint_rfs: - %s\n" (Lint.Baseline.entry_to_line e))
            removed;
          Printf.printf "lint_rfs: baseline %s: %d entries (%d added, %d removed)\n" path
            (List.length next) (List.length added) (List.length removed)
        end
        else
          Printf.printf "lint_rfs: wrote %d entries to %s\n" (List.length result.Lint.Engine.kept)
            path;
        exit 0
      end;
      if not quiet then begin
        match format with
        | "sarif" ->
            print_endline (Lint.Sarif.to_string ~rules:Lint.Rules.all_rules result.Lint.Engine.kept)
        | _ -> List.iter (fun f -> print_endline (Lint.Finding.to_human f)) result.Lint.Engine.kept
      end;
      List.iter
        (fun e ->
          Printf.eprintf "lint_rfs: unused baseline entry: %s\n" (Lint.Baseline.entry_to_line e))
        result.Lint.Engine.unused;
      let s = result.Lint.Engine.stats in
      if (not quiet) && format <> "sarif" then
        Printf.printf
          "lint_rfs: %d findings (%d suppressed, %d unused baseline entries), %d rules over %d \
           units (%d cmt files) in %.3fs\n"
          s.Lint.Engine.findings s.Lint.Engine.suppressed s.Lint.Engine.unused_baseline
          s.Lint.Engine.rules_run s.Lint.Engine.units_loaded s.Lint.Engine.files_scanned
          s.Lint.Engine.wall_s;
      (match json_out with
      | None -> ()
      | Some "-" -> print_endline (Lint.Engine.to_json result)
      | Some path -> write_file path (Lint.Engine.to_json result ^ "\n"));
      if metrics then begin
        let registry = Rae_obs.Metrics.create () in
        Lint.Engine.register_obs registry s;
        print_string (Rae_obs.Metrics.to_prometheus registry)
      end;
      exit (if Lint.Engine.has_errors result then 1 else 0)

let dirs =
  Arg.(value & pos_all string [] & info [] ~docv:"DIR" ~doc:"Directories to scan for .cmt files.")

let baseline =
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE" ~doc:"Suppression baseline file.")

let write_baseline =
  Arg.(
    value & flag
    & info [ "write-baseline" ]
        ~doc:"Write current findings to the baseline file (default lint.baseline) and exit.")

let update_baseline =
  Arg.(
    value & flag
    & info [ "update-baseline" ]
        ~doc:
          "Regenerate the baseline file from current findings, printing a diff against the \
           previous contents, and exit.")

let format =
  Arg.(
    value
    & opt (enum [ ("human", "human"); ("sarif", "sarif") ]) "human"
    & info [ "format" ] ~docv:"FMT" ~doc:"Findings output format: $(b,human) or $(b,sarif).")

let json_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write findings and stats as JSON ('-' for stdout).")

let metrics =
  Arg.(value & flag & info [ "metrics" ] ~doc:"Print rae_obs metrics (Prometheus text) after the run.")

let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress human-readable output.")

let cmd =
  Cmd.v
    (Cmd.info "lint_rfs" ~doc:"Static-analysis safety gate for the shadow/base split")
    Term.(
      const run $ dirs $ baseline $ write_baseline $ update_baseline $ format $ json_out $ metrics
      $ quiet)

let () = exit (Cmd.eval cmd)
