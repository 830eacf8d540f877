(* The benchmark harness: regenerates every table and figure of the paper
   (Table 1, Figure 1) and measures every quantitative design claim
   (experiments E3-E10 of DESIGN.md / EXPERIMENTS.md).

   Absolute numbers depend on the host; the *shapes* — who wins, by what
   factor, where the crossovers sit — are the reproduction targets. *)

open Rae_vfs
module Base = Rae_basefs.Base
module Bug_registry = Rae_basefs.Bug_registry
module Shadow = Rae_shadowfs.Shadow
module Controller = Rae_core.Controller
module Report = Rae_core.Report
module Spec = Rae_specfs.Spec
module Disk = Rae_block.Disk
module Device = Rae_block.Device
module Layout = Rae_format.Layout
module W = Rae_workload.Workload

let p = Path.parse_exn
let ok = Result.get_ok
let bs = Layout.block_size

let section title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '=') title (String.make 78 '=')

let subsection title = Printf.printf "\n--- %s ---\n" title

(* --quick: smoke-test scaling so the whole harness runs in seconds (the
   bench-smoke alias); shapes survive, absolute numbers are noise. *)
let quick = ref false
let sc n = if !quick then max 1 (n / 8) else n
let reps r = if !quick then 1 else r

(* Machine-readable results (--json <path>).  Each printed measurement that
   matters is also recorded as (section, sample, unit, value); the writer
   groups samples by section in first-appearance order.  Hand-rolled output:
   the container has no JSON library, and the value space is just ASCII
   names and finite floats. *)
let json_samples : (string * string * string * float) list ref = ref []
let json_note ~sec ~name ~unit v = json_samples := (sec, name, unit, v) :: !json_samples

(* One metrics-registry snapshot (Rae_obs.Metrics.to_json), captured by
   E-obs/b from a post-recovery controller, embedded next to the
   provenance block so a BENCH_*.json can be read cold. *)
let json_metrics : string option ref = ref None

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float v = if Float.is_finite v then Printf.sprintf "%.6g" v else "0"

(* BENCH_*.json files outlive the tree they were captured from, so embed
   enough provenance to read them cold: the git rev, a monotonic run id,
   and the configuration knobs the numbers depend on. *)
let git_rev () =
  let read_line path =
    try
      let ic = open_in path in
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      Some (String.trim line)
    with Sys_error _ -> None
  in
  let rec find dir depth =
    if depth > 8 then None
    else
      let head = Filename.concat dir (Filename.concat ".git" "HEAD") in
      match read_line head with
      | Some line ->
          let ref_prefix = "ref: " in
          if String.starts_with ~prefix:ref_prefix line then
            let r = String.sub line 5 (String.length line - 5) in
            read_line (Filename.concat dir (Filename.concat ".git" r))
          else Some line
      | None ->
          let parent = Filename.dirname dir in
          if parent = dir then None else find parent (depth + 1)
  in
  (* The bench may run from _build/default/bench (the bench-smoke alias):
     walk up until a .git appears. *)
  match find (Sys.getcwd ()) 0 with Some rev when rev <> "" -> rev | _ -> "unknown"

let json_config () =
  let c = Rae_basefs.Base.default_config in
  let pol = Rae_core.Controller.default_policy in
  Printf.sprintf
    "{ \"cache_policy\": \"%s\", \"bcache_capacity\": %d, \"icache_capacity\": %d, \
     \"dcache_capacity\": %d, \"commit_interval\": %d, \"ckpt_fold_interval\": %d }"
    (match c.Rae_basefs.Base.cache_policy with `Lru -> "lru" | `Two_q -> "2q")
    c.Rae_basefs.Base.bcache_capacity c.Rae_basefs.Base.icache_capacity
    c.Rae_basefs.Base.dcache_capacity c.Rae_basefs.Base.commit_interval
    pol.Rae_core.Controller.ckpt_fold_interval

let write_json path =
  let samples = List.rev !json_samples in
  let sections =
    List.fold_left
      (fun acc (sec, _, _, _) -> if List.mem sec acc then acc else acc @ [ sec ])
      [] samples
  in
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"bench\": \"rae-shadowfs\",\n  \"quick\": %b,\n" !quick;
  out "  \"rev\": \"%s\",\n" (json_escape (git_rev ()));
  (* Monotonic across runs on one host: wall-clock nanoseconds. *)
  out "  \"run_id\": %.0f,\n" (Unix.gettimeofday () *. 1e9);
  out "  \"config\": %s,\n" (json_config ());
  out "  \"metrics\": %s,\n" (match !json_metrics with Some m -> m | None -> "{}");
  out "  \"sections\": [\n";
  List.iteri
    (fun si sec ->
      out "    {\n      \"name\": \"%s\",\n      \"samples\": [\n" (json_escape sec);
      let mine = List.filter (fun (s, _, _, _) -> s = sec) samples in
      List.iteri
        (fun i (_, name, unit, v) ->
          out "        { \"name\": \"%s\", \"unit\": \"%s\", \"value\": %s }%s\n"
            (json_escape name) (json_escape unit) (json_float v)
            (if i = List.length mine - 1 then "" else ","))
        mine;
      out "      ]\n    }%s\n" (if si = List.length sections - 1 then "" else ","))
    sections;
  out "  ]\n}\n";
  close_out oc;
  Printf.printf "\nWrote %d samples in %d sections to %s\n" (List.length samples)
    (List.length sections) path

(* Median-of-reps wall timing (CPU seconds; the workloads are CPU-bound).
   One warmup run plus a compaction isolate each measurement from garbage
   left behind by earlier bench sections. *)
let time_runs ~reps f =
  ignore (f ());
  Gc.compact ();
  let samples =
    List.init reps (fun _ ->
        Gc.major ();
        let t0 = Sys.time () in
        f ();
        Sys.time () -. t0)
  in
  let sorted = List.sort compare samples in
  List.nth sorted (reps / 2)

(* Median-of-reps timing for competing arms whose results will be
   compared against each other.  Measuring each arm's reps back to back
   lets slow allocator/collector drift land entirely in the A-vs-B
   margin, so the reps are interleaved round-robin across the arms —
   drift then shifts all arms together and cancels in the paired
   comparison.  Returns the per-arm medians. *)
let time_interleaved ~reps fs =
  Array.iter (fun f -> f ()) fs;
  Gc.compact ();
  let samples = Array.map (fun _ -> ref []) fs in
  for _ = 1 to reps do
    Array.iteri
      (fun i f ->
        Gc.major ();
        let t0 = Sys.time () in
        f ();
        samples.(i) := (Sys.time () -. t0) :: !(samples.(i)))
      fs
  done;
  Array.map
    (fun s ->
      let sorted = List.sort compare !s in
      List.nth sorted (List.length sorted / 2))
    samples

(* Like [time_runs], but the measured function reports the simulated
   device time its run accrued.  Returns the median (combined, device)
   pair: combined = CPU + device time, the elapsed time of a synchronous
   single-threaded execution; device = the virtual-clock share alone, so
   --json can report simulated time separately from wall time. *)
let time_runs_with_device ~reps f =
  ignore (f ());
  Gc.compact ();
  let samples =
    List.init reps (fun _ ->
        Gc.major ();
        let t0 = Sys.time () in
        let device_ns = f () in
        let device = Int64.to_float device_ns /. 1e9 in
        (Sys.time () -. t0 +. device, device))
  in
  let sorted = List.sort compare samples in
  List.nth sorted (reps / 2)

let mk_disk ?(nblocks = 8192) () =
  Disk.create ~latency:Disk.zero_latency ~block_size:bs ~nblocks ()

let fresh_base ?config ?bugs ?(nblocks = 8192) () =
  let disk = mk_disk ~nblocks () in
  let dev = Device.of_disk disk in
  ignore (ok (Base.mkfs dev ~ninodes:1024 ()));
  (disk, dev, ok (Base.mount ?config ?bugs dev))

let fresh_shadow ?(checks = true) ?(fast_paths = true) ?(nblocks = 8192) () =
  let disk = mk_disk ~nblocks () in
  let dev = Device.of_disk disk in
  ignore (ok (Rae_format.Mkfs.format dev ~ninodes:1024 ()));
  let config = { Shadow.default_config with Shadow.checks; fast_paths } in
  (disk, ok (Shadow.attach ~config dev))

let run_ops exec fs ops = List.iter (fun op -> ignore (exec fs op)) ops

(* ---------------------------------------------------------------- *)
(* E1: Table 1                                                       *)
(* ---------------------------------------------------------------- *)

let e1_table1 () =
  section "E1 | Table 1: study of filesystem bugs (Linux ext4), 256 bugs since 2013";
  let corpus = Rae_bugstudy.Corpus.records () in
  let table = Rae_bugstudy.Study.table1 corpus in
  Format.printf "%a@." Rae_bugstudy.Study.pp_table1 table;
  Printf.printf
    "\nHeadline claims: %d/%d deterministic; %d/%d deterministic bugs cause\n\
     crashes or warnings that are detected as runtime errors.\n"
    (Rae_bugstudy.Study.cell_total table.Rae_bugstudy.Study.deterministic)
    (Rae_bugstudy.Study.grand_total table)
    (Rae_bugstudy.Study.detectable_deterministic table)
    (Rae_bugstudy.Study.cell_total table.Rae_bugstudy.Study.deterministic)

(* ---------------------------------------------------------------- *)
(* E2: Figure 1                                                      *)
(* ---------------------------------------------------------------- *)

let e2_fig1 () =
  section "E2 | Figure 1: number of deterministic bugs by year";
  let corpus = Rae_bugstudy.Corpus.records () in
  Format.printf "%a@." Rae_bugstudy.Study.pp_fig1 (Rae_bugstudy.Study.fig1 corpus)

(* ---------------------------------------------------------------- *)
(* E3: common-case performance, base vs shadow-style execution       *)
(* ---------------------------------------------------------------- *)

let e3_base_vs_shadow () =
  subsection
    "E3b | sustained workloads (simulated elapsed = CPU + device time, 10us rd / 20us wr)";
  Printf.printf
    "Caveat: the shadow never writes to the device and its overlay acts as an\n\
     unbounded in-memory cache with no durability, which flatters it on\n\
     write/fsync-heavy profiles; the micro table above is the per-op claim.\n";
  Printf.printf "%-12s %14s %14s %10s\n" "workload" "base (op/s)" "shadow (op/s)" "base adv.";
  let profiles = [ W.Varmail; W.Fileserver; W.Webserver; W.Metadata ] in
  List.iter
    (fun profile ->
      let ops = W.ops profile (Rae_util.Rng.create 42L) ~count:(sc 2000) in
      let n = float_of_int (List.length ops) in
      let base_t, base_sim =
        time_runs_with_device ~reps:(reps 2) (fun () ->
            let disk = Disk.create ~block_size:bs ~nblocks:8192 () in
            let dev = Device.of_disk disk in
            ignore (ok (Base.mkfs dev ~ninodes:1024 ()));
            let b = ok (Base.mount dev) in
            run_ops Base.exec b ops;
            Rae_util.Vclock.now (Disk.clock disk))
      in
      let shadow_t, shadow_sim =
        time_runs_with_device ~reps:(reps 2) (fun () ->
            let disk = Disk.create ~block_size:bs ~nblocks:8192 () in
            let dev = Device.of_disk disk in
            ignore (ok (Rae_format.Mkfs.format dev ~ninodes:1024 ()));
            let s = ok (Shadow.attach dev) in
            run_ops Shadow.exec s ops;
            Rae_util.Vclock.now (Disk.clock disk))
      in
      json_note ~sec:"E3" ~name:(W.profile_name profile ^ "/base") ~unit:"ops_per_s" (n /. base_t);
      json_note ~sec:"E3" ~name:(W.profile_name profile ^ "/shadow") ~unit:"ops_per_s"
        (n /. shadow_t);
      json_note ~sec:"E3" ~name:(W.profile_name profile ^ "/base-sim") ~unit:"s" base_sim;
      json_note ~sec:"E3" ~name:(W.profile_name profile ^ "/shadow-sim") ~unit:"s" shadow_sim;
      Printf.printf "%-12s %14.0f %14.0f %9.1fx\n" (W.profile_name profile) (n /. base_t)
        (n /. shadow_t) (shadow_t /. base_t))
    profiles;
  Printf.printf
    "\nExpected shape: since the PR 6 fast paths, the default shadow serves\n\
     cached lookups at or below the base's cost, and it issues no writes at\n\
     all (it is not a durable filesystem), so raw op/s comparisons flatter\n\
     it on write/fsync-heavy profiles.  The paper's base-vs-shadow asymmetry\n\
     — the shadow as the simple, slow, checks-everything implementation —\n\
     is preserved against the naive shadow; E-shadow-a carries that\n\
     comparison (naive micro-ops are tens to hundreds of us).\n"

(* Bechamel micro-benchmarks for the idempotent operations. *)
(* Runs the bechamel measurement and returns sorted (name, ns/op) rows.
   Called only from the forked child in [e3_micro]. *)
let e3_micro_measure () =
  let open Bechamel in
  let open Bechamel.Toolkit in
  let _, _, base = fresh_base () in
  let _, shadow = fresh_shadow () in
  let setup exec fs =
    ignore (exec fs (Op.Mkdir (p "/a", 0o755)));
    ignore (exec fs (Op.Mkdir (p "/a/b", 0o755)));
    ignore (exec fs (Op.Create (p "/a/b/leaf", 0o644)));
    ignore (exec fs (Op.Open (p "/a/b/leaf", Types.flags_rw)));
    ignore (exec fs (Op.Pwrite (0, 0, String.make 8192 'x')));
    ignore (exec fs Op.Sync)
  in
  setup Base.exec base;
  setup Shadow.exec shadow;
  let tests =
    [
      Test.make ~name:"base/lookup" (Staged.stage (fun () -> Base.lookup base (p "/a/b/leaf")));
      Test.make ~name:"shadow/lookup" (Staged.stage (fun () -> Shadow.lookup shadow (p "/a/b/leaf")));
      Test.make ~name:"base/stat" (Staged.stage (fun () -> Base.stat base (p "/a/b/leaf")));
      Test.make ~name:"shadow/stat" (Staged.stage (fun () -> Shadow.stat shadow (p "/a/b/leaf")));
      Test.make ~name:"base/pread-4k" (Staged.stage (fun () -> Base.pread base 0 ~off:0 ~len:4096));
      Test.make ~name:"shadow/pread-4k"
        (Staged.stage (fun () -> Shadow.pread shadow 0 ~off:0 ~len:4096));
      Test.make ~name:"base/readdir" (Staged.stage (fun () -> Base.readdir base (p "/a/b")));
      Test.make ~name:"shadow/readdir" (Staged.stage (fun () -> Shadow.readdir shadow (p "/a/b")));
    ]
  in
  let grouped = Test.make_grouped ~name:"micro" tests in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second (if !quick then 0.02 else 0.25)) ~kde:None ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) results [] |> List.sort compare in
  List.map
    (fun name ->
      match Analyze.OLS.estimates (Hashtbl.find results name) with
      | Some (est :: _) -> (name, Some est)
      | Some [] | None -> (name, None))
    names

let e3_micro () =
  section "E3 | Figure 2 (design): common-case performance, base vs shadow execution";
  subsection "E3a | micro-operations, warm caches (bechamel OLS estimate, ns/op)";
  (* A bechamel run corrupts the OCaml 5.1 runtime's GC accounting:
     afterwards Gc.stat reports a zero-word heap and the major collector
     stops completing cycles, so every later allocation-heavy section
     accumulates unswept garbage (the crash sweep ran 30-60x slower with
     RSS in the gigabytes).  Quarantine the measurement in a forked
     child and read the estimates back over a pipe — the damaged
     runtime dies with the child. *)
  flush stdout;
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc (e3_micro_measure ()) [];
      flush oc;
      Unix._exit 0
  | child ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let rows : (string * float option) list = Marshal.from_channel ic in
      close_in ic;
      ignore (Unix.waitpid [] child);
      List.iter
        (fun (name, est) ->
          match est with
          | Some est ->
              json_note ~sec:"E3" ~name ~unit:"ns_per_op" est;
              Printf.printf "%-24s %12.0f ns/op\n" name est
          | None -> Printf.printf "%-24s %12s\n" name "n/a")
        rows

(* ---------------------------------------------------------------- *)
(* E4: operation-recording overhead                                  *)
(* ---------------------------------------------------------------- *)

let e4_record_overhead () =
  section "E4 | RAE common-path overhead: operation recording on vs off";
  Printf.printf "%-12s %14s %14s %10s\n" "workload" "raw base" "base+RAE" "overhead";
  List.iter
    (fun profile ->
      let ops = W.ops profile (Rae_util.Rng.create 7L) ~count:(sc 2000) in
      let n = float_of_int (List.length ops) in
      let raw_t =
        time_runs ~reps:(reps 3) (fun () ->
            let _, _, b = fresh_base () in
            run_ops Base.exec b ops)
      in
      let rae_t =
        time_runs ~reps:(reps 3) (fun () ->
            let _, dev, b = fresh_base () in
            let ctl = Controller.make ~device:dev b in
            run_ops Controller.exec ctl ops)
      in
      json_note ~sec:"E4" ~name:(W.profile_name profile ^ "/raw") ~unit:"ops_per_s" (n /. raw_t);
      json_note ~sec:"E4" ~name:(W.profile_name profile ^ "/rae") ~unit:"ops_per_s" (n /. rae_t);
      Printf.printf "%-12s %12.0f/s %12.0f/s %9.1f%%\n" (W.profile_name profile) (n /. raw_t)
        (n /. rae_t)
        ((rae_t -. raw_t) /. raw_t *. 100.))
    [ W.Varmail; W.Fileserver; W.Metadata ];
  Printf.printf
    "\nExpected shape: recording is an in-memory append; overhead within a few\n\
     percent (measurement noise dominates at these run lengths).\n"

(* ---------------------------------------------------------------- *)
(* E5: recovery latency vs recorded-window length                    *)
(* ---------------------------------------------------------------- *)

(* One recovery measurement: run [window] commit-free metadata ops under a
   controller with [policy], trip a deterministic panic, and report the
   recovery along with simulated device time and device reads.  Shared by
   E5 (latency-vs-window, both arms) and E-ckpt (the speedup floor). *)
let recovery_run ~policy window =
  let bugs =
    Bug_registry.arm
      [
        {
          Bug_registry.id = "bench-panic";
          determinism = Bug_registry.Deterministic;
          trigger = Bug_registry.Path_component "trigger";
          consequence = Bug_registry.Panic;
          modeled_after = "bench";
        };
      ]
  in
  (* Simulated device latency on, so recovery has a virtual-clock cost
     (journal replay + shadow reads) alongside the CPU cost. *)
  let disk = Disk.create ~latency:Disk.default_latency ~block_size:bs ~nblocks:8192 () in
  let dev, counts = Device.counting (Device.of_disk disk) in
  ignore (ok (Base.mkfs dev ~ninodes:1024 ~journal_len:1024 ()));
  let b =
    ok (Base.mount ~config:{ Base.default_config with Base.commit_interval = max_int } ~bugs dev)
  in
  let ctl = Controller.make ~policy ~device:dev b in
  let ops = W.ops W.Metadata (Rae_util.Rng.create 3L) ~count:window in
  let ops = List.filter (fun op -> not (Op.is_sync op)) ops in
  run_ops Controller.exec ctl ops;
  (* The recovery wall time below must not absorb a major collection of
     garbage left by the setup ops or by earlier bench sections. *)
  Gc.full_major ();
  let reads_before, _ = counts () in
  let sim_before = Rae_util.Vclock.now (Disk.clock disk) in
  ignore (Controller.exec ctl (Op.Create (p "/trigger", 0o644)));
  let sim_ms =
    Int64.to_float (Int64.sub (Rae_util.Vclock.now (Disk.clock disk)) sim_before) /. 1e6
  in
  let reads_after, _ = counts () in
  (Controller.last_recovery ctl, sim_ms, reads_after - reads_before, List.length ops)

let ckpt_policy = { Controller.default_policy with Controller.ckpt_enabled = true }

let e5_recovery_latency () =
  section "E5 | Recovery latency vs in-flight window (paper 4.3: time to recover)";
  Printf.printf "%-8s %12s %12s %12s %10s %10s %14s\n" "window" "recovery" "ckpt-wall" "simulated"
    "replayed" "handoff" "device reads";
  List.iter
    (fun window ->
      let cold, sim_ms, reads, nops = recovery_run ~policy:Controller.default_policy window in
      let warm, _, _, _ = recovery_run ~policy:ckpt_policy window in
      match (cold, warm) with
      | Some r, Some rc ->
          Printf.printf "%-8d %10.2fms %10.2fms %10.2fms %10d %10d %14d\n" nops
            (r.Report.r_wall_seconds *. 1000.)
            (rc.Report.r_wall_seconds *. 1000.)
            sim_ms r.Report.r_replayed r.Report.r_handoff_blocks reads;
          let w = string_of_int window in
          json_note ~sec:"E5" ~name:("window-" ^ w ^ "/wall") ~unit:"ms"
            (r.Report.r_wall_seconds *. 1000.);
          json_note ~sec:"E5" ~name:("window-" ^ w ^ "/ckpt-wall") ~unit:"ms"
            (rc.Report.r_wall_seconds *. 1000.);
          json_note ~sec:"E5" ~name:("window-" ^ w ^ "/sim") ~unit:"ms" sim_ms;
          json_note ~sec:"E5" ~name:("window-" ^ w ^ "/replayed") ~unit:"ops"
            (float_of_int r.Report.r_replayed);
          json_note ~sec:"E5" ~name:("window-" ^ w ^ "/ckpt-replayed") ~unit:"ops"
            (float_of_int rc.Report.r_replayed)
      | _ -> Printf.printf "%-8d (no recovery?)\n" window)
    (if !quick then [ 8; 32; 128 ] else [ 8; 16; 32; 64; 128; 256; 512; 1024 ]);
  Printf.printf
    "\nExpected shape: cold recovery time grows roughly linearly with the recorded\n\
     window (constrained-mode replay dominates); the checkpoint arm replays only\n\
     the suffix past the last fold, so its wall time stays near-flat (E-ckpt\n\
     enforces the floor).\n"

(* ---------------------------------------------------------------- *)
(* E-ckpt: warm-shadow checkpointing, the O(window) -> O(delta) claim *)
(* ---------------------------------------------------------------- *)

let e_ckpt () =
  section "E-ckpt | Warm-shadow checkpointing: recovery replays O(delta), not O(window)";
  Printf.printf "%-8s %12s %12s %9s %11s %11s %8s\n" "window" "cold-wall" "ckpt-wall" "speedup"
    "replayed" "d-replayed" "seeded";
  let floor_violations = ref [] in
  (* Each recovery is a single event on freshly built state, so one
     stray scheduler hiccup or GC slice lands squarely in the number:
     take the best of a few full rebuild+recover rounds per arm. *)
  let best_recovery ~policy window =
    let rounds = if !quick then 1 else 3 in
    let best = ref None in
    for _ = 1 to rounds do
      match recovery_run ~policy window with
      | Some r, _, _, _ -> (
          match !best with
          | Some b when b.Report.r_wall_seconds <= r.Report.r_wall_seconds -> ()
          | _ -> best := Some r)
      | None, _, _, _ -> ()
    done;
    !best
  in
  List.iter
    (fun window ->
      let cold = best_recovery ~policy:Controller.default_policy window in
      let warm = best_recovery ~policy:ckpt_policy window in
      match (cold, warm) with
      | Some r, Some rc ->
          let speedup =
            if rc.Report.r_wall_seconds > 0. then r.Report.r_wall_seconds /. rc.Report.r_wall_seconds
            else Float.infinity
          in
          Printf.printf "%-8d %10.2fms %10.2fms %8.1fx %11d %11d %8b\n" window
            (r.Report.r_wall_seconds *. 1000.)
            (rc.Report.r_wall_seconds *. 1000.)
            speedup r.Report.r_replayed rc.Report.r_replayed rc.Report.r_seeded;
          let w = string_of_int window in
          json_note ~sec:"E-ckpt" ~name:("window-" ^ w ^ "/cold-wall") ~unit:"ms"
            (r.Report.r_wall_seconds *. 1000.);
          json_note ~sec:"E-ckpt" ~name:("window-" ^ w ^ "/ckpt-wall") ~unit:"ms"
            (rc.Report.r_wall_seconds *. 1000.);
          json_note ~sec:"E-ckpt" ~name:("window-" ^ w ^ "/speedup") ~unit:"x" speedup;
          if not rc.Report.r_seeded then
            floor_violations :=
              Printf.sprintf "window %d: checkpoint arm did not seed" window :: !floor_violations;
          if window >= 64 && speedup < 2.0 then
            floor_violations :=
              Printf.sprintf "window %d: speedup %.2fx < 2x" window speedup :: !floor_violations
      | _ -> floor_violations := Printf.sprintf "window %d: no recovery" window :: !floor_violations)
    (if !quick then [ 64 ] else [ 64; 256; 1024 ]);
  if !floor_violations <> [] then begin
    List.iter (fun v -> Printf.eprintf "E-ckpt: %s\n" v) (List.rev !floor_violations);
    exit 1
  end;
  Printf.printf
    "\nExpected shape: the checkpoint arm seeds the shadow from the warm overlay\n\
     and replays only the ops past the fold cursor, so its wall time is bounded\n\
     by the fold interval while the cold arm pays fsck + O(window) replay;\n\
     >=2x at window>=64 is the enforced floor.\n"

(* ---------------------------------------------------------------- *)
(* E-shadow: the fast path — caches, hints and batching vs naive     *)
(* ---------------------------------------------------------------- *)

(* Both arms run in this process on the same images, so the speedup is a
   host-independent shape (same local-replication scheme as E-alloc and
   E-txn): [fast_paths=false] is the seed's literal walk-and-scan
   execution, [fast_paths=true] the cached one, property-tested
   equivalent in test_shadowfs. *)
let e_shadow () =
  section "E-shadow | shadow fast path: resolution caches, alloc hints, batched folds";
  let naive_config = { Shadow.default_config with Shadow.fast_paths = false } in
  let fresh_with config =
    let disk = mk_disk () in
    let dev = Device.of_disk disk in
    ignore (ok (Rae_format.Mkfs.format dev ~ninodes:1024 ()));
    (disk, ok (Shadow.attach ~config dev))
  in
  let floor_violations = ref [] in

  subsection "E-shadow-a | micro-operations, fast vs naive (>=5x floor enforced)";
  let micro_setup sh =
    ignore (ok (Shadow.mkdir sh (p "/a") ~mode:0o755));
    ignore (ok (Shadow.mkdir sh (p "/a/b") ~mode:0o755));
    ignore (ok (Shadow.create sh (p "/a/b/leaf") ~mode:0o644));
    let fd = ok (Shadow.openf sh (p "/a/b/leaf") Types.flags_rw) in
    ignore (ok (Shadow.pwrite sh fd ~off:0 (String.make 8192 'x')))
  in
  let _, fast = fresh_with Shadow.default_config in
  let _, naive = fresh_with naive_config in
  micro_setup fast;
  micro_setup naive;
  let leaf = p "/a/b/leaf" and dir = p "/a/b" in
  let iters = sc 50_000 in
  let measure sh op =
    time_runs ~reps:(reps 3) (fun () ->
        match op with
        | `Lookup -> for _ = 1 to iters do ignore (Shadow.lookup sh leaf) done
        | `Stat -> for _ = 1 to iters do ignore (Shadow.stat sh leaf) done
        | `Readdir -> for _ = 1 to iters do ignore (Shadow.readdir sh dir) done)
  in
  Printf.printf "%-10s %12s %12s %9s\n" "op" "naive ns/op" "fast ns/op" "speedup";
  List.iter
    (fun (name, op) ->
      let t_naive = measure naive op and t_fast = measure fast op in
      let per t = t /. float_of_int iters *. 1e9 in
      let speedup = if t_fast > 0. then t_naive /. t_fast else Float.infinity in
      Printf.printf "%-10s %12.0f %12.0f %8.1fx\n" name (per t_naive) (per t_fast) speedup;
      json_note ~sec:"E-shadow" ~name:("micro/" ^ name ^ "-naive") ~unit:"ns_per_op" (per t_naive);
      json_note ~sec:"E-shadow" ~name:("micro/" ^ name ^ "-fast") ~unit:"ns_per_op" (per t_fast);
      json_note ~sec:"E-shadow" ~name:("micro/" ^ name ^ "-speedup") ~unit:"x" speedup;
      if speedup < 5.0 then
        floor_violations :=
          Printf.sprintf "micro %s: speedup %.2fx < 5x" name speedup :: !floor_violations)
    [ ("lookup", `Lookup); ("stat", `Stat); ("readdir", `Readdir) ];

  subsection "E-shadow-b | sustained shadow workloads, fast vs naive";
  Printf.printf "%-12s %14s %14s %9s\n" "workload" "naive (op/s)" "fast (op/s)" "speedup";
  List.iter
    (fun profile ->
      let ops = W.ops profile (Rae_util.Rng.create 42L) ~count:(sc 2000) in
      let n = float_of_int (List.length ops) in
      let run config =
        time_runs ~reps:(reps 2) (fun () ->
            let _, sh = fresh_with config in
            run_ops Shadow.exec sh ops)
      in
      let t_naive = run naive_config and t_fast = run Shadow.default_config in
      let speedup = if t_fast > 0. then t_naive /. t_fast else Float.infinity in
      Printf.printf "%-12s %14.0f %14.0f %8.1fx\n" (W.profile_name profile) (n /. t_naive)
        (n /. t_fast) speedup;
      json_note ~sec:"E-shadow" ~name:(W.profile_name profile ^ "/naive") ~unit:"ops_per_s"
        (n /. t_naive);
      json_note ~sec:"E-shadow" ~name:(W.profile_name profile ^ "/fast") ~unit:"ops_per_s"
        (n /. t_fast);
      json_note ~sec:"E-shadow" ~name:(W.profile_name profile ^ "/speedup") ~unit:"x" speedup)
    [ W.Varmail; W.Fileserver; W.Metadata ];

  subsection "E-shadow-c | hot-path fold overhead, ckpt_fold_interval=8 vs ckpt off";
  (* The fold executes every recorded op a second time on the warm
     shadow, so on a zero-latency device its overhead is bounded below by
     shadow-op cost / base-op cost.  Two profiles bracket the range:
     Metadata is all mutations (worst case — nothing in the replay is a
     cheap cached read), Varmail is the realistic serving mix.  The naive
     column folds with [ckpt_fast_paths = false], pricing the same fold
     before the fast-path work. *)
  Printf.printf "%-10s %12s %14s %14s %10s %10s\n" "workload" "off (op/s)" "fold8-naive"
    "fold8-fast" "naive ovh" "fast ovh";
  List.iter
    (fun profile ->
      let ops = W.ops profile (Rae_util.Rng.create 9L) ~count:(sc 8000) in
      let n = float_of_int (List.length ops) in
      let fold8 = { ckpt_policy with Controller.ckpt_fold_interval = 8 } in
      (* The floors below compare arms of this table against each other,
         so the reps are interleaved (see [time_interleaved]). *)
      let one policy () =
        let _, dev, b = fresh_base () in
        let ctl = Controller.make ~policy ~device:dev b in
        run_ops Controller.exec ctl ops
      in
      let medians =
        time_interleaved ~reps:(reps 5)
          [|
            one Controller.default_policy;
            one { fold8 with Controller.ckpt_fast_paths = false };
            one fold8;
          |]
      in
      let t_off = medians.(0) and t_naive = medians.(1) and t_fast = medians.(2) in
      let ovh t = (t -. t_off) /. t_off *. 100. in
      let pname = W.profile_name profile in
      Printf.printf "%-10s %12.0f %14.0f %14.0f %+9.1f%% %+9.1f%%\n" pname (n /. t_off)
        (n /. t_naive) (n /. t_fast) (ovh t_naive) (ovh t_fast);
      json_note ~sec:"E-shadow" ~name:("fold8/" ^ pname ^ "/off") ~unit:"ops_per_s" (n /. t_off);
      json_note ~sec:"E-shadow" ~name:("fold8/" ^ pname ^ "/naive") ~unit:"ops_per_s" (n /. t_naive);
      json_note ~sec:"E-shadow" ~name:("fold8/" ^ pname ^ "/fast") ~unit:"ops_per_s" (n /. t_fast);
      json_note ~sec:"E-shadow" ~name:("fold8/" ^ pname ^ "/overhead-naive") ~unit:"pct"
        (ovh t_naive);
      json_note ~sec:"E-shadow" ~name:("fold8/" ^ pname ^ "/overhead-fast") ~unit:"pct"
        (ovh t_fast);
      (* Shape floors.  Folding re-executes every op on the warm shadow,
         so overhead is bounded below by shadow-cost/base-cost and can
         never be literally free on a zero-latency device.  What the fast
         path must deliver: (a) on the all-mutation worst case — where
         the replay is pure shadow-mutation work — strictly less overhead
         than the naive fold (measured +16–35% vs +49–71% across runs);
         (b) on every profile, overhead within 10pp of the naive fold's
         (on the lighter varmail mix the shared fold bookkeeping
         dominates, leaving fast only a few points below naive).
         Both floors compare two noisy arms of the same run, so they are
         meaningless at --quick scale (1/8 ops, single rep) and only
         enforced on full runs; the large-margin micro floors above guard
         the smoke run. *)
      let worst_case = match profile with W.Metadata -> true | _ -> false in
      if (not !quick) && worst_case && ovh t_fast >= ovh t_naive then
        floor_violations :=
          Printf.sprintf "fold8 %s: fast overhead %+.1f%% not below naive %+.1f%%" pname
            (ovh t_fast) (ovh t_naive)
          :: !floor_violations;
      if (not !quick) && ovh t_fast > ovh t_naive +. 10. then
        floor_violations :=
          Printf.sprintf "fold8 %s: fast overhead %+.1f%% worse than naive %+.1f%%" pname
            (ovh t_fast) (ovh t_naive)
          :: !floor_violations)
    [ W.Metadata; W.Varmail ];

  subsection "E-shadow-d | chunked file contents: append, O(chunk) vs O(file) splice";
  let module Chunked = Rae_specfs.Chunked in
  let appends = sc 2000 in
  let piece = String.make 256 'z' in
  (* The seed representation, replicated locally: contents as one flat
     string, every write re-copies the whole file to splice. *)
  let naive_splice s ~off data =
    let len = String.length data in
    let b = Bytes.make (max (String.length s) (off + len)) '\000' in
    Bytes.blit_string s 0 b 0 (String.length s);
    Bytes.blit_string data 0 b off len;
    Bytes.unsafe_to_string b
  in
  let t_string =
    time_runs ~reps:(reps 3) (fun () ->
        let s = ref "" in
        for i = 0 to appends - 1 do
          s := naive_splice !s ~off:(i * 256) piece
        done)
  in
  let t_chunked =
    time_runs ~reps:(reps 3) (fun () ->
        let c = ref Chunked.empty in
        for i = 0 to appends - 1 do
          c := Chunked.write !c ~off:(i * 256) piece
        done)
  in
  let speedup = if t_chunked > 0. then t_string /. t_chunked else Float.infinity in
  Printf.printf "%d appends of 256 B:\n" appends;
  Printf.printf "  flat-string splice: %10.0f appends/s\n" (float_of_int appends /. t_string);
  Printf.printf "  chunked contents  : %10.0f appends/s  (%.1fx)\n"
    (float_of_int appends /. t_chunked)
    speedup;
  json_note ~sec:"E-shadow" ~name:"append/string" ~unit:"appends_per_s"
    (float_of_int appends /. t_string);
  json_note ~sec:"E-shadow" ~name:"append/chunked" ~unit:"appends_per_s"
    (float_of_int appends /. t_chunked);
  json_note ~sec:"E-shadow" ~name:"append/speedup" ~unit:"x" speedup;

  if !floor_violations <> [] then begin
    List.iter (fun v -> Printf.eprintf "E-shadow: %s\n" v) (List.rev !floor_violations);
    exit 1
  end;
  Printf.printf
    "\nExpected shape: the cached walk resolves from the generation-guarded path\n\
     cache and per-directory index instead of re-reading and re-checking every\n\
     block on the path, so micro-ops gain >=5x (enforced); sustained workloads\n\
     gain a smaller multiple (mutations still pay full validation).  The fold\n\
     replays every recorded op once on the warm shadow, so on a zero-latency\n\
     in-memory device its overhead has a hard floor of shadow-cost/base-cost\n\
     — it can never be literally free here, only on devices whose I/O\n\
     latency dwarfs the shadow's in-memory replay.  Enforced shape (full\n\
     runs): on the all-mutation worst case (metadata) the fast fold costs\n\
     strictly less than the naive fold, and on no profile is it more than\n\
     10pp worse.  Chunked appends stop re-copying the file.\n"

(* ---------------------------------------------------------------- *)
(* E6: the cost of extensive runtime checks                          *)
(* ---------------------------------------------------------------- *)

let e6_check_cost () =
  section "E6 | Extensive runtime checks: affordable for the shadow, not the base";
  let ops = W.ops W.Metadata (Rae_util.Rng.create 5L) ~count:(sc 6000) in
  let n = float_of_int (List.length ops) in
  (* Both tables here are on/off A-vs-B comparisons, so the reps are
     interleaved (see [time_interleaved]). *)
  let shadow_arm checks () =
    let _, s = fresh_shadow ~checks () in
    run_ops Shadow.exec s ops
  in
  let medians =
    time_interleaved ~reps:(reps 5) [| shadow_arm true; shadow_arm false |]
  in
  let with_checks = medians.(0) and without_checks = medians.(1) in
  let _, counted = fresh_shadow ~checks:true () in
  run_ops Shadow.exec counted ops;
  Printf.printf "shadow, checks ON : %10.0f op/s\n" (n /. with_checks);
  Printf.printf "shadow, checks OFF: %10.0f op/s\n" (n /. without_checks);
  Printf.printf "check slowdown    : %10.1f%%  (%d checks executed)\n"
    ((with_checks -. without_checks) /. without_checks *. 100.)
    (Shadow.checks_performed counted);
  let base_arm on () =
    let _, _, b =
      fresh_base ~config:{ Base.default_config with Base.validate_on_commit = on } ()
    in
    run_ops Base.exec b ops
  in
  let medians = time_interleaved ~reps:(reps 5) [| base_arm true; base_arm false |] in
  let v_on = medians.(0) and v_off = medians.(1) in
  Printf.printf "base, validate-on-commit ON : %10.0f op/s\n" (n /. v_on);
  Printf.printf "base, validate-on-commit OFF: %10.0f op/s (validation overhead %.1f%%)\n"
    (n /. v_off)
    ((v_on -. v_off) /. v_off *. 100.)

(* ---------------------------------------------------------------- *)
(* E7: dentry cache vs full-path walks                               *)
(* ---------------------------------------------------------------- *)

let e7_lookup_depth () =
  section "E7 | Path lookup vs depth: base (dentry cache) vs shadow (walk from root)";
  Printf.printf "%-8s %16s %16s %10s\n" "depth" "base (ns/op)" "shadow (ns/op)" "ratio";
  List.iter
    (fun depth ->
      let _, _, b = fresh_base () in
      (* The paper's claim is about the shadow that omits the dentry
         cache, i.e. the naive shadow; the default (fast-path) shadow
         carries a resolution cache that removes this asymmetry — its
         flat profile is measured in e-shadow. *)
      let _, s = fresh_shadow ~fast_paths:false () in
      let rec build exec fs prefix d =
        if d > 0 then begin
          let dir = prefix ^ "/d" in
          ignore (exec fs (Op.Mkdir (p dir, 0o755)));
          build exec fs dir (d - 1)
        end
        else ignore (exec fs (Op.Create (p (prefix ^ "/leaf"), 0o644)))
      in
      build Base.exec b "" depth;
      build Shadow.exec s "" depth;
      let leaf = p (String.concat "" (List.init depth (fun _ -> "/d")) ^ "/leaf") in
      let iters = sc 8000 in
      let tb =
        time_runs ~reps:(reps 2) (fun () ->
            for _ = 1 to iters do
              ignore (Base.lookup b leaf)
            done)
      in
      let ts =
        time_runs ~reps:(reps 2) (fun () ->
            for _ = 1 to iters do
              ignore (Shadow.lookup s leaf)
            done)
      in
      let per x = x /. float_of_int iters *. 1e9 in
      Printf.printf "%-8d %16.0f %16.0f %9.1fx\n" depth (per tb) (per ts) (ts /. tb))
    (if !quick then [ 1; 4; 16 ] else [ 1; 2; 4; 8; 16 ]);
  Printf.printf
    "\nExpected shape: both costs grow with depth, but the naive shadow pays\n\
     a full block read plus dirent scan per component (~us/component) while\n\
     the base's dentry cache reduces each component to a hash hit (~0.1\n\
     us/component) — a large, roughly depth-independent ratio.  The default\n\
     fast-path shadow resolves whole paths from its generation-guarded\n\
     cache and drops below the base (bench e-shadow).\n"

(* ---------------------------------------------------------------- *)
(* E8: end-to-end availability under injected bugs                   *)
(* ---------------------------------------------------------------- *)

let e8_availability () =
  section "E8 | Availability: injected bug classes masked under live workloads";
  let ids =
    [
      "dx-hash-panic";
      "extent-status-warn";
      "mballoc-freecount";
      "dirent-reclen-zero";
      "orphan-close-uaf";
      "fsync-deadlock";
    ]
  in
  Printf.printf "%-12s %8s %11s %12s %13s %11s\n" "workload" "ops" "recoveries" "mismatches"
    "app errors" "fsck";
  List.iter
    (fun profile ->
      let bugs =
        Bug_registry.arm ~rng:(Rae_util.Rng.create 9L) (List.filter_map Bug_registry.find ids)
      in
      let _, dev, b =
        fresh_base ~config:{ Base.default_config with Base.commit_interval = 16 } ~bugs ()
      in
      let ctl = Controller.make ~device:dev b in
      let sp = Spec.make () in
      let ops = W.ops profile (Rae_util.Rng.create 77L) ~count:(sc 1200) in
      let mismatches = ref 0 and eio = ref 0 in
      List.iter
        (fun op ->
          let want = Spec.exec sp op in
          let got = Controller.exec ctl op in
          if not (Op.outcome_equal want got) then incr mismatches;
          match got with Error Errno.EIO -> incr eio | _ -> ())
        ops;
      ignore (Controller.sync ctl);
      let clean = Rae_fsck.Fsck.clean (Rae_fsck.Fsck.check_device dev) in
      Printf.printf "%-12s %8d %11d %12d %13d %11s\n" (W.profile_name profile) (List.length ops)
        (Controller.stats ctl).Controller.recoveries !mismatches !eio
        (if clean then "clean" else "DIRTY"))
    W.all_profiles;
  Printf.printf
    "\nExpected shape: recoveries > 0, zero spec mismatches, zero app-visible EIO,\n\
     clean images — detected runtime errors fully masked (the availability claim).\n"

(* ---------------------------------------------------------------- *)
(* E9: the shadow as a post-error testing tool                       *)
(* ---------------------------------------------------------------- *)

let e9_cross_check () =
  section "E9 | Cross-checking: discrepancy detection (paper 4.3, post-error testing)";
  let run ~cross_check =
    let bugs =
      Bug_registry.arm ~rng:(Rae_util.Rng.create 9L)
        (List.filter_map Bug_registry.find [ "stat-size-skew"; "crafted-name-panic" ])
    in
    let _, dev, b = fresh_base ~bugs () in
    let policy = { Controller.default_policy with Controller.cross_check } in
    let ctl = Controller.make ~policy ~device:dev b in
    let fd = ok (Controller.openf ctl (p "/f") Types.flags_create) in
    ignore (ok (Controller.pwrite ctl fd ~off:0 "12345"));
    ignore (ok (Controller.close ctl fd));
    for _ = 1 to 20 do
      ignore (Controller.stat ctl (p "/f"))
    done;
    ignore (Controller.create ctl (p "/pwn") ~mode:0o644);
    List.length (Controller.discrepancies ctl)
  in
  Printf.printf "wrong-result bugs exposed with cross-check ON : %d discrepancy report(s)\n"
    (run ~cross_check:true);
  Printf.printf "wrong-result bugs exposed with cross-check OFF: %d discrepancy report(s)\n"
    (run ~cross_check:false);
  Printf.printf
    "\nExpected shape: the wrong-result bug (invisible to in-line detection) is\n\
     surfaced by constrained-mode cross-checking during an unrelated recovery.\n"

(* ---------------------------------------------------------------- *)
(* E10 ablation: block cache replacement policy (LRU vs 2Q)          *)
(* ---------------------------------------------------------------- *)

let e10_cache_policy () =
  section "E10 | Ablation: block cache policy (LRU vs 2Q) under hot-set + scan";
  Printf.printf
    "A small hot file is re-read between full scans of a large cold set; the\n\
     cache is sized so the scan footprint exceeds it.  2Q's probation queue\n\
     keeps scans from washing out the hot set.\n";
  let misses policy =
    let _, _, b =
      fresh_base
        ~config:{ Base.default_config with Base.cache_policy = policy; bcache_capacity = 24 }
        ()
    in
    (* Cold population: 600 files across one directory. *)
    let ncold = if !quick then 150 else 600 in
    for i = 0 to ncold - 1 do
      ignore (Base.exec b (Op.Create (p (Printf.sprintf "/cold%03d" i), 0o644)))
    done;
    let fd = ok (Base.openf b (p "/hot") Types.flags_create) in
    ignore (ok (Base.pwrite b fd ~off:0 (String.make 16384 'h')));
    ignore (ok (Base.sync b));
    (* Warm up, then measure. *)
    ignore (ok (Base.pread b fd ~off:0 ~len:16384));
    let s0 = Base.bcache_stats b in
    for _round = 1 to if !quick then 2 else 10 do
      for _ = 1 to 5 do
        ignore (ok (Base.pread b fd ~off:0 ~len:16384))
      done;
      for i = 0 to ncold - 1 do
        ignore (Base.exec b (Op.Stat (p (Printf.sprintf "/cold%03d" i))))
      done
    done;
    let s1 = Base.bcache_stats b in
    ( s1.Rae_cache.Lru.misses - s0.Rae_cache.Lru.misses,
      s1.Rae_cache.Lru.hits - s0.Rae_cache.Lru.hits )
  in
  let report name policy =
    let m, h = misses policy in
    Printf.printf "%-4s: %6d block-cache misses, %6d hits (hit rate %5.1f%%)\n" name m h
      (100. *. float_of_int h /. float_of_int (h + m))
  in
  report "LRU" `Lru;
  report "2Q" `Two_q;
  Printf.printf
    "\nFull-stack finding: the dentry and inode caches absorb most of the scan,\n\
     so at the block-cache level the policies converge — one reason the paper\n\
     calls these stacked caching policies hard to reason about.\n";
  subsection "E10b | the policies in isolation (synthetic hot-set + scan reference string)";
  let module K = struct
    type t = int

    let equal = Int.equal
    let hash = Hashtbl.hash
  end in
  let module L = Rae_cache.Lru.Make (K) in
  let module Q = Rae_cache.Two_q.Make (K) in
  let trace =
    (* 8-page hot set re-referenced between 128-page scans, 50 rounds. *)
    List.concat
      (List.init 50 (fun round ->
           List.init 8 Fun.id @ List.init 8 Fun.id
           @ List.init 128 (fun i -> 1000 + (round * 128) + i)))
  in
  let run find put =
    let hits = ref 0 in
    List.iter
      (fun k ->
        match find k with
        | Some _ -> incr hits
        | None -> put k ())
      trace;
    100. *. float_of_int !hits /. float_of_int (List.length trace)
  in
  let l = L.create ~capacity:32 () in
  let lru_rate = run (L.find l) (L.put l) in
  let q = Q.create ~capacity:32 ~kout_ratio:8.0 () in
  let twoq_rate = run (Q.find q) (Q.put q) in
  Printf.printf "LRU hit rate: %5.1f%%\n2Q  hit rate: %5.1f%%\n" lru_rate twoq_rate;
  Printf.printf "Expected shape: 2Q retains the hot set across scans; LRU does not.\n"

(* ---------------------------------------------------------------- *)
(* E11: RAE vs the restart-only baseline                             *)
(* ---------------------------------------------------------------- *)

let e11_vs_restart_only () =
  section "E11 | RAE vs restart-only recovery (the paper's crash-and-recover baseline)";
  let ids = [ "dx-hash-panic"; "orphan-close-uaf"; "fsync-deadlock" ] in
  Printf.printf "%-14s %-10s %11s %12s %11s %10s\n" "workload" "mode" "recoveries" "mismatches"
    "app EIO" "lost ops";
  List.iter
    (fun profile ->
      let ops = W.ops profile (Rae_util.Rng.create 77L) ~count:(sc 1200) in
      let measure mode =
        let bugs =
          Bug_registry.arm ~rng:(Rae_util.Rng.create 9L) (List.filter_map Bug_registry.find ids)
        in
        let _, dev, b =
          fresh_base ~config:{ Base.default_config with Base.commit_interval = 16 } ~bugs ()
        in
        let sp = Spec.make () in
        let mismatches = ref 0 and eio = ref 0 in
        let run exec_one recoveries lost =
          List.iter
            (fun op ->
              let want = Spec.exec sp op in
              let got = exec_one op in
              if not (Op.outcome_equal want got) then incr mismatches;
              match got with Error Errno.EIO -> incr eio | _ -> ())
            ops;
          (recoveries (), !mismatches, !eio, lost ())
        in
        match mode with
        | `Rae ->
            let ctl = Controller.make ~device:dev b in
            run (Controller.exec ctl)
              (fun () -> (Controller.stats ctl).Controller.recoveries)
              (fun () -> 0)
        | `Restart ->
            let ctl = Rae_core.Restart_only.make b in
            run (Rae_core.Restart_only.exec ctl)
              (fun () -> (Rae_core.Restart_only.stats ctl).Rae_core.Restart_only.restarts)
              (fun () -> (Rae_core.Restart_only.stats ctl).Rae_core.Restart_only.lost_window_ops)
      in
      List.iter
        (fun (name, mode) ->
          let recoveries, mismatches, eio, lost = measure mode in
          Printf.printf "%-14s %-10s %11d %12d %11d %10d\n" (W.profile_name profile) name
            recoveries mismatches eio lost)
        [ ("RAE", `Rae); ("restart", `Restart) ])
    [ W.Varmail; W.Fileserver; W.Metadata ];
  Printf.printf
    "\nExpected shape: identical error load, but restart-only recovery loses the\n\
     volatile window and every open descriptor — applications see wrong results\n\
     and EIO storms — while RAE masks everything.  This is the availability gap\n\
     the shadow filesystem exists to close.\n"

(* ---------------------------------------------------------------- *)
(* E-alloc: bitmap allocator, seed bit-scan vs word-scan vs rotor    *)
(* ---------------------------------------------------------------- *)

let e_alloc () =
  section "E-alloc | block allocator: bit-at-a-time scan vs word scan vs next-fit rotor";
  let module Bitmap = Rae_format.Bitmap in
  let nbits = 8192 in
  let allocs = sc 4096 in
  (* The seed allocator: probe each bit from [from] upward.  Kept here as
     the before-side of the comparison. *)
  let naive_find_free bm ~from =
    let n = Bitmap.nbits bm in
    let rec go i = if i >= n then None else if not (Bitmap.test bm i) then Some i else go (i + 1) in
    if from >= n then None else go from
  in
  let drain find =
    let bm = Bitmap.create ~nbits in
    fun () ->
      Bitmap.reset_cursor bm;
      for i = 0 to nbits - 1 do
        if Bitmap.test bm i then Bitmap.clear bm i
      done;
      for _ = 1 to allocs do
        match find bm with Some i -> Bitmap.set bm i | None -> failwith "bitmap full"
      done
  in
  let n = float_of_int allocs in
  let t_seed = time_runs ~reps:(reps 3) (drain (fun bm -> naive_find_free bm ~from:0)) in
  let t_word = time_runs ~reps:(reps 3) (drain (fun bm -> Bitmap.find_free bm ~from:0)) in
  let t_rotor = time_runs ~reps:(reps 3) (drain (fun bm -> Bitmap.find_free_next bm ~lo:0)) in
  Printf.printf "%d allocations, %d-bit bitmap (first-fit fills a growing prefix):\n" allocs nbits;
  Printf.printf "  seed bit-scan first-fit : %12.0f allocs/s\n" (n /. t_seed);
  Printf.printf "  word-scan first-fit     : %12.0f allocs/s  (%.1fx)\n" (n /. t_word)
    (t_seed /. t_word);
  Printf.printf "  word-scan next-fit rotor: %12.0f allocs/s  (%.1fx)\n" (n /. t_rotor)
    (t_seed /. t_rotor);
  json_note ~sec:"E-alloc" ~name:"seed-bit-scan" ~unit:"allocs_per_s" (n /. t_seed);
  json_note ~sec:"E-alloc" ~name:"word-scan" ~unit:"allocs_per_s" (n /. t_word);
  json_note ~sec:"E-alloc" ~name:"word-scan+rotor" ~unit:"allocs_per_s" (n /. t_rotor);
  json_note ~sec:"E-alloc" ~name:"rotor-speedup-vs-seed" ~unit:"ratio" (t_seed /. t_rotor);
  Printf.printf
    "\nExpected shape: the seed scan re-walks the allocated prefix on every probe\n\
     (quadratic in allocations); the word scan skips it 64 bits at a time and the\n\
     rotor resumes where the last allocation left off (near-constant per alloc).\n"

(* ---------------------------------------------------------------- *)
(* E-txn: journal transaction buffering, list walks vs Hashtbl index *)
(* ---------------------------------------------------------------- *)

let e_txn () =
  section "E-txn | journal txn buffering: list filter/append vs Hashtbl-indexed slots";
  let module Journal = Rae_journal.Journal in
  let nhomes = 400 in
  let passes = sc 8 in
  let img = Bytes.make bs 'j' in
  (* The seed txn_write: drop any earlier image of the block from the list,
     append the new one at the tail — O(n) filter + O(n) append per call. *)
  let seed_pass () =
    let writes = ref [] in
    for _pass = 1 to passes do
      for home = 0 to nhomes - 1 do
        writes := List.filter (fun (b, _) -> b <> home) !writes @ [ (home, Bytes.copy img) ]
      done
    done;
    ignore (List.length !writes)
  in
  let disk = mk_disk ~nblocks:512 () in
  let dev = Device.of_disk disk in
  let g = ok (Layout.compute ~nblocks:512 ~ninodes:64 ~journal_len:16 ()) in
  Journal.format dev g;
  let j = ok (Journal.attach dev g) in
  let indexed_pass () =
    let txn = Journal.begin_txn j in
    for _pass = 1 to passes do
      for home = 0 to nhomes - 1 do
        Journal.txn_write txn (g.Layout.data_start + home) img
      done
    done;
    Journal.abort j txn
  in
  let calls = float_of_int (nhomes * passes) in
  let t_seed = time_runs ~reps:(reps 3) seed_pass in
  let t_indexed = time_runs ~reps:(reps 3) indexed_pass in
  Printf.printf "%d txn_write calls (%d homes, %d rewrite passes):\n" (nhomes * passes) nhomes
    passes;
  Printf.printf "  seed list filter+append : %12.0f writes/s\n" (calls /. t_seed);
  Printf.printf "  Hashtbl-indexed slots   : %12.0f writes/s  (%.1fx)\n" (calls /. t_indexed)
    (t_seed /. t_indexed);
  json_note ~sec:"E-txn" ~name:"seed-list" ~unit:"writes_per_s" (calls /. t_seed);
  json_note ~sec:"E-txn" ~name:"indexed" ~unit:"writes_per_s" (calls /. t_indexed);
  json_note ~sec:"E-txn" ~name:"speedup" ~unit:"ratio" (t_seed /. t_indexed);
  Printf.printf
    "\nExpected shape: rewriting hot metadata blocks inside one transaction is the\n\
     common journaling pattern; the list walk pays O(buffered blocks) per write,\n\
     the index overwrites a slot in place.\n"

(* ---------------------------------------------------------------- *)
(* E-oplog: op recording, list cons + List.length vs growable array  *)
(* ---------------------------------------------------------------- *)

let e_oplog () =
  section "E-oplog | op-log recording: list + List.length vs growable array + counter";
  let module Oplog = Rae_core.Oplog in
  let nops = sc 20000 in
  (* The seed oplog: cons onto a list; [length] (polled by the controller's
     commit policy) re-walked the whole window. *)
  let seed_pass () =
    let entries = ref [] in
    for i = 1 to nops do
      entries := (Op.Sync, (Ok Op.Unit : Op.outcome), i) :: !entries;
      ignore (List.length !entries)
    done;
    ignore (List.rev !entries)
  in
  let array_pass () =
    let log = Oplog.create () in
    for _ = 1 to nops do
      Oplog.record log Op.Sync (Ok Op.Unit);
      ignore (Oplog.length log)
    done;
    ignore (Oplog.entries log);
    Oplog.checkpoint log ~fds:[]
  in
  let n = float_of_int nops in
  let t_seed = time_runs ~reps:(reps 3) seed_pass in
  let t_array = time_runs ~reps:(reps 3) array_pass in
  Printf.printf "%d records, window length polled after each (commit-policy pattern):\n" nops;
  Printf.printf "  seed list + List.length  : %12.0f records/s\n" (n /. t_seed);
  Printf.printf "  array + running counter  : %12.0f records/s  (%.1fx)\n" (n /. t_array)
    (t_seed /. t_array);
  json_note ~sec:"E-oplog" ~name:"seed-list" ~unit:"records_per_s" (n /. t_seed);
  json_note ~sec:"E-oplog" ~name:"array-counter" ~unit:"records_per_s" (n /. t_array);
  json_note ~sec:"E-oplog" ~name:"speedup" ~unit:"ratio" (t_seed /. t_array);
  Printf.printf
    "\nExpected shape: the window is polled once per operation, so the seed pays\n\
     O(window) per record — quadratic across a commit interval; the counter makes\n\
     recording flat regardless of window length.\n"

(* ---------------------------------------------------------------- *)
(* E-obs: observability — instrumentation cost and trace validity    *)
(* ---------------------------------------------------------------- *)

let e_obs () =
  section "E-obs | Observability: instrumentation overhead and trace well-formedness";
  subsection "E-obs/a | common-path throughput: obs off / registered / traced / recorder";
  (* The claim is "within noise", so the noise floor has to sit well under
     the couple-percent acceptance band.  Machine speed drifts over seconds,
     which would bias back-to-back [time_runs] calls; instead the
     configurations are interleaved within each repetition so drift hits all
     of them equally, and the per-config median is taken across rounds. *)
  let ops = W.ops W.Varmail (Rae_util.Rng.create 11L) ~count:(sc 16_000) in
  let n = float_of_int (List.length ops) in
  let run_off () =
    let _, dev, b = fresh_base () in
    let ctl = Controller.make ~device:dev b in
    run_ops Controller.exec ctl ops
  in
  (* The common case: metrics registered (pull-based, sampled once at the
     end) and a tracer attached but with no sink enabled. *)
  let run_cfg ~traced () =
    let _, dev, b = fresh_base () in
    let tracer = Rae_obs.Tracer.create () in
    if traced then Rae_obs.Tracer.enable tracer;
    let ctl = Controller.make ~tracer ~device:dev b in
    let reg = Rae_obs.Metrics.create () in
    Controller.register_obs reg ctl;
    run_ops Controller.exec ctl ops;
    ignore (Rae_obs.Metrics.snapshot reg)
  in
  (* The always-on flight recorder: every op completion lands in the
     pre-allocated ring.  This arm prices exactly that write. *)
  let run_recorder () =
    let _, dev, b = fresh_base () in
    let events = Rae_obs.Events.create ~capacity:1024 () in
    let ctl = Controller.make ~events ~device:dev b in
    run_ops Controller.exec ctl ops
  in
  let configs = [| run_off; run_cfg ~traced:false; run_cfg ~traced:true; run_recorder |] in
  Array.iter (fun f -> f ()) configs;
  Gc.compact ();
  let rounds = reps 5 in
  let samples = Array.map (fun _ -> ref []) configs in
  for _ = 1 to rounds do
    Array.iteri
      (fun i f ->
        Gc.major ();
        let t0 = Sys.time () in
        f ();
        samples.(i) := (Sys.time () -. t0) :: !(samples.(i)))
      configs
  done;
  let median i =
    let sorted = List.sort compare !(samples.(i)) in
    List.nth sorted (rounds / 2)
  in
  let t_off = median 0 and t_reg = median 1 and t_trace = median 2 and t_rec = median 3 in
  let pct t = (t -. t_off) /. t_off *. 100. in
  Printf.printf "%-28s %12.0f ops/s\n" "obs off" (n /. t_off);
  Printf.printf "%-28s %12.0f ops/s  (%+.1f%%)\n" "registry + disabled tracer" (n /. t_reg)
    (pct t_reg);
  Printf.printf "%-28s %12.0f ops/s  (%+.1f%%)\n" "tracing enabled" (n /. t_trace) (pct t_trace);
  Printf.printf "%-28s %12.0f ops/s  (%+.1f%%)\n" "flight recorder on" (n /. t_rec) (pct t_rec);
  json_note ~sec:"E-obs" ~name:"off" ~unit:"ops_per_s" (n /. t_off);
  json_note ~sec:"E-obs" ~name:"registered" ~unit:"ops_per_s" (n /. t_reg);
  json_note ~sec:"E-obs" ~name:"traced" ~unit:"ops_per_s" (n /. t_trace);
  json_note ~sec:"E-obs" ~name:"recorder" ~unit:"ops_per_s" (n /. t_rec);
  json_note ~sec:"E-obs" ~name:"registered-overhead" ~unit:"pct" (pct t_reg);
  json_note ~sec:"E-obs" ~name:"traced-overhead" ~unit:"pct" (pct t_trace);
  json_note ~sec:"E-obs" ~name:"recorder-overhead" ~unit:"pct" (pct t_rec);
  (* The recorder is meant to be always-on: enforce the "within noise"
     claim on full runs (quick runs take one unpaired sample per arm, far
     too noisy for a floor). *)
  if (not !quick) && pct t_rec > 10. then begin
    Printf.eprintf "E-obs: flight recorder overhead %.1f%% exceeds the 10%% floor\n" (pct t_rec);
    exit 1
  end;
  subsection "E-obs/b | recovery trace + black box: emit, validate, check coverage";
  let bugs =
    Bug_registry.arm
      [
        {
          Bug_registry.id = "bench-panic";
          determinism = Bug_registry.Deterministic;
          trigger = Bug_registry.Path_component "trigger";
          consequence = Bug_registry.Panic;
          modeled_after = "bench";
        };
      ]
  in
  let disk = mk_disk () in
  let dev = Device.of_disk disk in
  ignore (ok (Base.mkfs dev ~ninodes:1024 ()));
  let b = ok (Base.mount ~bugs dev) in
  let clock () =
    Int64.add
      (Rae_util.Vclock.now (Disk.clock disk))
      (Int64.of_float (Sys.time () *. 1e9))
  in
  let tracer = Rae_obs.Tracer.create ~clock () in
  Rae_obs.Tracer.enable tracer;
  let events = Rae_obs.Events.create ~capacity:1024 () in
  let ctl =
    Controller.make ~tracer ~events ~bundle_dir:"bench-bundles" ~run_id:"bench-e-obs" ~device:dev
      b
  in
  let reg = Rae_obs.Metrics.create () in
  Controller.register_obs reg ctl;
  run_ops Controller.exec ctl (W.ops W.Metadata (Rae_util.Rng.create 3L) ~count:(sc 400));
  ignore (Controller.exec ctl (Op.Create (p "/trigger", 0o644)));
  (* The recovery must have left a validating black-box bundle behind. *)
  (match Controller.bundles ctl with
  | [] ->
      prerr_endline "E-obs: recovery emitted no black-box bundle";
      exit 1
  | path :: _ -> (
      match Rae_obs.Blackbox.check_file path with
      | Ok summary ->
          Printf.printf "black box: %s validates (%d events, health %s)\n"
            (Filename.basename path) summary.Rae_obs.Blackbox.s_events
            summary.Rae_obs.Blackbox.s_health;
          json_note ~sec:"E-obs" ~name:"bundle-events" ~unit:"count"
            (float_of_int summary.Rae_obs.Blackbox.s_events)
      | Error violations ->
          Printf.eprintf "E-obs: bundle %s is invalid:\n" path;
          List.iter (fun v -> Printf.eprintf "  - %s\n" v) violations;
          exit 1));
  json_metrics := Some (Rae_obs.Metrics.to_json reg);
  let trace = Rae_obs.Tracer.to_chrome tracer in
  (match Rae_obs.Tracer.validate_chrome trace with
  | Ok nev ->
      Printf.printf "trace: %d events, balanced and monotone\n" nev;
      json_note ~sec:"E-obs" ~name:"trace-events" ~unit:"count" (float_of_int nev)
  | Error msg ->
      Printf.eprintf "E-obs: malformed trace: %s\n" msg;
      exit 1);
  let begun = Rae_obs.Tracer.events tracer in
  let has_span name =
    List.exists
      (function Rae_obs.Tracer.Begin { name = n; _ } -> n = name | _ -> false)
      begun
  in
  (* The in-flight op is a create, so delegated-sync legitimately never
     runs; this is a default-policy (cold) recovery, so neither does the
     checkpoint-seeded [seed] phase. *)
  let expected =
    "recovery"
    :: List.filter (fun nm -> nm <> "delegated-sync" && nm <> "seed") Controller.phase_names
  in
  let missing = List.filter (fun nm -> not (has_span nm)) expected in
  if missing <> [] then begin
    Printf.eprintf "E-obs: missing recovery spans: %s\n" (String.concat ", " missing);
    exit 1
  end;
  (match Controller.last_recovery ctl with
  | Some r when r.Report.r_phases <> [] -> ()
  | _ ->
      prerr_endline "E-obs: recovery report carries no phase timings";
      exit 1);
  Printf.printf "all %d expected recovery spans present; report carries %d phase timings\n"
    (List.length expected)
    (match Controller.last_recovery ctl with
    | Some r -> List.length r.Report.r_phases
    | None -> 0)

(* ---------------------------------------------------------------- *)
(* E-srv: the serving layer                                          *)
(* ---------------------------------------------------------------- *)

module Srv = Rae_srv.Server
module Loopback = Rae_srv.Loopback
module SrvClient = Rae_srv.Srv_client
module SWire = Rae_srv.Wire

(* A raw pipelined client over one loopback endpoint.  Srv_client is
   synchronous (one outstanding request); to give the scheduler real
   cross-session batches to build, the throughput bench speaks the wire
   protocol directly with a window of in-flight requests per session. *)
type pipelined = {
  plc_ep : Loopback.endpoint;
  plc_send : string -> unit;
  mutable plc_rx : string;
  mutable plc_next_req : int;
  mutable plc_inflight : int;
  mutable plc_remaining : int;
  mutable plc_completed : int;
  mutable plc_busy : int;
  mutable plc_vfd : int;
}

let pl_drain st =
  let fresh = Loopback.recv st.plc_ep in
  st.plc_rx <- (if st.plc_rx = "" then fresh else st.plc_rx ^ fresh);
  let buf = Bytes.unsafe_of_string st.plc_rx in
  let len = Bytes.length buf in
  let pos = ref 0 in
  let frames = ref [] in
  let continue = ref true in
  while !continue do
    match SWire.decode buf ~pos:!pos ~len:(len - !pos) with
    | SWire.Frame (f, consumed) ->
        frames := f :: !frames;
        pos := !pos + consumed
    | SWire.Need_more -> continue := false
    | SWire.Fail e -> failwith (Format.asprintf "e-srv: wire failure: %a" SWire.pp_error e)
  done;
  st.plc_rx <- String.sub st.plc_rx !pos (len - !pos);
  List.rev !frames

let pl_req st =
  let r = st.plc_next_req in
  st.plc_next_req <- r + 1;
  r

let pl_await hub st accept =
  let result = ref None in
  let guard = ref 0 in
  while !result = None && !guard < 100_000 do
    incr guard;
    (match List.filter_map accept (pl_drain st) with
    | v :: _ -> result := Some v
    | [] -> ignore (Loopback.pump hub))
  done;
  match !result with Some v -> v | None -> failwith "e-srv: no reply"

let pl_window = 8 (* matches the per-session rate quota *)
let pl_data = String.make 256 's'

(* Attach, create, open and prime this session's private file. *)
let pl_setup hub i =
  let ep = Loopback.connect hub in
  let io = Loopback.io ep in
  let st =
    {
      plc_ep = ep;
      plc_send = io.SrvClient.io_send;
      plc_rx = "";
      plc_next_req = 1;
      plc_inflight = 0;
      plc_remaining = 0;
      plc_completed = 0;
      plc_busy = 0;
      plc_vfd = -1;
    }
  in
  st.plc_send (SWire.encode (SWire.Hello { version = SWire.protocol_version }));
  pl_await hub st (function SWire.Hello_ok _ -> Some () | _ -> None);
  let path = p (Printf.sprintf "/srv%d" i) in
  st.plc_send (SWire.encode (SWire.Op_req { req = pl_req st; corr = 0; op = Op.Create (path, 0o644) }));
  pl_await hub st (function SWire.Op_reply _ -> Some () | _ -> None);
  st.plc_send
    (SWire.encode (SWire.Op_req { req = pl_req st; corr = 0; op = Op.Open (path, Rae_vfs.Types.flags_rw) }));
  st.plc_vfd <-
    pl_await hub st (function
      | SWire.Op_reply { outcome = Ok (Op.Fd fd); _ } -> Some fd
      | SWire.Op_reply _ -> failwith "e-srv: setup open failed"
      | _ -> None);
  st.plc_send (SWire.encode (SWire.Op_req { req = pl_req st; corr = 0; op = Op.Pwrite (st.plc_vfd, 0, pl_data) }));
  pl_await hub st (function SWire.Op_reply _ -> Some () | _ -> None);
  st

let pl_issue st =
  while st.plc_inflight < pl_window && st.plc_remaining > 0 do
    let op =
      if st.plc_remaining land 1 = 0 then Op.Fstat st.plc_vfd
      else Op.Pread (st.plc_vfd, st.plc_remaining * 256 mod 65536, 256)
    in
    st.plc_send (SWire.encode (SWire.Op_req { req = pl_req st; corr = 0; op }));
    st.plc_remaining <- st.plc_remaining - 1;
    st.plc_inflight <- st.plc_inflight + 1
  done

let pl_settle st =
  List.iter
    (function
      | SWire.Op_reply _ ->
          st.plc_inflight <- st.plc_inflight - 1;
          st.plc_completed <- st.plc_completed + 1
      | SWire.Busy _ ->
          st.plc_inflight <- st.plc_inflight - 1;
          st.plc_remaining <- st.plc_remaining + 1;
          st.plc_busy <- st.plc_busy + 1
      | _ -> ())
    (pl_drain st)

(* One throughput configuration: [sessions] pipelined clients, [total]
   operations split evenly, over a loopback hub charging 200us of simulated
   dispatch latency per turn that does work — the per-wakeup cost a real
   event loop pays regardless of batch size, i.e. exactly what batching
   amortizes.  Reported throughput is against combined CPU + simulated
   time (the E3b convention). *)
let e_srv_run ~sessions ~batching ~total =
  let _, dev, base = fresh_base () in
  let ctl = Controller.make ~device:dev base in
  let config =
    { Srv.default_config with Srv.batch_max = (if batching then Srv.default_config.Srv.batch_max else 1) }
  in
  let server = Srv.create ~config ctl in
  let clock = Rae_util.Vclock.create () in
  let hub = Loopback.create ~turn_latency_ns:200_000L ~clock server in
  let sts = Array.init sessions (fun i -> pl_setup hub i) in
  let per = max 1 (total / sessions) in
  Array.iter (fun st -> st.plc_remaining <- per) sts;
  let finished () =
    Array.for_all (fun st -> st.plc_remaining = 0 && st.plc_inflight = 0) sts
  in
  let cpu0 = Sys.time () in
  let sim0 = Rae_util.Vclock.now clock in
  let guard = ref 0 in
  while (not (finished ())) && !guard < 10_000_000 do
    incr guard;
    Array.iter pl_issue sts;
    ignore (Loopback.pump hub);
    Array.iter pl_settle sts
  done;
  if not (finished ()) then failwith "e-srv: throughput run stalled";
  let cpu = Sys.time () -. cpu0 in
  let sim = Int64.to_float (Int64.sub (Rae_util.Vclock.now clock) sim0) /. 1e9 in
  let n = Array.fold_left (fun acc st -> acc + st.plc_completed) 0 sts in
  let busy = Array.fold_left (fun acc st -> acc + st.plc_busy) 0 sts in
  (float_of_int n /. (cpu +. sim), busy)

let median_of l =
  let sorted = List.sort compare l in
  List.nth sorted (List.length sorted / 2)

let e_srv_throughput () =
  subsection
    "E-srv/a | throughput vs client count (loopback, 200us/turn dispatch latency, window 8)";
  let total = sc 4096 in
  let rounds = reps 3 in
  let measure ~sessions ~batching =
    median_of (List.init rounds (fun _ -> fst (e_srv_run ~sessions ~batching ~total)))
  in
  Printf.printf "%-10s %16s %16s %10s\n" "sessions" "batched (op/s)" "unbatched (op/s)"
    "batch adv.";
  let batched1 = ref 0. and batched16 = ref 0. in
  List.iter
    (fun sessions ->
      let b = measure ~sessions ~batching:true in
      let u = measure ~sessions ~batching:false in
      if sessions = 1 then batched1 := b;
      if sessions = 16 then batched16 := b;
      json_note ~sec:"E-srv" ~name:(Printf.sprintf "c%d/batched" sessions) ~unit:"ops_per_s" b;
      json_note ~sec:"E-srv" ~name:(Printf.sprintf "c%d/unbatched" sessions) ~unit:"ops_per_s" u;
      Printf.printf "%-10d %16.0f %16.0f %9.1fx\n" sessions b u (b /. u))
    [ 1; 4; 16; 64 ];
  let speedup = !batched16 /. !batched1 in
  json_note ~sec:"E-srv" ~name:"speedup-16v1-batched" ~unit:"x" speedup;
  Printf.printf
    "\n16-session vs single-session throughput (batched): %.1fx\n\
     Expected shape: batching amortizes the per-turn dispatch cost across up\n\
     to batch_max requests, so throughput scales with sessions until the\n\
     batch cap (64 = 8 sessions x window 8) and then plateaus; unbatched\n\
     dispatch pays the full turn cost per op at every session count.\n"
    speedup;
  if speedup < 2.0 then begin
    Printf.eprintf "E-srv: 16-session speedup %.2fx below the 2x floor\n" speedup;
    exit 1
  end

let e_srv_recovery () =
  subsection "E-srv/b | mid-run injected BUG: recovery transparency across sessions";
  let bugs =
    Bug_registry.arm
      [
        {
          Bug_registry.id = "srv-panic";
          determinism = Bug_registry.Deterministic;
          trigger = Bug_registry.Path_component "trigger";
          consequence = Bug_registry.Panic;
          modeled_after = "bench";
        };
      ]
  in
  let _, dev, base = fresh_base ~bugs () in
  (* Checkpointing on, as rfsd runs it: the mid-serving recovery replays
     only the suffix past the last fold, shrinking the Busy window. *)
  let ctl = Controller.make ~policy:ckpt_policy ~device:dev base in
  let server = Srv.create ctl in
  let hub = Loopback.create server in
  let clients =
    Array.init 4 (fun i ->
        match SrvClient.connect ~dial:(Loopback.dial hub) () with
        | Ok c -> c
        | Error msg -> failwith (Printf.sprintf "e-srv: client %d attach: %s" i msg))
  in
  let rounds = sc 64 in
  let errors = ref 0 in
  let total = ref 0 in
  let check r =
    incr total;
    match r with Ok _ -> () | Error _ -> incr errors
  in
  for k = 0 to rounds - 1 do
    Array.iteri
      (fun i c ->
        (* the BUG fires mid-run, from one session, while the others are
           mid-stream: the panic must be invisible to all of them *)
        if i = 0 && k = rounds / 2 then check (SrvClient.create c (p "/trigger") ~mode:0o644);
        let path = p (Printf.sprintf "/f%d_%d" i k) in
        check (SrvClient.create c path ~mode:0o644);
        match SrvClient.openf c path Rae_vfs.Types.flags_rw with
        | Ok fd ->
            incr total;
            check (SrvClient.pwrite c fd ~off:0 (String.make 128 'y'));
            check (SrvClient.pread c fd ~off:0 ~len:64);
            check (SrvClient.fstat c fd);
            check (SrvClient.close c fd)
        | Error _ ->
            incr total;
            incr errors)
      clients
  done;
  let recoveries = (Controller.stats ctl).Controller.recoveries in
  let notices = Array.map SrvClient.recovered_seen clients in
  Printf.printf "%d ops across 4 sessions: %d client-visible errors, %d recover%s\n" !total
    !errors recoveries
    (if recoveries = 1 then "y" else "ies");
  Array.iteri
    (fun i n -> Printf.printf "client %d observed %d Note_recovered push%s\n" i n
        (if n = 1 then "" else "es"))
    notices;
  json_note ~sec:"E-srv" ~name:"bug-ops" ~unit:"count" (float_of_int !total);
  json_note ~sec:"E-srv" ~name:"bug-client-errors" ~unit:"count" (float_of_int !errors);
  json_note ~sec:"E-srv" ~name:"bug-recoveries" ~unit:"count" (float_of_int recoveries);
  json_note ~sec:"E-srv" ~name:"bug-min-notices" ~unit:"count"
    (float_of_int (Array.fold_left min max_int notices));
  if !errors > 0 || recoveries < 1 || Array.exists (fun n -> n < 1) notices then begin
    Printf.eprintf
      "E-srv: recovery transparency violated (%d errors, %d recoveries, notices %s)\n" !errors
      recoveries
      (String.concat "," (Array.to_list (Array.map string_of_int notices)));
    exit 1
  end

let e_srv () =
  section "E-srv | serving layer: multi-client throughput, batching, recovery transparency";
  e_srv_throughput ();
  e_srv_recovery ()

(* The lint engine rides the inner loop of CI (`dune build @lint` runs on
   every `dune runtest`), so its cost is a budget like any other: a full
   interprocedural scan of lib/ must stay under 10 s of wall time or the
   alias stops being something developers keep enabled.  The scan reads
   the .cmt files of the libraries this binary already links, so they are
   guaranteed to be built. *)
let e_lint () =
  section "E-lint | rae_lint full-repo scan: interprocedural effects + typestate";
  (* cwd is _build/default/bench under the bench-smoke alias, the repo
     root under `dune exec bench/main.exe`. *)
  let candidates = [ "../lib"; "_build/default/lib" ] in
  match List.find_opt Sys.file_exists candidates with
  | None -> Printf.printf "  no built lib/ tree next to the benchmark; skipping\n"
  | Some dir -> (
      let t0 = Unix.gettimeofday () in
      match Rae_lint.Engine.run ~dirs:[ dir ] () with
      | Error msg ->
          Printf.eprintf "E-lint: %s\n" msg;
          exit 1
      | Ok r ->
          let wall = Unix.gettimeofday () -. t0 in
          let s = r.Rae_lint.Engine.stats in
          Printf.printf "  %d units, %d rules, %d findings in %.3fs (floor: < 10 s wall)\n"
            s.Rae_lint.Engine.units_loaded s.Rae_lint.Engine.rules_run
            s.Rae_lint.Engine.findings wall;
          json_note ~sec:"E-lint" ~name:"wall" ~unit:"s" wall;
          json_note ~sec:"E-lint" ~name:"units" ~unit:"count"
            (float_of_int s.Rae_lint.Engine.units_loaded);
          json_note ~sec:"E-lint" ~name:"findings" ~unit:"count"
            (float_of_int s.Rae_lint.Engine.findings);
          if wall >= 10.0 then begin
            Printf.eprintf "E-lint: full-repo scan took %.2fs, over the 10 s floor\n" wall;
            exit 1
          end)

(* E-crash: the B3-style crash-consistency sweep.  The engine enumerates
   every persistence boundary (and bounded-depth reordered subsets) of
   bounded, targeted and crash-mid-recovery workloads, and the oracle
   must judge every image consistent or repaired — zero diverging.  The
   seeded fixture (a device that ignores flush barriers) must diverge and
   minimize to a tiny reproducer, or the oracle has gone blind.  Floors
   enforced on the full run: >= 500 crash points, 0 diverging, fixture
   caught and minimized to <= 3 ops. *)
let e_crash () =
  section "E-crash | crash-consistency sweep: every crash image recovers to a legal state";
  let module CE = Rae_crash.Engine in
  let floor_violations = ref [] in
  let t0 = Unix.gettimeofday () in
  let stats = ref CE.empty_stats in
  let sweep name s =
    Printf.printf "  %-14s %s\n" name (Format.asprintf "%a" CE.pp_stats s);
    List.iter
      (fun d ->
        Printf.printf "    diverging %s at %s: %s\n" d.CE.d_label d.CE.d_key d.CE.d_reason)
      (List.rev s.CE.s_diverging);
    stats := CE.merge !stats s
  in
  let cfg =
    {
      CE.default_config with
      CE.prefix_stride = (if !quick then 2 else 1);
      samples_per_epoch = (if !quick then 6 else 12);
    }
  in
  sweep "bounded" (CE.sweep_bounded ~cfg ~max_workloads:(sc 48) ());
  sweep "targeted"
    (CE.sweep_targeted ~cfg ~count:(sc 48)
       ~seeds:(if !quick then [ 1L ] else [ 1L; 2L; 3L ])
       ());
  sweep "recovery-cold" (CE.sweep_recovery ~cfg ~count:(sc 24) ~ckpt:false ());
  sweep "recovery-ckpt" (CE.sweep_recovery ~cfg ~count:(sc 24) ~ckpt:true ());
  let s = !stats in
  let wall = Unix.gettimeofday () -. t0 in
  let diverging = List.length s.CE.s_diverging in
  Printf.printf "  %-14s %s  (%.2fs wall)\n" "total" (Format.asprintf "%a" CE.pp_stats s) wall;
  json_note ~sec:"E-crash" ~name:"points" ~unit:"count" (float_of_int s.CE.s_points);
  json_note ~sec:"E-crash" ~name:"workloads" ~unit:"count" (float_of_int s.CE.s_workloads);
  json_note ~sec:"E-crash" ~name:"consistent" ~unit:"count" (float_of_int s.CE.s_consistent);
  json_note ~sec:"E-crash" ~name:"repaired" ~unit:"count" (float_of_int s.CE.s_repaired);
  json_note ~sec:"E-crash" ~name:"diverging" ~unit:"count" (float_of_int diverging);
  json_note ~sec:"E-crash" ~name:"wall" ~unit:"s" wall;
  (* The seeded divergence: the oracle must catch a barrier-ignoring
     device and shrink the workload to a tiny reproducer. *)
  let fixture = [ Rae_vfs.Op.Create (Rae_vfs.Path.parse_exn "/a", 0o644); Rae_vfs.Op.Sync ] in
  (match CE.first_divergence ~cfg ~barriers:false fixture with
  | None -> floor_violations := "seeded broken-barriers fixture not detected" :: !floor_violations
  | Some d ->
      Printf.printf "  fixture        caught at %s (%s)\n" d.CE.d_key d.CE.d_reason;
      (match CE.minimize ~cfg ~barriers:false fixture with
      | Some min_ops when List.length min_ops <= 3 ->
          Printf.printf "  fixture        minimized to %d op(s): %s\n" (List.length min_ops)
            (CE.render_ops min_ops);
          json_note ~sec:"E-crash" ~name:"fixture-reproducer" ~unit:"ops"
            (float_of_int (List.length min_ops))
      | Some min_ops ->
          floor_violations :=
            Printf.sprintf "fixture reproducer has %d ops, over the 3-op floor"
              (List.length min_ops)
            :: !floor_violations
      | None -> floor_violations := "fixture diverged but would not minimize" :: !floor_violations));
  if diverging > 0 then
    floor_violations := Printf.sprintf "%d diverging crash points" diverging :: !floor_violations;
  if (not !quick) && s.CE.s_points < 500 then
    floor_violations :=
      Printf.sprintf "only %d crash points enumerated, under the 500 floor" s.CE.s_points
      :: !floor_violations;
  if !floor_violations <> [] then begin
    List.iter (fun v -> Printf.eprintf "E-crash: %s\n" v) (List.rev !floor_violations);
    exit 1
  end;
  print_string
    "\nExpected shape: every enumerated crash image — prefix and reordered-subset\n\
     points, including those inside the recovery pipeline's own write stream —\n\
     mounts, replays and fscks clean, and matches a legal durable boundary\n\
     (diverging = 0).  Only the seeded broken-barriers fixture diverges, and it\n\
     shrinks to a reproducer of at most 3 ops.\n"

(* ---------------------------------------------------------------- *)
(* E-par: OCaml 5 domain parallelism — background fold, crash sweep   *)
(* ---------------------------------------------------------------- *)

(* Parallel arms are compared on wall-clock (Unix.gettimeofday): the
   process-CPU clock the other sections use charges every domain's work
   to one meter, which by construction cannot show a parallel speedup.
   Reps are interleaved round-robin like [time_interleaved]. *)
let wall_interleaved ~reps fs =
  Array.iter (fun f -> f ()) fs;
  Gc.compact ();
  let samples = Array.map (fun _ -> ref []) fs in
  for _ = 1 to reps do
    Array.iteri
      (fun i f ->
        Gc.major ();
        let t0 = Unix.gettimeofday () in
        f ();
        samples.(i) := (Unix.gettimeofday () -. t0) :: !(samples.(i)))
      fs
  done;
  Array.map
    (fun s ->
      let sorted = List.sort compare !s in
      List.nth sorted (List.length sorted / 2))
    samples

(* Minor heap, in words per domain, for every E-par-d sweep arm.  The
   sweep allocates heavily, so the minor heap size moves its wall time
   as much as the domain count does; pinning one size for all arms
   leaves only the parallelism in the comparison. *)
let sweep_minor_heap_words = 1 lsl 20

(* A pool whose every participant runs with [sweep_minor_heap_words].
   [Gc.set] reaches only the calling domain, and a spawned domain starts
   from the OCAMLRUNPARAM default, so each participant applies the
   setting itself: one thunk per participant, each parked until all
   have started, which puts every thunk on a distinct domain. *)
let sweep_pool ~domains =
  let module Pool = Rae_par.Pool in
  let pl = Pool.create ~domains () in
  let n = Pool.size pl in
  let started = Atomic.make 0 in
  Pool.run pl
    (List.init n (fun _ () ->
         Gc.set { (Gc.get ()) with Gc.minor_heap_size = sweep_minor_heap_words };
         Atomic.incr started;
         while Atomic.get started < n do
           Domain.cpu_relax ()
         done));
  pl

(* E-par floors: hot-path fold enqueue <= the synchronous fold it
   replaces, sweep verdicts equal across domain counts, full crash sweep
   0 diverging.  The enqueue floor is only meaningful with a second core
   for the fold domain, so it is enforced on full runs on hosts whose
   [Domain.recommended_domain_count] is >= 2 and reported (with an
   explicit skip notice) elsewhere; the correctness floors are enforced
   always. *)
let e_par () =
  section "E-par | domain parallelism: background fold, crash sweep";
  let module Pool = Rae_par.Pool in
  let module Checkpoint = Rae_core.Checkpoint in
  let module CE = Rae_crash.Engine in
  let cores = Domain.recommended_domain_count () in
  let enforce_perf = (not !quick) && cores >= 2 in
  Printf.printf "recommended_domain_count = %d\n" cores;
  if not enforce_perf then
    Printf.printf
      "(enqueue floor reported but NOT enforced: %s; correctness floors still apply)\n"
      (if !quick then "--quick run"
       else
         Printf.sprintf "host recommends %d domain(s), wall-clock gains are not meaningful here"
           cores);
  json_note ~sec:"E-par" ~name:"recommended-domains" ~unit:"count" (float_of_int cores);
  let floor_violations = ref [] in
  let perf_floor msg ok =
    if not ok then
      if enforce_perf then floor_violations := msg :: !floor_violations
      else Printf.printf "  floor skipped (not enforced on this run): %s\n" msg
  in
  let hard_floor msg ok = if not ok then floor_violations := msg :: !floor_violations in

  (* -- c) checkpoint fold: hot-path enqueue vs synchronous fold ---- *)
  subsection "E-par-c | background fold: hot-path cost of enqueue vs sync fold";
  let fold_dev, fold_entries =
    let fdisk = mk_disk ~nblocks:8192 () in
    let dev = Device.of_disk fdisk in
    ignore (ok (Base.mkfs dev ~ninodes:1024 ()));
    let b =
      ok (Base.mount ~config:{ Base.default_config with Base.commit_interval = max_int } dev)
    in
    let ops =
      List.filter
        (fun op -> not (Op.is_sync op))
        (W.ops W.Metadata (Rae_util.Rng.create 13L) ~count:(sc 2500))
    in
    ( dev,
      List.filter Op.is_mutation ops
      |> List.mapi (fun seq op -> { Op.op; outcome = Base.exec b op; seq }) )
  in
  let nentries = List.length fold_entries in
  let batch = 32 in
  let fold_rep ~async () =
    let ck = Checkpoint.create ~shadow_checks:false ~fold_interval:batch fold_dev in
    (* Queue cap sized to the trace: the production cap (4) exists to
       bound memory; here it would just re-serialize the arms through
       backpressure and measure the worker, not the enqueue. *)
    if async then Checkpoint.start_async_fold ck ~queue_cap:((nentries / batch) + 2);
    ok (Checkpoint.cut ck ~window:0 ~fds:[] ~next_seq:0 ~commit_seq:0L);
    let arr = Array.of_list fold_entries in
    Gc.major ();
    let t0 = Unix.gettimeofday () in
    let i = ref 0 in
    while !i < nentries do
      let hi = min nentries (!i + batch) in
      Checkpoint.fold ck ~entries:(Array.to_list (Array.sub arr !i (hi - !i))) ~next_seq:hi;
      i := hi
    done;
    let hot = Unix.gettimeofday () -. t0 in
    let t1 = Unix.gettimeofday () in
    Checkpoint.checkpoint_barrier ck;
    let drain = Unix.gettimeofday () -. t1 in
    Checkpoint.shutdown ck;
    (hot, drain)
  in
  ignore (fold_rep ~async:false ());
  ignore (fold_rep ~async:true ());
  let sync_hot = ref [] and async_hot = ref [] and async_drain = ref [] in
  for _ = 1 to reps 5 do
    let h, _ = fold_rep ~async:false () in
    sync_hot := h :: !sync_hot;
    let h, d = fold_rep ~async:true () in
    async_hot := h :: !async_hot;
    async_drain := d :: !async_drain
  done;
  let med l =
    let sorted = List.sort compare !l in
    List.nth sorted (List.length sorted / 2)
  in
  let t_sync = med sync_hot and t_enq = med async_hot and t_drain = med async_drain in
  Printf.printf "  sync fold (hot path)    : %8.2f ms for %d ops\n" (t_sync *. 1e3) nentries;
  Printf.printf "  async enqueue (hot path): %8.2f ms  (%.1fx cheaper; drain %.2f ms)\n"
    (t_enq *. 1e3) (t_sync /. t_enq) (t_drain *. 1e3);
  json_note ~sec:"E-par" ~name:"fold-sync-hot" ~unit:"s" t_sync;
  json_note ~sec:"E-par" ~name:"fold-enqueue-hot" ~unit:"s" t_enq;
  json_note ~sec:"E-par" ~name:"fold-drain" ~unit:"s" t_drain;
  perf_floor
    (Printf.sprintf "hot-path enqueue %.2f ms exceeds the synchronous fold %.2f ms" (t_enq *. 1e3)
       (t_sync *. 1e3))
    (t_enq <= t_sync);

  (* -- d) crash sweep across domains ------------------------------ *)
  subsection "E-par-d | crash sweep: 1 vs 4 domains, plus the exhaustive space";
  let cfg =
    {
      CE.default_config with
      CE.prefix_stride = (if !quick then 2 else 1);
      samples_per_epoch = (if !quick then 6 else 12);
    }
  in
  let nsample = sc 120 in
  let prev_gc = Gc.get () in
  Gc.set { prev_gc with Gc.minor_heap_size = sweep_minor_heap_words };
  (* The pool lives only inside its arm: idle worker domains still join
     every minor collection, which would slow the sequential arm. *)
  let with_sweep_pool f =
    let pl = sweep_pool ~domains:4 in
    Fun.protect ~finally:(fun () -> Pool.shutdown pl) (fun () -> f pl)
  in
  let sweep_stats = Array.make 2 CE.empty_stats in
  let smed =
    wall_interleaved ~reps:(reps 3)
      [|
        (fun () -> sweep_stats.(0) <- CE.sweep_bounded ~cfg ~max_workloads:nsample ());
        (fun () ->
          with_sweep_pool (fun pl ->
              sweep_stats.(1) <- CE.sweep_bounded ~cfg ~pool:pl ~max_workloads:nsample ()));
      |]
  in
  let fingerprint (s : CE.stats) =
    ( s.CE.s_workloads,
      s.CE.s_points,
      s.CE.s_consistent,
      s.CE.s_repaired,
      List.sort compare
        (List.map (fun d -> (d.CE.d_label, d.CE.d_key, d.CE.d_reason)) s.CE.s_diverging) )
  in
  Printf.printf "  minor heap  : %d words per domain, every arm (restored to %d after)\n"
    sweep_minor_heap_words prev_gc.Gc.minor_heap_size;
  Printf.printf "  sweep seq   (%3d workloads): %8.2f s\n" nsample smed.(0);
  Printf.printf "  sweep par=4 (%3d workloads): %8.2f s  (%.2fx)\n" nsample smed.(1)
    (smed.(0) /. smed.(1));
  json_note ~sec:"E-par" ~name:"sweep-minor-heap" ~unit:"words"
    (float_of_int sweep_minor_heap_words);
  json_note ~sec:"E-par" ~name:"sweep-seq" ~unit:"s" smed.(0);
  json_note ~sec:"E-par" ~name:"sweep-par4" ~unit:"s" smed.(1);
  hard_floor "parallel sweep verdicts differ from sequential"
    (fingerprint sweep_stats.(0) = fingerprint sweep_stats.(1));
  (* The exhaustive arm: every deduplicated bounded workload.  Skipped
     under --quick (it is the single most expensive measurement in the
     harness); on full runs the 0-diverging floor covers the whole
     space, not a sample. *)
  if !quick then Printf.printf "  exhaustive sweep skipped under --quick\n"
  else
    with_sweep_pool (fun pl ->
        let t0 = Unix.gettimeofday () in
        let full = CE.sweep_full ~cfg ~pool:pl () in
        let wall = Unix.gettimeofday () -. t0 in
        let diverging = List.length full.CE.s_diverging in
        Printf.printf "  exhaustive  (%d workloads, %d points): %.1f s, %d diverging\n"
          full.CE.s_workloads full.CE.s_points wall diverging;
        let pstats = Pool.stats pl in
        Printf.printf "  pool: %d chunks run, %d steals, %d parallel batches\n"
          pstats.Pool.tasks_run pstats.Pool.steals pstats.Pool.batches;
        json_note ~sec:"E-par" ~name:"full-sweep-workloads" ~unit:"count"
          (float_of_int full.CE.s_workloads);
        json_note ~sec:"E-par" ~name:"full-sweep-points" ~unit:"count"
          (float_of_int full.CE.s_points);
        json_note ~sec:"E-par" ~name:"full-sweep-wall" ~unit:"s" wall;
        json_note ~sec:"E-par" ~name:"full-sweep-diverging" ~unit:"count" (float_of_int diverging);
        json_note ~sec:"E-par" ~name:"pool4-steals" ~unit:"count" (float_of_int pstats.Pool.steals);
        hard_floor
          (Printf.sprintf "exhaustive sweep: %d diverging crash points" diverging)
          (diverging = 0);
        hard_floor
          (Printf.sprintf "exhaustive sweep covered only %d workloads" full.CE.s_workloads)
          (full.CE.s_workloads > 2000));
  Gc.set prev_gc;
  if !floor_violations <> [] then begin
    List.iter (fun v -> Printf.eprintf "E-par: %s\n" v) (List.rev !floor_violations);
    exit 1
  end;
  print_string
    "\nExpected shape: the hot path pays an enqueue instead of a fold, the crash\n\
     sweep's verdict set is the same at 1 and 4 domains, and the exhaustive\n\
     bounded crash space has zero diverging points.  On hosts without >= 2\n\
     recommended domains the enqueue floor is reported but not enforced\n\
     (there is no second core for the fold domain).\n"

let () =
  Printf.printf "RAE / Shadow Filesystems — benchmark harness\n";
  Printf.printf "(HotStorage '24 reproduction; see EXPERIMENTS.md for the experiment index)\n";
  let rec parse json sels = function
    | [] -> (json, List.rev sels)
    | "--json" :: path :: rest -> parse (Some path) sels rest
    | [ "--json" ] ->
        prerr_endline "bench: --json requires a path";
        exit 2
    | "--quick" :: rest ->
        quick := true;
        parse json sels rest
    | sel :: rest -> parse json (sel :: sels) rest
  in
  let json_path, sels = parse None [] (List.tl (Array.to_list Sys.argv)) in
  if !quick then Printf.printf "(--quick: scaled-down smoke run; numbers are noise)\n";
  let want name = sels = [] || List.mem name sels in
  if want "e1" then e1_table1 ();
  if want "e2" then e2_fig1 ();
  if want "e3" then begin
    e3_micro ();
    e3_base_vs_shadow ()
  end;
  if want "e4" then e4_record_overhead ();
  if want "e5" then e5_recovery_latency ();
  if want "e-ckpt" then e_ckpt ();
  if want "e-shadow" then e_shadow ();
  if want "e6" then e6_check_cost ();
  if want "e7" then e7_lookup_depth ();
  if want "e8" then e8_availability ();
  if want "e9" then e9_cross_check ();
  if want "e10" then e10_cache_policy ();
  if want "e11" then e11_vs_restart_only ();
  if want "e-alloc" then e_alloc ();
  if want "e-txn" then e_txn ();
  if want "e-oplog" then e_oplog ();
  if want "e-obs" then e_obs ();
  if want "e-srv" then e_srv ();
  if want "e-lint" then e_lint ();
  if want "e-crash" then e_crash ();
  if want "e-par" then e_par ();
  Printf.printf "\nAll requested benches complete.\n";
  Option.iter
    (fun path ->
      try write_json path
      with Sys_error msg ->
        Printf.eprintf "bench: cannot write JSON results: %s\n" msg;
        exit 1)
    json_path
