(* The RAE serving benchmark.

     main.exe --workload varmail|bigread|bugstorm --seed N --seconds S --trace 0|1

   --trace 0 drives the full rfsd stack closed-loop (2 sessions, one
   request outstanding each, one thread) and reports the end-to-end
   metrics.  --trace 1 reports per-layer metrics: counters from an armed,
   untraced served run, and self times from a chain of arms that run the
   same request stream with one layer added at a time.  Both check every
   outcome against Rae_specfs.Spec and fsck the image off the clock; the
   last stdout line is the JSON result, and the exit code is 1 when a
   check fails. *)

open Rae_vfs
module Controller = Rae_core.Controller
module Report = Rae_core.Report
module Checkpoint = Rae_core.Checkpoint
module Base = Rae_basefs.Base
module Server = Rae_srv.Server
module Tracer = Rae_obs.Tracer
module J = Rae_obs.Jsonx
module Spec = Rae_specfs.Spec
module Fsck = Rae_fsck.Fsck
module Lru = Rae_cache.Lru

let now = Stack.now
let process_start = now ()
let warmup_turns = 2000
let setup_reps = 7

(* ---- outcomes ---- *)

(* What the correctness gate compares: a hash of the outcome with fd
   numbers normalized (served fds are per-session virtual fds), or -1 for
   the failure classes (EIO, EAGAIN/Busy exhausted, protocol error),
   which the Spec never returns. *)
let fd_digest = Hashtbl.hash_param 256 256 (Ok (Op.Fd 0) : Op.outcome)

let digest (o : Op.outcome) =
  match o with
  | Error (Errno.EIO | Errno.EAGAIN | Errno.EPROTO) -> -1
  | Ok (Op.Fd _) -> fd_digest
  | o -> Hashtbl.hash_param 256 256 o

let populate exec (w : Gen.t) =
  let slot = Array.make 1 (-1) in
  w.populate (fun r ->
      let op = Gen.map_fd (fun k -> slot.(k)) r.op in
      match exec op with
      | Ok (Op.Fd fd) when r.bind >= 0 -> slot.(r.bind) <- fd
      | Ok _ -> ()
      | Error e -> failwith (Printf.sprintf "populate: %s: %s" (Op.to_string op) (Errno.to_string e)))

(* One copy of the workload's request streams with its fd slot tables. *)
type streams = {
  gens : (unit -> Gen.req) array;
  slots : int array array;
  reqs : Gen.req array;
  ops : Op.t array;
  outs : Op.outcome array;
}

let streams (w : Gen.t) =
  {
    gens = Array.init Gen.sessions w.session;
    slots = Array.init Gen.sessions (fun _ -> Array.make 64 (-1));
    reqs = Array.make Gen.sessions (Gen.plain Op.Sync);
    ops = Array.make Gen.sessions Op.Sync;
    outs = Array.make Gen.sessions (Ok Op.Unit);
  }

let next st =
  for s = 0 to Gen.sessions - 1 do
    let r = st.gens.(s) () in
    let sl = st.slots.(s) in
    st.reqs.(s) <- r;
    st.ops.(s) <- Gen.map_fd (fun k -> sl.(k)) r.op
  done

let bind st s (o : Op.outcome) =
  match o with Ok (Op.Fd fd) when st.reqs.(s).bind >= 0 -> st.slots.(s).(st.reqs.(s).bind) <- fd | _ -> ()

let settle st s o digests =
  bind st s o;
  Vec.push digests (digest o)

(* The server's scheduler starts each turn's round-robin at the session
   after the previous turn's start, counting every pump since it was
   created; [offset] is the pump count before the first stream turn. *)
let dispatch_order ~offset k i = (offset + k + i) mod Gen.sessions

(* ---- the served run ---- *)

type run = {
  sv : Stack.served;
  st : streams;
  digests : Vec.t;
  offset : int;
  mutable turns : int;
  lat_all : Vec.t;
  lat_read : Vec.t;
  lat_write : Vec.t;
  lat_sync : Vec.t;
  rec_lat : Vec.t;  (** client latency of the request each recovery ran in *)
  mutable ops : int;  (** measured ops *)
  mutable wall_ns : int;  (** measured turn time *)
  mutable user_bytes : int;
  lat : int array;
  tsend : int array;
}

let served_turn r ~measure =
  next r.st;
  let notes0 = r.sv.clients.(0).notes in
  let t0 = now () in
  Stack.turn r.sv r.st.ops r.lat r.tsend;
  let t1 = now () in
  for s = 0 to Gen.sessions - 1 do
    let o = Stack.reply r.sv s in
    settle r.st s o r.digests;
    if measure then begin
      let l = r.lat.(s) in
      Vec.push r.lat_all l;
      Vec.push
        (match Gen.cls r.st.ops.(s) with Gen.Read -> r.lat_read | Gen.Write -> r.lat_write | Gen.Sync -> r.lat_sync)
        l;
      match r.st.ops.(s) with
      | Op.Pwrite (_, _, d) -> r.user_bytes <- r.user_bytes + String.length d
      | _ -> ()
    end
  done;
  r.turns <- r.turns + 1;
  if measure then begin
    r.ops <- r.ops + Gen.sessions;
    r.wall_ns <- r.wall_ns + (t1 - t0);
    (* Both requests share the pump turn that ran the recovery; the one
       whose dispatch ran it is the slower of the two. *)
    for _ = 1 to r.sv.clients.(0).notes - notes0 do
      Vec.push r.rec_lat (Array.fold_left max 0 r.lat)
    done
  end;
  t1

(* Set-up: mkfs, mount, controller, server and clients, populate, the
   prologue (bigread's long-lived opens) and a warm-up, then a full major
   GC so every run starts from a collected heap. *)
let setup ?wrap_with (w : Gen.t) ~seed =
  let fs = Stack.build ?wrap_with ~variant:Stack.Rfsd ~bugs:w.bugs ~seed () in
  populate (Stack.exec_local fs) w;
  let sv = Stack.serve fs in
  let r =
    {
      sv;
      st = streams w;
      digests = Vec.create ();
      offset = sv.pumps;
      turns = 0;
      lat_all = Vec.create ();
      lat_read = Vec.create ();
      lat_write = Vec.create ();
      lat_sync = Vec.create ();
      rec_lat = Vec.create ();
      ops = 0;
      wall_ns = 0;
      user_bytes = 0;
      lat = Array.make Gen.sessions 0;
      tsend = Array.make Gen.sessions 0;
    }
  in
  for _ = 1 to w.prologue + warmup_turns do
    ignore (served_turn r ~measure:false)
  done;
  Gc.full_major ();
  r

type measured = { gc0 : Gc.stat; gc1 : Gc.stat; cpu_s : float; elapsed_ns : int }

let measure ?(each = ignore) r ~seconds =
  let gc0 = Gc.quick_stat () and cpu0 = Sys.time () in
  let t0 = now () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  while served_turn r ~measure:true < deadline do
    each ()
  done;
  let elapsed_ns = now () - t0 in
  let gc1 = Gc.quick_stat () and cpu1 = Sys.time () in
  { gc0; gc1; cpu_s = cpu1 -. cpu0; elapsed_ns }

(* ---- correctness gate (off the clock) ---- *)

let problems = ref []
let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems; prerr_endline ("perf: " ^ m)) fmt

let fsck_gate name (fs : Stack.fs) =
  let synced =
    match fs.ctl with Some c -> Controller.sync c | None -> Base.sync fs.base
  in
  (match synced with Ok () -> () | Error e -> problem "%s: final sync: %s" name (Errno.to_string e));
  let rep = Fsck.check_device fs.dev in
  if not (Fsck.clean rep) then problem "%s: fsck: %s" name (Format.asprintf "%a" Fsck.pp_report rep)

(* Replay the stream on the Spec in the served dispatch order and count
   ops whose outcome differs.  Failure-class outcomes never match. *)
let spec_gate name (w : Gen.t) ~offset ~turns digests =
  let spec = Spec.make () in
  populate (Spec.exec spec) w;
  let st = streams w in
  let bad = ref 0 in
  for k = 0 to turns - 1 do
    next st;
    for i = 0 to Gen.sessions - 1 do
      let s = dispatch_order ~offset k i in
      let o = Spec.exec spec st.ops.(s) in
      let got = Vec.get digests ((k * Gen.sessions) + s) in
      bind st s o;
      if digest o <> got then begin
        incr bad;
        if !bad <= 3 then
          problem "%s: turn %d session %d: %s: outcome differs from Spec (%s)" name k s
            (Op.to_string st.ops.(s)) (Format.asprintf "%a" Op.pp_outcome o)
      end
    done
  done;
  if !bad > 3 then problem "%s: %d outcomes differ from Spec" name !bad;
  !bad

let order_gate name (r : run) =
  if r.sv.pumps - r.offset <> r.turns then
    problem "%s: %d pumps for %d turns; dispatch order unknown" name (r.sv.pumps - r.offset) r.turns

(* ---- reporting helpers ---- *)

let us ns = float_of_int ns /. 1e3
let ms ns = float_of_int ns /. 1e6
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let per_kop n ops = 1000. *. ratio n ops
let p a q = Vec.quantile a q
let samples = ref []
let sample name n = samples := (name, J.Int n) :: !samples

let mb words = float_of_int words *. float_of_int (Sys.word_size / 8) /. 1048576.

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

(* ---- --trace 0: end to end ---- *)

let end_to_end (w : Gen.t) ~seed ~seconds =
  let r = setup w ~seed in
  let setup_first = now () - process_start in
  let m = measure r ~seconds in
  let heap = mb m.gc1.Gc.top_heap_words in
  let cs = Controller.stats r.sv.ctl in
  let all = Vec.sorted r.lat_all
  and rd = Vec.sorted r.lat_read
  and wr = Vec.sorted r.lat_write
  and sy = Vec.sorted r.lat_sync
  and rc = Vec.sorted r.rec_lat in
  List.iter
    (fun (n, a) -> sample n (Array.length a))
    [ ("op", all); ("read", rd); ("write", wr); ("sync", sy); ("recovery", rc) ];
  fsck_gate "served" r.sv.fs;
  order_gate "served" r;
  let bad = spec_gate "served" w ~offset:r.offset ~turns:r.turns r.digests in
  if cs.Controller.recoveries_failed > 0 then problem "%d recoveries failed" cs.Controller.recoveries_failed;
  let attempted = r.turns * Gen.sessions in
  let wall_s = float_of_int r.wall_ns /. 1e9 in
  let ops = r.ops in
  let extra =
    [
      ("wall_s", J.Float wall_s);
      ("elapsed_s", J.Float (float_of_int m.elapsed_ns /. 1e9));
      ("cpu_s", J.Float m.cpu_s);
      ("measured_ops", J.Int ops);
      ("recoveries", J.Int (Vec.length r.rec_lat));
      ("recovery_p50_ms", J.Float (ms (p rc 0.5)));
      ("recovery_p95_ms", J.Float (ms (p rc 0.95)));
      ("failed_ops_ratio", J.Float (ratio bad attempted));
    ]
  in
  (* Further set-ups for the setup_s median, after the measured phase so
     their garbage cannot reach heap_peak_mb. *)
  let more =
    List.init (setup_reps - 1) (fun _ ->
        let t0 = now () in
        ignore (Sys.opaque_identity (setup w ~seed));
        now () - t0)
  in
  let setups = setup_first :: more in
  let metrics =
    [
      ("setup_s", "s", float_of_int (median setups) /. 1e9);
      ("ops_per_s", "1/s", float_of_int ops /. wall_s);
      ("op_p50_us", "us", us (p all 0.5));
      ("op_p99_us", "us", us (p all 0.99));
      ("read_p50_us", "us", us (p rd 0.5));
      ("write_p50_us", "us", us (p wr 0.5));
      ("sync_p50_us", "us", us (p sy 0.5));
      ("heap_peak_mb", "MB", heap);
    ]
  in
  (attempted, bad, metrics, ("setups_s", J.List (List.map (fun n -> J.Float (float_of_int n /. 1e9)) setups)) :: extra)

(* ---- --trace 1: per layer ---- *)

type counters = {
  srv : Server.stats;
  ctl : Controller.stats;
  ck : Checkpoint.stats;
  bc : Lru.stats;
  ic : Lru.stats;
  dc : Lru.stats;
  dev : Stack.dev_stats;
  wire_bytes : int;
  busy : int;
  nrec : int;
}

let counters (r : run) dev =
  let ctl = r.sv.ctl and b = Controller.base r.sv.ctl in
  {
    srv = Server.stats r.sv.server;
    ctl = Controller.stats ctl;
    ck =
      (match Controller.checkpoint_stats ctl with
      | Some s -> s
      | None -> failwith "rfsd policy without checkpointing");
    bc = Base.bcache_stats b;
    ic = Base.icache_stats b;
    dc = Base.dcache_stats b;
    dev = { dev with Stack.reads = dev.Stack.reads };
    wire_bytes = Array.fold_left (fun a c -> a + c.Stack.bytes) 0 r.sv.clients;
    busy = Array.fold_left (fun a c -> a + c.Stack.busy) 0 r.sv.clients;
    nrec = List.length (Controller.recoveries ctl);
  }

(* A counter summed across instance replacements: a contained reboot
   swaps in a fresh journal and blk-mq layer whose counters start at 0,
   seen as a sample below the previous one. *)
type acc = { mutable last : int; mutable total : int }

let acc v = { last = v; total = 0 }

let acc_add a v =
  a.total <- a.total + (if v >= a.last then v - a.last else v);
  a.last <- v

let hit_ratio (a : Lru.stats) (b : Lru.stats) =
  ratio (b.Lru.hits - a.Lru.hits) (b.Lru.hits - a.Lru.hits + b.Lru.misses - a.Lru.misses)

(* The chain: the same stream through one more layer per arm. *)
type arm = {
  name : string;
  fs : Stack.fs;
  sv : Stack.served option;
  ast : streams;
  adig : Vec.t;
  dev : Stack.dev_stats;
  spans : Tracer.t option;
  mutable ns : int;
  mutable aturns : int;
  mutable offset : int;
  alat : int array;
  atsend : int array;
}

let arm_turn a ~measure =
  next a.ast;
  let t0 = now () in
  (match a.sv with
  | Some sv -> Stack.turn ?spans:a.spans sv a.ast.ops a.alat a.atsend
  | None ->
      for i = 0 to Gen.sessions - 1 do
        let s = dispatch_order ~offset:a.offset a.aturns i in
        (match a.spans with Some tr -> Tracer.span_begin tr ~cat:"arm" a.name | None -> ());
        a.ast.outs.(s) <- Stack.exec_session a.fs ~session:(s + 1) a.ast.ops.(s);
        match a.spans with Some tr -> Tracer.span_end tr | None -> ()
      done);
  if measure then a.ns <- a.ns + (now () - t0);
  for s = 0 to Gen.sessions - 1 do
    let o = match a.sv with Some sv -> Stack.reply sv s | None -> a.ast.outs.(s) in
    settle a.ast s o a.adig
  done;
  a.aturns <- a.aturns + 1

let make_arm (w : Gen.t) ~seed ~spans name variant ~serve =
  let dev = Stack.dev_stats () in
  let wrap_with = match spans with Some _ -> Stack.wrap ?spans dev | None -> Fun.id in
  let fs = Stack.build ~wrap_with ?variant ~bugs:[] ~seed () in
  populate (Stack.exec_local fs) w;
  let sv = if serve then Some (Stack.serve fs) else None in
  {
    name;
    fs;
    sv;
    ast = streams w;
    adig = Vec.create ();
    dev;
    spans;
    ns = 0;
    aturns = 0;
    offset = (match sv with Some sv -> sv.pumps | None -> 0);
    alat = Array.make Gen.sessions 0;
    atsend = Array.make Gen.sessions 0;
  }

let chunk_turns = 128

let chain (w : Gen.t) ~seed ~seconds ~tracer =
  let spans = Some tracer in
  let arms =
    [|
      make_arm w ~seed ~spans "base" None ~serve:false;
      make_arm w ~seed ~spans "core-bare" (Some Stack.Bare) ~serve:false;
      make_arm w ~seed ~spans "core-ckpt" (Some Stack.Ckpt) ~serve:false;
      make_arm w ~seed ~spans "core" (Some Stack.Rfsd) ~serve:false;
      make_arm w ~seed ~spans "served" (Some Stack.Rfsd) ~serve:true;
      make_arm w ~seed ~spans:None "served-untraced" (Some Stack.Rfsd) ~serve:true;
    |]
  in
  let n = Array.length arms in
  let offset = arms.(4).offset in
  Array.iter (fun a -> a.offset <- offset) arms;
  Array.iter
    (fun a ->
      for _ = 1 to w.prologue + warmup_turns do
        arm_turn a ~measure:false
      done;
      a.dev.Stack.dev_ns <- 0)
    arms;
  Gc.full_major ();
  (* Interleave the arms in chunks, rotating which goes first, so drift
     over the run lands on every arm alike. *)
  let deadline = now () + int_of_float (seconds *. 1e9) in
  let round = ref 0 in
  while now () < deadline || !round = 0 do
    for i = 0 to n - 1 do
      let a = arms.((i + !round) mod n) in
      for _ = 1 to chunk_turns do
        arm_turn a ~measure:true
      done
    done;
    incr round
  done;
  (arms, !round * chunk_turns * Gen.sessions)

let per_layer (w : Gen.t) ~seed ~seconds =
  (* Counters, recoveries and GC from an armed, untraced served run. *)
  let dev = Stack.dev_stats () in
  let r = setup ~wrap_with:(Stack.wrap dev) w ~seed in
  let c0 = counters r dev in
  let b = Controller.base r.sv.ctl in
  let jr () = Base.journal_stats b and mq () = Base.mq_stats b in
  let commits = acc (jr ()).Rae_journal.Journal.commits
  and logged = acc (jr ()).Rae_journal.Journal.blocks_logged
  and submitted = acc (mq ()).Rae_block.Blkmq.submitted
  and merged = acc (mq ()).Rae_block.Blkmq.merged in
  let each () =
    let j = jr () and q = mq () in
    acc_add commits j.Rae_journal.Journal.commits;
    acc_add logged j.Rae_journal.Journal.blocks_logged;
    acc_add submitted q.Rae_block.Blkmq.submitted;
    acc_add merged q.Rae_block.Blkmq.merged
  in
  let m = measure ~each r ~seconds:(seconds /. 2.) in
  let c1 = counters r dev in
  let ops = r.ops in
  let rc = Vec.sorted r.rec_lat in
  sample "recovery" (Array.length rc);
  let reports = List.filteri (fun i _ -> i >= c0.nrec) (Controller.recoveries r.sv.ctl) in
  let nrep = List.length reports in
  let phase_ns name (rep : Report.recovery) =
    List.fold_left (fun a ph -> if ph.Report.ph_name = name then a + Int64.to_int ph.Report.ph_ns else a) 0 rep.Report.r_phases
  in
  let phase_p50 name = p (Array.of_list (List.sort compare (List.map (phase_ns name) reports))) 0.5 in
  let phases = List.map (fun name -> (name, phase_p50 name)) Controller.phase_names in
  let mean f = if nrep = 0 then 0. else float_of_int (List.fold_left (fun a x -> a + f x) 0 reports) /. float_of_int nrep in
  let failed_a = c1.ctl.Controller.recoveries_failed - c0.ctl.Controller.recoveries_failed in
  let d f = f c1 - f c0 in
  fsck_gate "armed" r.sv.fs;
  order_gate "armed" r;
  let bad_a = spec_gate "armed" w ~offset:r.offset ~turns:r.turns r.digests in
  if failed_a > 0 then problem "%d recoveries failed" failed_a;
  let attempted_a = r.turns * Gen.sessions in
  let counters_metrics =
    [
      ("srv.batch_mean", "count", ratio (d (fun c -> c.srv.Server.served)) (d (fun c -> c.srv.Server.batches)));
      ("srv.bytes_per_op", "B", ratio (d (fun c -> c.wire_bytes)) ops);
      ("srv.busy_per_kop", "count", per_kop (d (fun c -> c.busy)) ops);
      ("core.recorded_per_op", "count", ratio (d (fun c -> c.ctl.Controller.total_recorded)) ops);
      ("core.max_window", "count", float_of_int c1.ctl.Controller.max_window);
      ("ckpt.cuts_per_kop", "count", per_kop (d (fun c -> c.ck.Checkpoint.cuts)) ops);
      ("ckpt.folds_per_kop", "count", per_kop (d (fun c -> c.ck.Checkpoint.folds)) ops);
      ( "ckpt.folded_per_recorded",
        "ratio",
        ratio (d (fun c -> c.ck.Checkpoint.folded_ops)) (d (fun c -> c.ctl.Controller.total_recorded)) );
      ("ckpt.seeded_ratio", "ratio", ratio (d (fun c -> c.ck.Checkpoint.seeded)) nrep);
      ("ckpt.fallbacks", "count", float_of_int (d (fun c -> c.ck.Checkpoint.fallbacks)));
      ("ckpt.poisons", "count", float_of_int (d (fun c -> c.ck.Checkpoint.poisons)));
      ("recovery.count", "count", float_of_int nrep);
      ("recovery.failed", "count", float_of_int failed_a);
      ("recovery.client_p50_ms", "ms", ms (p rc 0.5));
      ("recovery.client_p95_ms", "ms", ms (p rc 0.95));
    ]
    @ List.map (fun (name, ns) -> ("recovery." ^ name ^ "_ms", "ms", ms ns)) phases
    (* Phase times are the library's own (Report.ph_ns); the residual is
       what the client saw beyond them, so the parts sum to the p50. *)
    @ [
        ( "recovery.unattributed_ms",
          "ms",
          if nrep = 0 then 0. else ms (p rc 0.5 - List.fold_left (fun a (_, ns) -> a + ns) 0 phases) );
        ("recovery.replayed_mean", "count", mean (fun rep -> rep.Report.r_replayed));
        ("recovery.handoff_blocks_mean", "count", mean (fun rep -> rep.Report.r_handoff_blocks));
        ("cache.bcache_hit_ratio", "ratio", hit_ratio c0.bc c1.bc);
        ("cache.bcache_evictions_per_op", "count", ratio (c1.bc.Lru.evictions - c0.bc.Lru.evictions) ops);
        ("cache.icache_hit_ratio", "ratio", hit_ratio c0.ic c1.ic);
        ("cache.dcache_hit_ratio", "ratio", hit_ratio c0.dc c1.dc);
        ("journal.commits_per_kop", "count", per_kop commits.total ops);
        ( "journal.blocks_per_commit",
          "count",
          ratio logged.total commits.total );
        ("block.reads_per_op", "count", ratio (d (fun c -> c.dev.Stack.reads)) ops);
        ("block.writes_per_op", "count", ratio (d (fun c -> c.dev.Stack.writes)) ops);
        ("block.flushes_per_kop", "count", per_kop (d (fun c -> c.dev.Stack.flushes)) ops);
        ("block.write_amp", "ratio", ratio (d (fun c -> c.dev.Stack.written)) r.user_bytes);
        ( "block.mq_merge_ratio",
          "ratio",
          ratio merged.total submitted.total );
        ("gc.minor_words_per_op", "words", (m.gc1.Gc.minor_words -. m.gc0.Gc.minor_words) /. float_of_int ops);
        ("gc.promoted_words_per_op", "words", (m.gc1.Gc.promoted_words -. m.gc0.Gc.promoted_words) /. float_of_int ops);
        ( "gc.major_per_kop",
          "count",
          per_kop (m.gc1.Gc.major_collections - m.gc0.Gc.major_collections) ops );
      ]
  in
  let wall_a = float_of_int r.wall_ns /. 1e9 in
  let extra_a =
    [ ("armed_ops", J.Int ops); ("armed_wall_s", J.Float wall_a); ("armed_cpu_s", J.Float m.cpu_s) ]
  in
  (* Self times from the chain, with bugs disarmed; the armed stack is
     garbage by now. *)
  Gc.full_major ();
  let tracer = Tracer.create ~clock:Monotonic_clock.now ~max_events:131072 () in
  Tracer.enable tracer;
  let arms, chain_ops = chain w ~seed ~seconds:(seconds /. 2.) ~tracer in
  let per_op a = us a.ns /. float_of_int chain_ops in
  let base = per_op arms.(0) and bare = per_op arms.(1) and ckpt = per_op arms.(2) in
  let core = per_op arms.(3) and served_t = per_op arms.(4) and served_u = per_op arms.(5) in
  let dev_us = us arms.(0).dev.Stack.dev_ns /. float_of_int chain_ops in
  Array.iter
    (fun a ->
      if a.aturns <> arms.(0).aturns || Vec.length a.adig <> Vec.length arms.(0).adig then
        problem "chain: %s ran %d turns, base %d" a.name a.aturns arms.(0).aturns
      else begin
        let n = Vec.length a.adig in
        let rec first i = if i = n || Vec.get a.adig i <> Vec.get arms.(0).adig i then i else first (i + 1) in
        let i = first 0 in
        if i < n then problem "chain: %s differs from base at op %d" a.name i
      end;
      fsck_gate a.name a.fs)
    arms;
  Array.iter
    (fun a ->
      match a.sv with
      | Some sv when sv.pumps - a.offset <> a.aturns -> problem "chain: %s: dispatch order unknown" a.name
      | _ -> ())
    arms;
  let served = arms.(4) in
  let bad_b = spec_gate "chain" w ~offset:served.offset ~turns:served.aturns served.adig in
  let trace_path = Printf.sprintf ".bench_build/perf/trace-%s-%Ld.json" w.name seed in
  (try
     if not (Sys.file_exists ".bench_build") then Sys.mkdir ".bench_build" 0o755;
     if not (Sys.file_exists ".bench_build/perf") then Sys.mkdir ".bench_build/perf" 0o755;
     Tracer.write_chrome tracer trace_path;
     let ic = open_in_bin trace_path in
     let text = really_input_string ic (in_channel_length ic) in
     close_in ic;
     match Tracer.validate_chrome text with
     | Ok _ -> ()
     | Error e -> problem "chrome trace %s: %s" trace_path e
   with Sys_error e -> problem "chrome trace: %s" e);
  let layer_metrics =
    [
      ("srv.self_us_per_op", "us", served_t -. core);
      ("obs.us_per_op", "us", core -. ckpt);
      (* The whole checkpoint layer: commit-time cuts as well as folds. *)
      ("ckpt.fold_us_per_op", "us", ckpt -. bare);
      ("core.record_us_per_op", "us", bare -. base);
      ("basefs.self_us_per_op", "us", base -. dev_us);
      ("block.dev_us_per_op", "us", dev_us);
      ("bench.trace_overhead_pct", "%", 100. *. ((served_t /. served_u) -. 1.));
    ]
  in
  let extra_b =
    [
      ("chain_ops_per_arm", J.Int chain_ops);
      ("chain_us_per_op", J.Obj (Array.to_list (Array.map (fun a -> (a.name, J.Float (per_op a))) arms)));
      ("trace_file", J.Str trace_path);
      ("trace_events", J.Int (List.length (Tracer.events tracer)));
    ]
  in
  let attempted = attempted_a + (served.aturns * Gen.sessions) in
  (attempted, bad_a + bad_b, layer_metrics @ counters_metrics, extra_a @ extra_b)

(* ---- provenance ---- *)

let git_rev () =
  let read f =
    try
      let ic = open_in f in
      let l = input_line ic in
      close_in ic;
      Some (String.trim l)
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | Some h when String.length h > 5 && String.sub h 0 5 = "ref: " -> (
      match read (".git/" ^ String.sub h 5 (String.length h - 5)) with Some r -> r | None -> "unknown")
  | Some h -> h
  | None -> "unknown"

let provenance (w : Gen.t) ~seed ~trace =
  let g = Gc.get () in
  let pol = Stack.rfsd_policy and bc = Base.default_config and sc = Stack.server_config in
  J.Obj
    [
      ("workload", J.Str w.name);
      ("seed", J.Str (Int64.to_string seed));
      ("trace", J.Bool trace);
      ("git_rev", J.Str (git_rev ()));
      ("nproc", J.Int Gen.sessions);
      ("depth", J.Int 1);
      ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("profile", J.Str Build_info.profile);
      ("ocamlrunparam", J.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")));
      ( "gc",
        J.Obj
          [
            ("minor_heap_size", J.Int g.Gc.minor_heap_size);
            ("space_overhead", J.Int g.Gc.space_overhead);
            ("max_overhead", J.Int g.Gc.max_overhead);
            ("allocation_policy", J.Int g.Gc.allocation_policy);
            ("window_size", J.Int g.Gc.window_size);
            ("custom_major_ratio", J.Int g.Gc.custom_major_ratio);
            ("custom_minor_ratio", J.Int g.Gc.custom_minor_ratio);
          ] );
      ( "config",
        J.Obj
          [
            ("ckpt_enabled", J.Bool pol.Controller.ckpt_enabled);
            ("par_domains", J.Int pol.Controller.par_domains);
            ("ckpt_fold_interval", J.Int pol.Controller.ckpt_fold_interval);
            ("commit_interval", J.Int bc.Base.commit_interval);
            ("bcache_capacity", J.Int bc.Base.bcache_capacity);
            ("icache_capacity", J.Int bc.Base.icache_capacity);
            ("dcache_capacity", J.Int bc.Base.dcache_capacity);
            ("batch_max", J.Int sc.Server.batch_max);
            ("nblocks", J.Int Stack.nblocks);
            ("ninodes", J.Int Stack.ninodes);
            ("bugs", J.List (List.map (fun b -> J.Str b) w.bugs));
          ] );
    ]

(* ---- command line ---- *)

let usage () =
  prerr_endline "usage: main.exe --workload varmail|bigread|bugstorm --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := Int64.of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := Float.of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (Gen.find !workload ~seed:(Option.value ~default:0L !seed), !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when seconds > 0. ->
      let attempted, failed, metrics, extra =
        if trace then per_layer w ~seed ~seconds else end_to_end w ~seed ~seconds
      in
      let correct = !problems = [] && failed = 0 in
      let num v = if Float.is_finite v then J.Float v else J.Float 0. in
      print_endline
        (J.to_string
           (J.Obj
              [
                ("provenance", provenance w ~seed ~trace);
                ("samples", J.Obj (List.rev !samples));
                ("run", J.Obj extra);
                ("problems", J.List (List.rev_map (fun m -> J.Str m) !problems));
              ]));
      print_endline
        (J.to_string
           (J.Obj
              [
                ("correct", J.Bool correct);
                ("attempted", J.Int attempted);
                ("failed", J.Int failed);
                ( "metrics",
                  J.Obj
                    (List.map
                       (fun (name, unit, v) -> (name, J.Obj [ ("value", num v); ("unit", J.Str unit) ]))
                       metrics) );
              ]));
      exit (if correct then 0 else 1)
  | _ -> usage ()
