(* The scenario engine: glue the recorder, the enumerator and the oracle
   into sweeps, and handle the operator-facing workflows — divergence
   bundles, key replay, and greedy workload minimization. *)

module Op = Rae_vfs.Op
module Workload = Rae_workload.Workload
module Blackbox = Rae_obs.Blackbox
module Jsonx = Rae_obs.Jsonx

type config = {
  prefix_stride : int;
  max_subset_bits : int;
  samples_per_epoch : int;
  seed : int64;
  bundle_dir : string option;  (* write a postmortem bundle per divergence *)
  run_id : string;
}

let default_config =
  {
    prefix_stride = 1;
    max_subset_bits = 5;
    samples_per_epoch = 12;
    seed = 0xC4A5DL;
    bundle_dir = None;
    run_id = "crashstudy";
  }

type divergence = { d_label : string; d_key : string; d_reason : string }

type stats = {
  s_workloads : int;
  s_points : int;
  s_consistent : int;
  s_repaired : int;
  s_diverging : divergence list;
}

let empty_stats =
  { s_workloads = 0; s_points = 0; s_consistent = 0; s_repaired = 0; s_diverging = [] }

let merge a b =
  {
    s_workloads = a.s_workloads + b.s_workloads;
    s_points = a.s_points + b.s_points;
    s_consistent = a.s_consistent + b.s_consistent;
    s_repaired = a.s_repaired + b.s_repaired;
    s_diverging = a.s_diverging @ b.s_diverging;
  }

let pp_op = Op.pp
let render_ops ops = Format.asprintf "%a" (Fmt.list ~sep:(Fmt.any "; ") pp_op) ops

(* ---- divergence bundles (PR 7 postmortem format, kind "crash") ---- *)

(* A bundle's [seq] (and so its file name) comes from the workload's
   index in its sweep and the point's position in the workload's plan,
   not from a process-wide counter: forked sweep workers would each
   restart such a counter and overwrite each other's files. *)
let points_per_workload = 1_000_000

let emit_bundle cfg ~index ~pos ~label (t : Recording.t) (o : Oracle.outcome) =
  match cfg.bundle_dir with
  | None -> ()
  | Some dir ->
      let seq = (index * points_per_workload) + pos in
      let reason =
        match o.Oracle.o_verdict with Oracle.Diverging r -> r | _ -> "not-diverging"
      in
      let lo, hi = o.Oracle.o_candidates in
      let json =
        Jsonx.Obj
          [
            ("schema", Jsonx.Str Blackbox.schema_version);
            ("kind", Jsonx.Str Blackbox.kind_crash);
            ("seq", Jsonx.Int seq);
            ("ts_ns", Jsonx.Int 0);
            ("rev", Jsonx.Str (Blackbox.git_rev ()));
            ("run_id", Jsonx.Str cfg.run_id);
            ("health", Jsonx.Str "DEGRADED");
            ( "policy",
              Jsonx.Obj
                [
                  ("workload", Jsonx.Str label);
                  ("ops", Jsonx.List (Array.to_list t.Recording.ops |> List.map (fun op -> Jsonx.Str (Format.asprintf "%a" pp_op op))));
                  ("barriers", Jsonx.Bool t.Recording.barriers);
                  ("nblocks", Jsonx.Int t.Recording.nblocks);
                  ("ninodes", Jsonx.Int t.Recording.ninodes);
                  ("commit_interval", Jsonx.Int t.Recording.commit_interval);
                ] );
            ("checkpoint", Jsonx.Null);
            ("journal", Jsonx.Null);
            ("metrics", Jsonx.Obj [ ("events", Jsonx.Int (Array.length t.Recording.events)) ]);
            ( "events",
              Jsonx.List
                [
                  Jsonx.Obj
                    [
                      ("seq", Jsonx.Int 0);
                      ("ts_ns", Jsonx.Int 0);
                      ("kind", Jsonx.Str "crash-divergence");
                      ("key", Jsonx.Str o.Oracle.o_key);
                    ];
                ] );
            ( "recovery",
              Jsonx.Obj
                [
                  ("trigger", Jsonx.Str ("crash-divergence:" ^ o.Oracle.o_key));
                  ("outcome", Jsonx.Str reason);
                  ("window", Jsonx.Int (hi - lo + 1));
                  ("replayed", Jsonx.Int 0);
                  ("skipped", Jsonx.Int 0);
                  ("seeded", Jsonx.Bool t.Recording.seeded_recovery);
                  ("phases", Jsonx.List []);
                ] );
            ("impacted_sessions", Jsonx.List []);
          ]
      in
      (* Best-effort, like the controller's bundle writer: a sweep must
         not fail because the bundle directory is unwritable. *)
      (match Blackbox.write ~dir ~seq ~kind:Blackbox.kind_crash json with
      | Ok _ | Error _ -> ())

(* ---- sweeps ---- *)

let sweep_indexed ?(cfg = default_config) ?(from_event = 0) ~index ~label (t : Recording.t) =
  let points =
    Enumerate.plan ~prefix_stride:cfg.prefix_stride ~max_subset_bits:cfg.max_subset_bits
      ~samples_per_epoch:cfg.samples_per_epoch ~seed:cfg.seed ~from_event t
  in
  List.fold_left
    (fun acc p ->
      let o = Oracle.judge t p in
      match o.Oracle.o_verdict with
      | Oracle.Consistent -> { acc with s_points = acc.s_points + 1; s_consistent = acc.s_consistent + 1 }
      | Oracle.Repaired -> { acc with s_points = acc.s_points + 1; s_repaired = acc.s_repaired + 1 }
      | Oracle.Diverging reason ->
          (* [s_points] so far is this point's position in the plan. *)
          emit_bundle cfg ~index ~pos:acc.s_points ~label t o;
          {
            acc with
            s_points = acc.s_points + 1;
            s_diverging =
              { d_label = label; d_key = o.Oracle.o_key; d_reason = reason } :: acc.s_diverging;
          })
    { empty_stats with s_workloads = 1 }
    points

let sweep_recording ?cfg ?from_event ~label t = sweep_indexed ?cfg ?from_event ~index:0 ~label t

let sweep_ops ?cfg ?(barriers = true) ~label ops =
  sweep_recording ?cfg ~label (Recording.record ~barriers ops)

(* Workloads are pairwise independent — each sweep records onto its own
   fresh image and judges each crash point against a fresh mount — so
   the sweep splits at workload granularity across forked worker
   processes.  Worker [w] sweeps workloads w, w + N, w + 2N, ... and
   sends its (index, stats) list, or its exception text, over a pipe.
   The parent merges in workload order, so the result (divergence list
   included) is identical to the sequential sweep's.  Processes share no
   heap, so the workers share no minor collection. *)
let sweep_workloads ?cfg ?(workers = 1) ?(barriers = true) workloads =
  let workloads = Array.of_list workloads in
  let n = Array.length workloads in
  let sweep_one i =
    let label, ops = workloads.(i) in
    sweep_indexed ?cfg ~index:i ~label (Recording.record ~barriers ops)
  in
  let workers = min workers n in
  if workers <= 1 then Array.fold_left merge empty_stats (Array.init n sweep_one)
  else begin
    (* Buffered output would otherwise be flushed once more by every
       child that inherits it. *)
    flush stdout;
    flush stderr;
    let spawn w =
      let rd, wr = Unix.pipe ~cloexec:true () in
      match Unix.fork () with
      | 0 ->
          Unix.close rd;
          let result : ((int * stats) list, string) result =
            match
              List.init ((n - w + workers - 1) / workers) (fun k ->
                  let i = w + (k * workers) in
                  (i, sweep_one i))
            with
            | r -> Ok r
            | exception e -> Error (Printexc.to_string e)
          in
          (* A failed write shows up in the parent as a missing result;
             the child itself must never return into the caller. *)
          (match
             let oc = Unix.out_channel_of_descr wr in
             Marshal.to_channel oc result [];
             close_out oc
           with
          | () | (exception Sys_error _) -> ());
          Unix._exit 0
      | pid ->
          Unix.close wr;
          (w, pid, rd)
    in
    let children = List.init workers spawn in
    let results =
      List.map
        (fun (w, pid, rd) ->
          let ic = Unix.in_channel_of_descr rd in
          let r : ((int * stats) list, string) result =
            match Marshal.from_channel ic with
            | r -> r
            | exception (End_of_file | Failure _) -> Error "exited without a result"
          in
          close_in ic;
          ignore (Unix.waitpid [] pid);
          Result.map_error (Printf.sprintf "crash sweep worker %d: %s" w) r)
        children
    in
    let slots = Array.make n empty_stats in
    List.iter
      (function
        | Ok l -> List.iter (fun (i, s) -> slots.(i) <- s) l
        | Error msg -> failwith msg)
      results;
    Array.fold_left merge empty_stats slots
  end

let sweep_bounded ?cfg ?workers ?barriers ~max_workloads () =
  sweep_workloads ?cfg ?workers ?barriers (Bounded.sample ~max:max_workloads)

let sweep_full ?cfg ?workers () =
  sweep_workloads ?cfg ?workers
    (List.map (fun ops -> (Bounded.label ops, ops)) (Bounded.all ()))

let sweep_targeted ?cfg ?(count = 40) ?(seeds = [ 1L; 2L ]) ?(profiles = [ Workload.Varmail; Workload.Metadata ]) () =
  List.concat_map (fun profile -> List.map (fun seed -> (profile, seed)) seeds) profiles
  |> List.mapi (fun index (profile, seed) ->
         let rng = Rae_util.Rng.create seed in
         let ops = Workload.ops profile rng ~count in
         let label = Printf.sprintf "%s:%Ld:%d" (Workload.profile_name profile) seed count in
         sweep_indexed ?cfg ~index ~label
           (Recording.record ~nblocks:2048 ~ninodes:256 ~commit_interval:8 ops))
  |> List.fold_left merge empty_stats

(* Crash during recovery / during the checkpoint-fold-seeded recovery:
   record through the controller with the armed panic, then enumerate
   only the recovery pipeline's own write suffix. *)
let sweep_recovery ?cfg ?(count = 24) ?(seed = 7L) ~ckpt () =
  let rng = Rae_util.Rng.create seed in
  let ops = Workload.ops Workload.Varmail rng ~count in
  let t = Recording.record_recovery ~ckpt ops in
  if ckpt && not t.Recording.seeded_recovery then
    invalid_arg "Rae_crash.Engine.sweep_recovery: checkpointed run did not seed from the checkpoint";
  let from_event =
    match t.Recording.recovery_from with
    | Some e -> e
    | None -> invalid_arg "Rae_crash.Engine.sweep_recovery: recording has no recovery suffix"
  in
  let label = Printf.sprintf "recovery:%s:%Ld:%d" (if ckpt then "ckpt" else "cold") seed count in
  sweep_recording ?cfg ~from_event ~label t

(* ---- operator workflows ---- *)

let first_divergence ?cfg ?(barriers = true) ops =
  let stats = sweep_ops ?cfg ~barriers ~label:(render_ops ops) ops in
  match List.rev stats.s_diverging with d :: _ -> Some d | [] -> None

(* Greedy delta-debugging: drop one op at a time while the workload still
   diverges somewhere.  Bounded workloads are tiny, so the quadratic scan
   is fine. *)
let minimize ?cfg ?(barriers = true) ops =
  let diverges ops = ops <> [] && first_divergence ?cfg ~barriers ops <> None in
  let rec shrink ops =
    let n = List.length ops in
    let rec try_drop i =
      if i >= n then ops
      else
        let cand = List.filteri (fun j _ -> j <> i) ops in
        if diverges cand then shrink cand else try_drop (i + 1)
    in
    try_drop 0
  in
  if diverges ops then Some (shrink ops) else None

let repro ?(barriers = true) ~key ops =
  let t = Recording.record ~barriers ops in
  match Enumerate.bounds_of_key t key with
  | None -> Error (Printf.sprintf "key %S does not parse against this recording" key)
  | Some (guaranteed, applied_hi) ->
      Ok (Oracle.judge t { Enumerate.p_key = key; p_guaranteed = guaranteed; p_applied_hi = applied_hi })

let pp_stats ppf s =
  Format.fprintf ppf "workloads=%d points=%d consistent=%d repaired=%d diverging=%d"
    s.s_workloads s.s_points s.s_consistent s.s_repaired (List.length s.s_diverging)
