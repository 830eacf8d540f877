open Rae_vfs
module Shadow = Rae_shadowfs.Shadow

(* The warm shadow below is an ordinary [Shadow.t]: it holds a read-only
   device handle and funnels every update into its COW overlay, so the
   shadow-purity lint rule covers this module end to end — nothing here
   may reach a write-path sink.  The controller feeds us oplog suffixes
   and fd snapshots; we never see the base or the journal directly. *)

type stats = {
  cuts : int;  (** re-bases onto a freshly committed S0 *)
  attaches : int;  (** warm shadows attached (first due fold, or seed) *)
  attach_ns : int;  (** monotonic time spent attaching *)
  folds : int;  (** fold batches applied to the warm shadow *)
  fold_ns : int;  (** monotonic time spent folding *)
  folded_ops : int;  (** operations folded across all batches *)
  fold_divergences : int;  (** constrained-mode mismatches seen while folding *)
  seeded : int;  (** recoveries seeded from the checkpoint *)
  fallbacks : int;  (** seeded recoveries that fell back to the cold path *)
  poisons : int;  (** checkpoints discarded after an attach/fold/seed failure *)
}

type fds = (Types.fd * Types.ino * Types.open_flags) list

(* [Cut fds]: based on a committed S0, not attached yet — the S0
   descriptor table is all a cut keeps.  [Warm s]: attached, and folded
   up to [cursor].  [Cold]: poisoned, or never cut. *)
type warm = Cold | Cut of fds | Warm of Shadow.t

type t = {
  device : Rae_block.Device.t;
  config : Shadow.config;
  tracer : Rae_obs.Tracer.t option;
  events : Rae_obs.Events.t option;
  fold_interval : int;
  mutable warm : warm;
  mutable cursor : int;  (* first oplog seq the warm shadow has NOT folded *)
  mutable base_seq : int64;  (* journal commit seq of the S0 we are based on *)
  mutable s_cuts : int;
  mutable s_attaches : int;
  mutable s_attach_ns : int;
  mutable s_folds : int;
  mutable s_fold_ns : int;
  mutable s_folded_ops : int;
  mutable s_fold_divergences : int;
  mutable s_seeded : int;
  mutable s_fallbacks : int;
  mutable s_poisons : int;
}

let create ?tracer ?events ?(fast_paths = true) ~fold_interval device =
  {
    device;
    (* Never fsck on the warm path: the attach re-reads only the
       superblock and bitmaps (strict), and every folded op runs under
       the shadow's full runtime checks — continuous validation in place
       of the cold path's up-front scan. *)
    config = { Shadow.default_config with Shadow.fsck_on_attach = false; fast_paths };
    tracer;
    events;
    fold_interval = max 1 fold_interval;
    warm = Cold;
    cursor = 0;
    base_seq = 0L;
    s_cuts = 0;
    s_attaches = 0;
    s_attach_ns = 0;
    s_folds = 0;
    s_fold_ns = 0;
    s_folded_ops = 0;
    s_fold_divergences = 0;
    s_seeded = 0;
    s_fallbacks = 0;
    s_poisons = 0;
  }

let valid t = match t.warm with Cold -> false | Cut _ | Warm _ -> true
let cursor t = t.cursor
let base_seq t = t.base_seq
let now () = Int64.to_int (Rae_util.Monoclock.now_ns ())

let with_span t name f =
  match t.tracer with Some tr -> Rae_obs.Tracer.with_span tr ~cat:"ckpt" name f | None -> f ()

let poison t =
  if valid t then begin
    t.warm <- Cold;
    t.s_poisons <- t.s_poisons + 1;
    match t.events with Some ev -> Rae_obs.Events.record_ckpt_poison ev | None -> ()
  end

(* ---- cut: re-base the checkpoint on a freshly committed S0 ---- *)

(* The cut records where S0 is and defers the attach.  That is the same
   checkpoint as attaching now: the base writes the device only inside a
   commit, every commit re-cuts, and an attach reads only the committed
   image (superblock, bitmaps, then blocks on demand) — so until the next
   cut the device holds this S0, whenever the attach reads it. *)
let cut t ~window ~fds ~next_seq ~commit_seq =
  if window > 0 then
    Error
      (Printf.sprintf "refusing checkpoint cut: op window holds %d uncommitted operation(s)"
         window)
  else begin
    t.warm <- Cut fds;
    t.cursor <- next_seq;
    t.base_seq <- commit_seq;
    t.s_cuts <- t.s_cuts + 1;
    (match t.events with Some ev -> Rae_obs.Events.record_ckpt_cut ev | None -> ());
    Ok ()
  end

(* The work a cut defers: attach a shadow to S0 and reinstate the S0
   descriptors.  A device error or a check failure is an attach failure. *)
let attach t fds =
  with_span t "ckpt-attach" (fun () ->
      let t0 = now () in
      let rec install shadow = function
        | [] -> Ok shadow
        | (fd, ino, flags) :: rest -> (
            match Shadow.install_fd shadow ~fd ~ino flags with
            | Ok () -> install shadow rest
            | Error msg -> Error ("warm fd reinstatement: " ^ msg))
      in
      let r =
        match Shadow.attach ~config:t.config t.device with
        | Error msg -> Error ("warm attach: " ^ msg)
        | Ok shadow -> install shadow fds
        | exception (Shadow.Violation msg | Rae_block.Device.Io_error msg) ->
            Error ("warm attach: " ^ msg)
      in
      t.s_attaches <- t.s_attaches + 1;
      t.s_attach_ns <- t.s_attach_ns + (now () - t0);
      r)

(* ---- fold: advance the warm shadow through the recorded suffix ---- *)

let due t ~next_seq = valid t && next_seq - t.cursor >= t.fold_interval

let fold_into t warm ~entries ~next_seq =
  with_span t "ckpt-fold" (fun () ->
      let t0 = now () in
      (try
         (* The whole window goes to the shadow in one batched pass: the
            shadow amortizes superblock/bitmap write-back and the summary
            re-check across the window instead of paying them per op.
            Divergences keep the shadow's own answer, same policy as cold
            constrained replay; the count surfaces through stats/metrics. *)
         let res = Shadow.exec_constrained_window warm entries in
         t.cursor <- next_seq;
         t.s_folds <- t.s_folds + 1;
         t.s_folded_ops <- t.s_folded_ops + res.Shadow.w_ops;
         t.s_fold_divergences <- t.s_fold_divergences + res.Shadow.w_divergences;
         match t.events with
         | Some ev -> Rae_obs.Events.record_ckpt_fold ev ~ops:res.Shadow.w_ops
         | None -> ()
       with Shadow.Violation _ | Rae_block.Device.Io_error _ ->
         (* The warm replica refuses the fold — don't disturb the hot
            path; recovery will take the cold route until the next cut. *)
         poison t);
      t.s_fold_ns <- t.s_fold_ns + (now () - t0))

let fold t ~entries ~next_seq =
  match t.warm with
  | Cold -> ()
  | Warm warm -> fold_into t warm ~entries ~next_seq
  | Cut fds -> (
      match attach t fds with
      | Error _ -> poison t
      | Ok warm ->
          t.warm <- Warm warm;
          fold_into t warm ~entries ~next_seq)

(* ---- seed: hand recovery a shadow pre-advanced to the cursor ---- *)

let seed t =
  let seeded shadow =
    t.s_seeded <- t.s_seeded + 1;
    Ok (shadow, t.cursor)
  in
  match t.warm with
  | Cold -> Error "no warm checkpoint"
  | Cut fds -> (
      (* Nothing folded since the cut: the seed is the deferred attach
         itself, on the S0 the contained reboot left on the device.  The
         checkpoint stays a cut, so a failed recovery can seed again. *)
      match attach t fds with
      | Ok shadow -> seeded shadow
      | Error msg ->
          poison t;
          Error ("checkpoint seed: " ^ msg))
  | Warm warm -> (
      match Shadow.attach_from ~config:t.config (Shadow.export_state warm) t.device with
      | Ok shadow -> seeded shadow
      | Error msg ->
          poison t;
          Error ("checkpoint seed: " ^ msg))

let note_fallback t = t.s_fallbacks <- t.s_fallbacks + 1

(* ---- introspection ---- *)

let stats t =
  {
    cuts = t.s_cuts;
    attaches = t.s_attaches;
    attach_ns = t.s_attach_ns;
    folds = t.s_folds;
    fold_ns = t.s_fold_ns;
    folded_ops = t.s_folded_ops;
    fold_divergences = t.s_fold_divergences;
    seeded = t.s_seeded;
    fallbacks = t.s_fallbacks;
    poisons = t.s_poisons;
  }

let reset_stats t =
  t.s_cuts <- 0;
  t.s_attaches <- 0;
  t.s_attach_ns <- 0;
  t.s_folds <- 0;
  t.s_fold_ns <- 0;
  t.s_folded_ops <- 0;
  t.s_fold_divergences <- 0;
  t.s_seeded <- 0;
  t.s_fallbacks <- 0;
  t.s_poisons <- 0

let register_obs reg t =
  let module M = Rae_obs.Metrics in
  M.register_counter reg ~help:"warm checkpoint cuts (re-bases on a committed S0)"
    ~reset:(fun () -> t.s_cuts <- 0)
    "rae_ckpt_cuts_total"
    (fun () -> t.s_cuts);
  M.register_counter reg ~help:"warm shadows attached (a cut's deferred attach, or a seed)"
    ~reset:(fun () -> t.s_attaches <- 0)
    "rae_ckpt_attaches_total"
    (fun () -> t.s_attaches);
  M.register_counter reg ~help:"monotonic nanoseconds spent attaching warm shadows"
    ~reset:(fun () -> t.s_attach_ns <- 0)
    "rae_ckpt_attach_ns_total"
    (fun () -> t.s_attach_ns);
  M.register_counter reg ~help:"monotonic nanoseconds spent folding"
    ~reset:(fun () -> t.s_fold_ns <- 0)
    "rae_ckpt_fold_ns_total"
    (fun () -> t.s_fold_ns);
  M.register_counter reg ~help:"fold batches applied to the warm shadow"
    ~reset:(fun () -> t.s_folds <- 0)
    "rae_ckpt_folds_total"
    (fun () -> t.s_folds);
  M.register_counter reg ~help:"operations folded into the warm shadow"
    ~reset:(fun () -> t.s_folded_ops <- 0)
    "rae_ckpt_folded_ops_total"
    (fun () -> t.s_folded_ops);
  M.register_counter reg ~help:"constrained-mode divergences observed while folding"
    ~reset:(fun () -> t.s_fold_divergences <- 0)
    "rae_ckpt_fold_divergences_total"
    (fun () -> t.s_fold_divergences);
  M.register_counter reg ~help:"recoveries seeded from the warm checkpoint"
    ~reset:(fun () -> t.s_seeded <- 0)
    "rae_ckpt_seeded_total"
    (fun () -> t.s_seeded);
  M.register_counter reg ~help:"seeded recoveries that fell back to the cold path"
    ~reset:(fun () -> t.s_fallbacks <- 0)
    "rae_ckpt_fallbacks_total"
    (fun () -> t.s_fallbacks);
  M.register_counter reg ~help:"checkpoints discarded after an attach, fold or seed failure"
    ~reset:(fun () -> t.s_poisons <- 0)
    "rae_ckpt_poisons_total"
    (fun () -> t.s_poisons);
  M.register_gauge reg ~help:"1 while a warm checkpoint is available" "rae_ckpt_valid" (fun () ->
      if valid t then 1. else 0.)
