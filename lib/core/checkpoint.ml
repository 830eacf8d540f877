open Rae_vfs
module Shadow = Rae_shadowfs.Shadow

(* The warm shadow below is an ordinary [Shadow.t]: it holds a read-only
   device handle and funnels every update into its COW overlay, so the
   shadow-purity lint rule covers this module end to end — nothing here
   may reach a write-path sink.  The controller feeds us oplog suffixes
   and fd snapshots; we never see the base or the journal directly. *)

type stats = {
  cuts : int;  (** re-bases onto a freshly committed S0 *)
  folds : int;  (** fold batches applied to the warm shadow *)
  folded_ops : int;  (** operations folded across all batches *)
  fold_divergences : int;  (** constrained-mode mismatches seen while folding *)
  seeded : int;  (** recoveries seeded from the checkpoint *)
  fallbacks : int;  (** seeded recoveries that fell back to the cold path *)
  poisons : int;  (** checkpoints discarded after a fold/seed failure *)
}

type t = {
  device : Rae_block.Device.t;
  config : Shadow.config;
  tracer : Rae_obs.Tracer.t option;
  events : Rae_obs.Events.t option;
  fold_interval : int;
  mutable warm : Shadow.t option;  (* None: poisoned or never cut *)
  mutable cursor : int;  (* first oplog seq the warm shadow has NOT folded *)
  mutable base_seq : int64;  (* journal commit seq of the S0 we are based on *)
  mutable s_cuts : int;
  mutable s_folds : int;
  mutable s_folded_ops : int;
  mutable s_fold_divergences : int;
  mutable s_seeded : int;
  mutable s_fallbacks : int;
  mutable s_poisons : int;
}

let create ?tracer ?events ?(fast_paths = true) ~shadow_checks ~fold_interval device =
  {
    device;
    (* Never fsck on the warm path: the cut re-reads only the superblock
       and bitmaps (strict), and every folded op runs under the shadow's
       full runtime checks — continuous validation in place of the cold
       path's up-front scan. *)
    config =
      {
        Shadow.default_config with
        Shadow.checks = shadow_checks;
        fsck_on_attach = false;
        fast_paths;
      };
    tracer;
    events;
    fold_interval = max 1 fold_interval;
    warm = None;
    cursor = 0;
    base_seq = 0L;
    s_cuts = 0;
    s_folds = 0;
    s_folded_ops = 0;
    s_fold_divergences = 0;
    s_seeded = 0;
    s_fallbacks = 0;
    s_poisons = 0;
  }

let valid t = t.warm <> None
let cursor t = t.cursor
let base_seq t = t.base_seq

let with_span t name f =
  match t.tracer with Some tr -> Rae_obs.Tracer.with_span tr ~cat:"ckpt" name f | None -> f ()

let poison t =
  if t.warm <> None then begin
    t.warm <- None;
    t.s_poisons <- t.s_poisons + 1;
    match t.events with Some ev -> Rae_obs.Events.record_ckpt_poison ev | None -> ()
  end

(* ---- cut: re-base the checkpoint on a freshly committed S0 ---- *)

let cut t ~window ~fds ~next_seq ~commit_seq =
  if window > 0 then
    Error
      (Printf.sprintf "refusing checkpoint cut: op window holds %d uncommitted operation(s)"
         window)
  else
    with_span t "ckpt-cut" (fun () ->
        match Shadow.attach ~config:t.config t.device with
        | Error msg ->
            poison t;
            Error ("warm attach: " ^ msg)
        | Ok warm -> (
            let rec install = function
              | [] -> Ok ()
              | (fd, ino, flags) :: rest -> (
                  match Shadow.install_fd warm ~fd ~ino flags with
                  | Ok () -> install rest
                  | Error msg -> Error ("warm fd reinstatement: " ^ msg))
            in
            match install fds with
            | Error _ as e ->
                poison t;
                e
            | Ok () ->
                t.warm <- Some warm;
                t.cursor <- next_seq;
                t.base_seq <- commit_seq;
                t.s_cuts <- t.s_cuts + 1;
                (match t.events with
                | Some ev -> Rae_obs.Events.record_ckpt_cut ev
                | None -> ());
                Ok ()))

(* ---- fold: advance the warm shadow through the recorded suffix ---- *)

let due t ~next_seq =
  match t.warm with
  | None -> false
  | Some _ -> next_seq - t.cursor >= t.fold_interval

let fold t ~entries ~next_seq =
  match t.warm with
  | None -> ()
  | Some warm ->
      with_span t "ckpt-fold" (fun () ->
          try
            (* The whole window goes to the shadow in one batched pass:
               the shadow amortizes superblock/bitmap write-back and the
               summary re-check across the window instead of paying them
               per op.  Divergences keep the shadow's own answer, same
               policy as cold constrained replay; the count surfaces
               through stats/metrics. *)
            let window = List.filter (fun r -> r.Op.seq >= t.cursor) entries in
            let res = Shadow.exec_constrained_window warm window in
            t.cursor <- next_seq;
            t.s_folds <- t.s_folds + 1;
            t.s_folded_ops <- t.s_folded_ops + res.Shadow.w_ops;
            t.s_fold_divergences <- t.s_fold_divergences + res.Shadow.w_divergences;
            match t.events with
            | Some ev -> Rae_obs.Events.record_ckpt_fold ev ~ops:res.Shadow.w_ops
            | None -> ()
          with Shadow.Violation _ ->
            (* The warm replica refuses the fold — don't disturb the hot
               path; recovery will take the cold route until the next cut. *)
            poison t)

(* ---- seed: hand recovery a shadow pre-advanced to the cursor ---- *)

let seed t =
  match t.warm with
  | None -> Error "no warm checkpoint"
  | Some warm -> (
      match Shadow.attach_from ~config:t.config (Shadow.export_state warm) t.device with
      | Ok shadow ->
          t.s_seeded <- t.s_seeded + 1;
          Ok (shadow, t.cursor)
      | Error msg ->
          poison t;
          Error ("checkpoint seed: " ^ msg))

let note_fallback t = t.s_fallbacks <- t.s_fallbacks + 1

(* ---- introspection ---- *)

let stats t =
  {
    cuts = t.s_cuts;
    folds = t.s_folds;
    folded_ops = t.s_folded_ops;
    fold_divergences = t.s_fold_divergences;
    seeded = t.s_seeded;
    fallbacks = t.s_fallbacks;
    poisons = t.s_poisons;
  }

let reset_stats t =
  t.s_cuts <- 0;
  t.s_folds <- 0;
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
  M.register_counter reg ~help:"checkpoints discarded after a fold or seed failure"
    ~reset:(fun () -> t.s_poisons <- 0)
    "rae_ckpt_poisons_total"
    (fun () -> t.s_poisons);
  M.register_gauge reg ~help:"1 while a warm checkpoint is available" "rae_ckpt_valid" (fun () ->
      if valid t then 1. else 0.)
