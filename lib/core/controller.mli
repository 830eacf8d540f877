(** The RAE controller: Robust Alternative Execution.

    This module is the paper's contribution.  It wraps a mounted base
    filesystem and exposes the same API; in the common case every call
    goes straight to the base at full speed, with RAE recording the
    operation and its outcome.  When the base hits a runtime error —
    a BUG/panic, a detected hang, a WARN (configurable), or a failed
    commit-barrier validation — the controller runs the recovery protocol
    of paper §3.2:

    + {b contained reboot} — the base's volatile state is discarded and
      rebuilt from the trusted on-disk state S0 (journal replay included);
      applications and their descriptors are preserved by RAE, not by the
      base;
    + {b state reconstruction} — a fresh shadow filesystem is attached to
      the device (read-only; optionally behind a full fsck of S0).  The
      descriptor table recorded at the last commit is reinstated, then the
      recorded window replays in {e constrained mode}: operations that
      failed in the base are omitted, successful ones are re-executed and
      their outcomes cross-checked against the record (discrepancies are
      reported; policy decides whether to abort).  The in-flight operation
      — whose result the application has not yet seen — runs in
      {e autonomous mode}: the shadow makes its own policy decisions and
      its outcome is what the application receives;
    + {b error avoidance} — the base never re-executes the triggering
      sequence.  It absorbs the shadow's overlay via
      {!Rae_basefs.Base.download_metadata} (metadata installed dirty
      through the base's own logic, then committed) and resumes.  An
      in-flight [fsync]/[sync] is delegated back to the rebooted base
      after hand-off, since the shadow never persists anything.

    If recovery itself fails (the image is corrupt beyond the journal, or
    the shadow's invariant checks reject the replay), the controller
    degrades to fail-stop: the triggering operation and all subsequent
    ones return [EIO], but the process survives — availability degrades
    gracefully instead of crashing the machine. *)

type policy = {
  treat_warnings_as_errors : bool;  (** WARN triggers recovery (default true) *)
  fsck_before_recovery : bool;
      (** run the full image check before trusting S0 (paper §4.3's
          verified-fsck liveness requirement; default true) *)
  cross_check : bool;  (** compare shadow outcomes against the record (default true) *)
  abort_on_discrepancy : bool;
      (** treat a cross-check mismatch as a failed recovery instead of
          preferring the shadow's answer (default false) *)
  max_recovery_attempts : int;  (** per-operation bound on recursive recoveries (default 3) *)
  shadow_checks : bool;  (** the shadow's runtime invariant checking (default true) *)
  ckpt_enabled : bool;
      (** maintain a warm shadow {!Checkpoint} so recovery replays only
          the Δ suffix past the last fold instead of the whole window
          (default false) *)
  ckpt_fold_interval : int;
      (** fold the warm shadow forward every this-many recorded
          operations (default 32) *)
  ckpt_fast_paths : bool;
      (** let the warm shadow use its caching fast paths while folding
          (default true); disabling reproduces the naive shadow for
          overhead measurements *)
  slow_op_ns : int;
      (** flight-recorder threshold: an op completing slower than this
          earns a [Slow_op] event next to its [Op_done]
          (default 10ms) *)
  par_domains : int;
      (** [> 1] moves the checkpoint fold onto one background domain:
          the record step only enqueues, and recovery's seed phase awaits
          the in-flight fold.  Every value above 1 does the same, and
          without [ckpt_enabled] it does nothing.  Default 1: every path
          runs on the calling domain, as the shipped [rfsd] configuration
          does.  Retire a [> 1] controller with {!shutdown}. *)
}

val default_policy : policy

type stats = {
  ops : int;  (** operations executed through the controller *)
  recoveries : int;
  recoveries_failed : int;
  discrepancies : int;
  window : int;  (** currently recorded (volatile) operations *)
  max_window : int;
  total_recorded : int;
  total_discarded : int;
}

type t

val make :
  ?policy:policy ->
  ?tracer:Rae_obs.Tracer.t ->
  ?events:Rae_obs.Events.t ->
  ?bundle_dir:string ->
  ?run_id:string ->
  device:Rae_block.Device.t ->
  Rae_basefs.Base.t ->
  t
(** Wrap a mounted base.  The controller registers itself on the base's
    commit hook to prune the oplog.  When [tracer] is given it is also
    attached to the base (commit/destage/replay spans), and every recovery
    emits one [recovery] span containing one child span per §3.2 phase
    plus per-op replay spans.

    When [events] is given the flight recorder is attached to the whole
    stack (controller op/recovery events, checkpoint cut/fold/poison,
    base bug-registry triggers) and its clock is slaved to the
    controller's.  When [bundle_dir] is given, every recovery completion
    and every fail-stop entry writes a postmortem black-box bundle there
    (see {!Rae_obs.Blackbox}); [run_id] is stamped into each bundle. *)

val exec : t -> Rae_vfs.Op.t -> Rae_vfs.Op.outcome
(** Execute one operation with transparent recovery.  Never raises the
    base's runtime-error exceptions.  Equivalent to
    [exec_for ~corr:0 ~session:0]. *)

val exec_for : t -> corr:int -> session:int -> Rae_vfs.Op.t -> Rae_vfs.Op.outcome
(** {!exec} with an origin for the flight recorder: [corr] is the
    client-supplied end-to-end correlation id (0 = none), [session] the
    serving-layer session id (0 = local).  Both land in the [Op_done] /
    [Slow_op] events so a postmortem bundle can name the requests a
    recovery impacted. *)

include Rae_vfs.Fs_intf.S with type t := t
(** The full filesystem API, routed through {!exec}. *)

val base : t -> Rae_basefs.Base.t

val degraded : t -> string option
(** [Some reason] once the controller has entered fail-stop mode. *)

val events : t -> Rae_obs.Events.t option
(** The attached flight recorder, if any. *)

val health : t -> Rae_obs.Events.health
(** Derived liveness: [Failstop] once degraded, [Recovering] inside a
    recovery, [Degraded] when the last recovery left cross-check
    discrepancies, [Healthy] otherwise.  Exported as the [rae_health]
    gauge by {!register_obs}. *)

val bundles : t -> string list
(** Paths of every black-box bundle written so far, oldest first. *)

val bundle_dir : t -> string option

val set_bundle_context : t -> (unit -> (string * Rae_obs.Jsonx.t) list) -> unit
(** Register a provider of embedder-specific bundle fields, sampled at
    emission time.  An ["impacted_sessions"] key replaces the bundle's
    (otherwise empty) impacted-sessions list — the serving layer uses
    this to name the sessions and in-flight requests a recovery hit;
    any other keys are appended to the bundle object as-is. *)

val stats : t -> stats
val recoveries : t -> Report.recovery list
(** All recovery reports, oldest first. *)

val discrepancies : t -> Report.discrepancy list
(** All cross-check mismatches ever observed (the §4.3 testing signal). *)

val last_recovery : t -> Report.recovery option

val reset_stats : t -> unit
(** Zero the controller's counters and oplog/latency statistics so
    before/after windows can be compared (parity with
    {!Rae_block.Blkmq.reset_stats} and the cache stats API): the op and
    recovery counters, the oplog totals, the end-to-end recovery and
    per-phase latency histograms, and the checkpoint counters (including
    the background-fold queue counters).  The recovery log itself — {!recoveries},
    {!discrepancies} — is retained. *)

val shutdown : t -> unit
(** Drain and stop the checkpoint's background fold domain.  No-op for
    [par_domains = 1] controllers.  Live domains are a bounded OS
    resource — call this when retiring a [par_domains > 1] controller. *)

val checkpoint_now : t -> (unit, string) result
(** Force a checkpoint cut.  Fails when checkpointing is disabled by
    policy, or when the op window is non-empty — a checkpoint is only
    sound at a journal-commit boundary (call {!sync} first). *)

val checkpoint_stats : t -> Checkpoint.stats option
(** [None] when checkpointing is disabled by policy. *)

val checkpoint_valid : t -> bool
(** A warm checkpoint is available to seed the next recovery. *)

val phase_names : string list
(** The §3.2 pipeline step names, in order, as they appear in spans,
    [Report.phase] entries and phase-histogram metric names.  [seed] is
    emitted only by checkpoint-seeded recoveries (it replaces
    [shadow-attach] + [fd-reinstate]); cold recoveries emit the rest. *)

val register_obs : Rae_obs.Metrics.t -> t -> unit
(** Register the whole stack's metrics: the controller's counters and
    recovery/phase latency histograms ([rae_*]), the checkpoint's
    counters (including the [rae_par_fold_*] background-fold queue
    family), plus everything {!Rae_basefs.Base.register_obs} registers for the
    wrapped base. *)
