(** Warm-shadow checkpointing: O(Δ) recovery replay.

    Cold recovery reconstructs application-visible state by replaying the
    {e whole} recorded op window against the trusted on-disk state S0, so
    its latency grows linearly with the window.  This module keeps a
    {b warm shadow}: a second {!Rae_shadowfs.Shadow} instance that is

    - {b cut} (re-based) at journal-commit boundaries.  A cut records
      only the S0 descriptor table, the oplog cursor and the commit
      sequence; the read-only attach to S0 and the descriptor
      reinstatement it stands for are {b deferred} until a fold first
      falls due, or until {!seed} runs after the contained reboot.  Most
      commit windows never fold, and their cut then costs nothing.
    - {b folded} forward every [fold_interval] recorded operations, by
      constrained re-execution of the oplog suffix it has not seen yet.

    Deferring the attach is sound because the base writes the device
    only inside a commit and every commit re-cuts: between two cuts the
    device holds the S0 the cut names, whenever the attach reads it.  The
    eager attach read the superblock and bitmaps at the cut and every
    other block lazily anyway; the deferred one moves only those reads.
    The write and flush stream is unchanged (test_devstream's
    write-stream golden), and seeded recovery still matches the spec
    (the checkpoint and crash suites).

    On a detected bug, {!seed} exports the warm instance's state (COW
    overlay + fd table + clock, {!Rae_shadowfs.Shadow.export_state}) into
    a fresh shadow, and recovery replays only the Δ suffix past the fold
    {!cursor}.  Because the warm overlay holds exactly the blocks dirtied
    since the last commit, the hand-off download stays precisely the
    differential set — identical to what cold replay would reconstruct.

    The warm shadow never writes to disk: it is an ordinary shadow over a
    read-only device handle, and this module is under the shadow-purity
    lint rule.  Any attach, fold or seed failure {e poisons} the checkpoint
    (drops the warm instance); the controller then falls back to cold
    recovery, so checkpointing can only ever change recovery latency,
    never its semantics. *)

type t

type stats = {
  cuts : int;  (** re-bases onto a freshly committed S0 *)
  attaches : int;
      (** warm shadows attached: a cut's deferred attach when its first
          fold fell due, or a seed straight from a cut.  A cut that never
          attaches cost only its bookkeeping. *)
  attach_ns : int;  (** monotonic nanoseconds spent in those attaches *)
  folds : int;  (** fold batches applied to the warm shadow *)
  fold_ns : int;  (** monotonic nanoseconds spent folding, attach excluded *)
  folded_ops : int;  (** operations folded across all batches *)
  fold_divergences : int;  (** constrained-mode mismatches seen while folding *)
  seeded : int;  (** recoveries seeded from the checkpoint *)
  fallbacks : int;  (** seeded recoveries that fell back to the cold path *)
  poisons : int;  (** checkpoints discarded after an attach/fold/seed failure *)
}

val create :
  ?tracer:Rae_obs.Tracer.t ->
  ?events:Rae_obs.Events.t ->
  ?fast_paths:bool ->
  fold_interval:int ->
  Rae_block.Device.t ->
  t
(** No checkpoint exists until the first {!cut}.  The warm instance runs
    the shadow's full runtime checks and always attaches without fsck
    (the fold's continuous validation substitutes).
    [fast_paths] (default [true]) controls the warm shadow's caching fast
    paths — disabling it reproduces the naive shadow, which the benches
    use to price the fold before/after the fast-path work.  [events] is
    the flight recorder: cuts, folds and poisons land in it as
    [Ckpt_cut]/[Ckpt_fold]/[Ckpt_poison] events. *)

val cut :
  t ->
  window:int ->
  fds:(Rae_vfs.Types.fd * Rae_vfs.Types.ino * Rae_vfs.Types.open_flags) list ->
  next_seq:int ->
  commit_seq:int64 ->
  (unit, string) result
(** Re-base the checkpoint on the current on-disk state.  Sound only at a
    journal-commit boundary, so it {b refuses} when [window > 0]: a
    non-empty window means the disk does not yet reflect the recorded
    suffix and a cut would capture an S0 the oplog is not relative to.
    [fds] is the S0 descriptor snapshot, [next_seq] the oplog's next
    sequence number, [commit_seq] the journal's durable commit sequence.
    The cut only records these; it reads nothing from the device. *)

val due : t -> next_seq:int -> bool
(** Has the unfolded suffix reached [fold_interval]?  False when no valid
    checkpoint exists. *)

val fold : t -> entries:Rae_vfs.Op.recorded list -> next_seq:int -> unit
(** Advance the warm shadow through [entries], which must be the oplog
    entries from {!cursor} on (constrained mode, divergences counted,
    same keep-going policy as recovery replay), then move the cursor to
    [next_seq].  The first fold after a cut attaches the warm shadow
    first (a [ckpt-attach] span); an attach failure poisons the
    checkpoint.  A {!Rae_shadowfs.Shadow.Violation} or a device error
    while folding poisons it too instead of escaping — the hot path never
    observes fold failures.  Emits a [ckpt-fold] span. *)

val seed : t -> (Rae_shadowfs.Shadow.t * int, string) result
(** Build a fresh shadow from the warm instance's exported state and
    return it with the fold cursor: recovery replays only entries with
    [seq >= cursor].  From a cut that never folded, the fresh shadow is
    the deferred attach itself, run now on the device the contained
    reboot left.  The checkpoint itself is untouched (a failed recovery
    can seed again).  Fails, poisoning the checkpoint, if no valid
    checkpoint exists or the attach or state import is rejected. *)

val poison : t -> unit
(** Discard the warm instance (counted when one existed).  Subsequent
    recoveries take the cold path until the next {!cut}. *)

val note_fallback : t -> unit
(** Record that a seeded recovery fell back to the cold path. *)

val valid : t -> bool
val cursor : t -> int

val base_seq : t -> int64
(** Journal commit sequence of the S0 the checkpoint is based on. *)

val stats : t -> stats
val reset_stats : t -> unit

val register_obs : Rae_obs.Metrics.t -> t -> unit
(** Register the [rae_ckpt_*] counter/gauge family, including
    [rae_ckpt_attaches_total], [rae_ckpt_attach_ns_total] and
    [rae_ckpt_fold_ns_total]. *)
