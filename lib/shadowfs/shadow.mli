(** The shadow filesystem.

    The paper's robustness-first alternative implementation (§2.3, §3.3):

    - {b single-threaded, synchronous}: every operation runs to completion
      against the device, no queues, no asynchronous state.  Path lookup
      conceptually walks from the root inode; with [fast_paths] (the
      default) the walk is served from in-memory read caches — decoded
      inodes, per-directory name indexes and a generation-guarded
      resolution cache — that are provably coherent because every mutation
      funnels through the same few writers.  Setting [fast_paths] to
      [false] restores the literal walk-and-scan execution (the two are
      property-tested equivalent);
    - {b never writes to disk}: all updates land in a copy-on-write
      {!Overlay}; {!dirty_blocks} is the recovery hand-off payload;
    - {b extensive runtime checks}: with [checks] enabled (the default)
      every structural read verifies checksums and structure, every
      allocator transition is double-checked against the bitmaps, and the
      superblock summaries are revalidated after every mutation.  A failed
      check raises {!Violation} — the shadow refuses to continue on a bad
      image rather than corrupting further;
    - {b same API and on-disk format as the base}: it satisfies
      {!Rae_vfs.Fs_intf.S} over rfs images, so traces recorded against the
      base replay directly.

    [fsync]/[sync] are accepted as no-ops: the shadow has nothing volatile
    to flush because it never writes; during recovery RAE delegates real
    sync work back to the rebooted base (paper §3.3, "API support"). *)

exception Violation of string
(** An invariant check failed: the input image or a recorded operation is
    inconsistent.  Recovery aborts safely when this escapes. *)

type config = {
  checks : bool;  (** runtime invariant checking (default true) *)
  fsck_on_attach : bool;
      (** run the full {!Rae_fsck.Fsck.check} before accepting the image —
          the paper's verified-FSCK liveness requirement (default false
          here; RAE recovery turns it on) *)
  max_fds : int;
  fast_paths : bool;
      (** serve lookups from coherent in-memory caches and defer
          bitmap/superblock write-back to mutation boundaries (default
          true).  [false] gives the naive walk-everything execution —
          observably equivalent, and kept as the benchmark baseline. *)
}

val default_config : config

type t

val attach : ?config:config -> ?tracer:Rae_obs.Tracer.t -> Rae_block.Device.t -> (t, string) result
(** Bind to an rfs image.  The device is wrapped read-only.  Validates the
    superblock and both bitmaps (strict); with [fsck_on_attach] the whole
    image (emitting an [fsck] span on [tracer] when one is supplied). *)

include Rae_vfs.Fs_intf.S with type t := t

val exec : t -> Rae_vfs.Op.t -> Rae_vfs.Op.outcome
(** Autonomous mode (paper §3.2): the shadow makes its own policy
    decisions (inode numbers, descriptor numbers, block placement). *)

type constrained_result =
  | Matches  (** re-execution reproduced the recorded outcome exactly *)
  | Divergence of Rae_vfs.Op.outcome
      (** what the shadow computed instead — a §4.3 discrepancy *)
  | Skipped_error
      (** the base had returned an error; the shadow omits the op (§3.2) *)
  | Skipped_sync  (** sync-family op: nothing for a never-writing shadow to do *)

val exec_constrained : t -> Rae_vfs.Op.recorded -> constrained_result
(** Constrained mode (paper §3.2): re-execute a recorded operation and
    validate the base's outcome — including its inode and descriptor
    allocations — rather than trusting the shadow's own answer blindly.
    On [Divergence] the shadow's state reflects the shadow's outcome (the
    trusted answer); the caller decides whether to continue. *)

type window_result = {
  w_ops : int;  (** entries processed (including skips) *)
  w_matches : int;
  w_divergences : int;
  w_skipped : int;  (** error-outcome and sync entries *)
}

val exec_constrained_window : t -> Rae_vfs.Op.recorded list -> window_result
(** Batched constrained execution: run a whole checkpoint-fold window in
    one pass, deferring the per-mutation superblock/bitmap write-back and
    summary re-check to the end of the window.  Equivalent to folding
    {!exec_constrained} over the list — every state comparison in this
    repository is view-level, and the only physical difference is the
    overlay superblock's generation count.  A {!Violation} raised mid-
    window still leaves the overlay write-back consistent before
    propagating.  Windows do not nest. *)

val dirty_blocks : t -> (int * bytes) list
(** The overlay: every block the shadow would have written. *)

val fd_table : t -> (Rae_vfs.Types.fd * Rae_vfs.Types.ino * Rae_vfs.Types.open_flags) list
(** Sorted snapshot of the descriptor table.  Comparators should prefer
    {!fd_count}/{!fd_iter}/{!fd_lookup}, which probe the live table
    without materializing a list. *)

val fd_count : t -> int

val fd_iter :
  t -> (Rae_vfs.Types.fd -> Rae_vfs.Types.ino -> Rae_vfs.Types.open_flags -> unit) -> unit

val fd_lookup :
  t -> Rae_vfs.Types.fd -> (Rae_vfs.Types.ino * Rae_vfs.Types.open_flags) option

val install_fd :
  t -> fd:Rae_vfs.Types.fd -> ino:Rae_vfs.Types.ino -> Rae_vfs.Types.open_flags -> (unit, string) result
(** Pre-seed the descriptor table during recovery: descriptors that were
    already open at the trusted on-disk state S0 (recorded by RAE at the
    last commit) are reinstated before the operation window is replayed.
    Validates that the inode is allocated and of a kind that can be open. *)

val time : t -> int64
val set_time : t -> int64 -> unit

type state = {
  st_overlay : (int * bytes) list;  (** the COW overlay, as {!dirty_blocks} *)
  st_fds : (Rae_vfs.Types.fd * Rae_vfs.Types.ino * Rae_vfs.Types.open_flags) list;
  st_time : int64;
}
(** A portable snapshot of everything a shadow instance holds beyond the
    device: the overlay, the descriptor table and the logical clock.  The
    warm-checkpoint subsystem exports this from a background instance and
    seeds recovery replay from it. *)

val export_state : t -> state
(** Snapshot the instance.  All block payloads are fresh copies, so the
    snapshot stays valid however the source instance evolves. *)

val attach_from : ?config:config -> state -> Rae_block.Device.t -> (t, string) result
(** Replay-from-state entry point: build a fresh instance over [dev] with
    the snapshot's overlay pre-loaded (imported {e before} the superblock
    and bitmaps are decoded, so the strict attach-time validation runs
    against the imported state), the descriptor table reinstated through
    {!install_fd}, and the clock restored.  Never runs fsck: the exporter
    was validating every operation as it folded them, which is the
    liveness argument a cold attach gets from [fsck_on_attach]. *)

val checks_performed : t -> int
(** Number of runtime invariant checks executed so far (bench E6). *)

val device_reads : t -> int
(** Blocks fetched from the device (overlay misses). *)
