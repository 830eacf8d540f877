(** The base filesystem: the performance-oriented implementation.

    This is the left-hand side of the paper's Figure 2 — the filesystem a
    production system actually runs, with every component the shadow
    omits:

    - a {b dentry cache} with negative entries accelerating path lookup;
    - an {b inode cache} and a {b block cache} (LRU or 2Q, configurable —
      the policy ablation of DESIGN.md §5);
    - {b asynchronous IO} through the blk-mq style queueing layer, with
      write merging and batched dispatch;
    - {b group commit}: metadata updates accumulate in a running journal
      transaction that commits every [commit_interval] operations or at an
      [fsync]/[sync] barrier — creating exactly the volatile window
      between the applications' view and the on-disk state that RAE
      records (paper §3.2);
    - {b trusting fast paths}: on-disk structures are decoded without
      checksum verification; malformed structures raise
      {!Detector.Base_bug} — the kernel-crash analogue for the
      crafted-image bug class;
    - optional {b injected bugs} from {!Bug_registry}, evaluated before
      each operation.

    At each commit barrier the base can run a cheap metadata validation
    pass ("validate upon sync", §3.1) so that injected silent corruption
    is detected *before* it reaches the disk — the fault-model assumption
    the paper makes explicit. *)

type config = {
  commit_interval : int;  (** operations per group commit (default 64) *)
  cache_policy : [ `Lru | `Two_q ];
  bcache_capacity : int;
  icache_capacity : int;
  dcache_capacity : int;
  validate_on_commit : bool;
  max_fds : int;
}

val default_config : config

type t

val mkfs : Rae_block.Device.t -> ninodes:int -> ?journal_len:int -> unit -> (unit, string) result
(** Format the device (rfs image + journal). *)

val mount :
  ?config:config -> ?bugs:Bug_registry.t -> Rae_block.Device.t -> (t, string) result
(** Journal replay, then attach.  The superblock and bitmaps are parsed
    leniently (the base trusts its own image — deliberately). *)

val unmount : t -> (unit, string) result
(** Commit everything and mark the superblock clean. *)

include Rae_vfs.Fs_intf.S with type t := t

val exec : t -> Rae_vfs.Op.t -> Rae_vfs.Op.outcome
(** Execute one operation.  May raise {!Detector.Base_bug}, {!Detector.Hang}
    or {!Detector.Validation_failed} — the runtime errors RAE recovers
    from.  (Plain [Error _] results are legal POSIX failures, not runtime
    errors.) *)

val commit : t -> unit
(** Force a group commit (also runs commit-time validation). *)

val ops_since_commit : t -> int

val on_commit : t -> (commit_seq:int64 -> unit) -> unit
(** Register a callback fired after every successful commit — the RAE
    oplog uses this to discard operations that are now durable.  The
    callback receives the journal's durable transaction sequence
    ({!Rae_journal.Journal.commit_seq}) so checkpoint machinery can label
    the trusted state S0 it is about to re-base on. *)

(* ---- the RAE integration surface (paper §3.2) ---- *)

val contained_reboot : t -> (unit, string) result
(** Discard all in-memory state (caches, fd table, running transaction),
    replay the journal, and reload from the trusted on-disk state S0.
    Applications are unaffected; open descriptors are restored separately
    via {!download_metadata}. *)

val download_metadata :
  t ->
  blocks:(int * bytes) list ->
  fd_table:(Rae_vfs.Types.fd * Rae_vfs.Types.ino * Rae_vfs.Types.open_flags) list ->
  time:int64 ->
  (unit, string) result
(** Absorb the shadow's output: install the dirty blocks through the
    base's own classification logic (superblock / bitmaps / inode table /
    data all take their normal in-memory routes, marked dirty in the
    running transaction), adopt the fd table and logical clock, and commit
    so the recovered state is durable. *)

(* ---- introspection ---- *)

type stats = {
  ops_executed : int;
  commits : int;
  validations : int;
  bugs_fired : int;
}

val stats : t -> stats
val detector : t -> Detector.t
val bugs : t -> Bug_registry.t
val time : t -> int64
val set_time : t -> int64 -> unit
val fd_table : t -> (Rae_vfs.Types.fd * Rae_vfs.Types.ino * Rae_vfs.Types.open_flags) list
(** Sorted snapshot of the descriptor table.  Comparators should prefer
    {!fd_count}/{!fd_iter}/{!fd_lookup}, which probe the live table
    without materializing a list. *)

val fd_count : t -> int

val fd_iter :
  t -> (Rae_vfs.Types.fd -> Rae_vfs.Types.ino -> Rae_vfs.Types.open_flags -> unit) -> unit

val fd_lookup :
  t -> Rae_vfs.Types.fd -> (Rae_vfs.Types.ino * Rae_vfs.Types.open_flags) option

val bcache_stats : t -> Rae_cache.Lru.stats
val dcache_stats : t -> Rae_cache.Lru.stats
val icache_stats : t -> Rae_cache.Lru.stats
val journal_stats : t -> Rae_journal.Journal.stats
val mq_stats : t -> Rae_block.Blkmq.stats

val set_tracer : t -> Rae_obs.Tracer.t -> unit
(** Attach a tracer: group commits emit a [base.commit] span, journal
    replay during contained reboot a [journal.replay] span, and the queue
    layer (re-attached across contained reboots) its destage spans. *)

val set_events : t -> Rae_obs.Events.t -> unit
(** Attach a flight recorder: every injected-bug trigger records a
    [Bug_fired] event with the catalog id, so a postmortem bundle shows
    the fault next to the recovery it caused. *)

val register_obs : Rae_obs.Metrics.t -> t -> unit
(** Register the base's counters and gauges — op/commit/validation counts,
    detector warnings, all three caches, the journal, and the blk-mq layer
    — with a metrics registry.  Samplers read the live instances, so they
    stay accurate across contained reboots. *)
