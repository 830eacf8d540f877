(** First-class block device handles.

    A [Device.t] is the capability through which a filesystem touches
    storage.  The shadow filesystem receives a {!read_only} handle — the
    paper's invariant that "the shadow never writes to the disk" is thereby
    enforced by construction, not by convention. *)

exception Io_error of string
(** Raised by a faulty device (see {!Fault}); filesystems map it to
    [Errno.EIO]. *)

exception Read_only_device
(** Raised when writing through a {!read_only} handle.  Reaching this is a
    bug in the shadow, never expected behaviour. *)

type t = {
  dev_read : int -> bytes;
  dev_write : int -> bytes -> unit;
  dev_flush : unit -> unit;
  dev_block_size : int;
  dev_nblocks : int;
  dev_read_into : int -> bytes -> unit;
      (** Copy-free read into a caller-owned block buffer, used by
          {!read_into} only while [dev_read] is physically
          [dev_read_into_for].  A wrapper replaces [dev_read] with
          [{ d with dev_read = ... }] and so, without touching these two
          fields, turns the copy-free path off for its handle. *)
  dev_read_into_for : int -> bytes;
      (** The [dev_read] that [dev_read_into] is equivalent to. *)
}

val of_disk : Disk.t -> t
val read : t -> int -> bytes

val read_into : t -> int -> bytes -> unit
(** [read_into t blk buf] fills [buf] with block [blk] without allocating
    a block.  On a handle straight from {!of_disk} (or {!read_only} of
    one) this is {!Disk.read_into}: the same bytes, read count and clock
    charge as {!read}, but no fresh 4 KiB buffer.  On a handle whose
    [dev_read] a wrapper replaced it is [dev_read] plus a blit, so the
    wrapper still sees, counts, faults or logs every read.  The caller
    owns [buf] either way; it never aliases storage the disk owns.
    @raise Invalid_argument unless [buf] is exactly one block. *)

val write : t -> int -> bytes -> unit
val flush : t -> unit
val block_size : t -> int
val nblocks : t -> int

val read_only : t -> t
(** A handle whose write and flush raise {!Read_only_device}. *)

val counting : t -> t * (unit -> int * int)
(** [counting dev] wraps [dev]; the returned thunk reports the (reads,
    writes) issued through the wrapper. *)
