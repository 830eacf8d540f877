(** Client side of the serving protocol.

    A client owns one byte-stream {!io} to a server, speaks the {!Wire}
    protocol over it, and presents the ordinary {!Rae_vfs.Fs_intf.S}
    surface on top — so any code written against the filesystem interface
    runs unmodified against a remote controller.

    The client hides the protocol's failure modes behind plain outcomes:

    - [Busy] backpressure frames are retried transparently (bounded by
      [max_busy_retries]; exhaustion surfaces as [EAGAIN]);
    - a lost connection triggers the reconnect protocol when [reconnect]
      is on: the [dial] thunk is invoked for a fresh {!io}, the session
      re-attaches with a new [Hello], and every open file descriptor is
      re-validated — re-opened by its recorded path (with [creat]/[excl]/
      [trunc] stripped so re-attach never truncates or conflicts) and
      checked with [Fstat].  Descriptors that no longer resolve go stale
      and answer [EBADF] locally; client-visible fd numbers never change
      across reconnects.
    - [Note_degraded]/[Note_recovered] pushes are collected as
      {!notice}s for the application to inspect; they are never errors. *)

type io = {
  io_send : string -> unit;
  io_recv : unit -> string option;
      (** [Some ""] means nothing available yet (poll again); [None] means
          the connection is gone. *)
  io_close : unit -> unit;
}

type notice =
  | Degraded of string
  | Recovered of { seq : int; trigger : string; wall_us : int }

type config = {
  max_wait : int;
      (** bounded number of [io_recv] polls while waiting for one reply;
          exhaustion surfaces as [EIO] (default 10_000) *)
  max_busy_retries : int;  (** per-operation [Busy] retries (default 64) *)
  reconnect : bool;  (** re-dial and re-attach on a lost connection (default true) *)
}

val default_config : config

type t

val connect : ?config:config -> dial:(unit -> io option) -> unit -> (t, string) result
(** Dial and attach a session.  [dial] is retained for reconnects. *)

val session : t -> int
(** Server-assigned session id (of the current attachment). *)

val set_corr : t -> int -> unit
(** Set the correlation id stamped on every subsequent request (0 = none,
    the default).  The id rides in the wire's [Op_req] frame into the
    server's flight recorder, so a postmortem bundle can name the
    client-side request a recovery impacted — set it per logical
    application request for end-to-end correlation. *)

val corr : t -> int

val exec : t -> Rae_vfs.Op.t -> Rae_vfs.Op.outcome
(** Execute one operation remotely.  File descriptors in [op] and its
    outcome are client-side public descriptors; translation to the wire's
    session-virtual descriptors is internal.  Never raises. *)

include Rae_vfs.Fs_intf.S with type t := t
(** The filesystem API, routed through {!exec}. *)

val ping : t -> bool
val server_stats : t -> (Wire.server_stats, Rae_vfs.Errno.t) result

(** {1 Observability verbs} *)

val metrics : t -> (string, Rae_vfs.Errno.t) result
(** The server's Prometheus exposition text. *)

val bundles : t -> (string list, Rae_vfs.Errno.t) result
(** Names of the black-box bundles the server has written. *)

val fetch_bundle : t -> string -> (string, Rae_vfs.Errno.t) result
(** Fetch one bundle's JSON by name ([ENOENT] if unknown; the connection
    stays up). *)

val detach : t -> unit
(** Orderly close: sends [Detach], waits briefly for the ack, closes the
    io.  Subsequent operations return [EIO] (no reconnect). *)

(** {1 Introspection} *)

val notices : t -> notice list
(** All recovery/degradation pushes observed, oldest first. *)

val recovered_seen : t -> int
(** Count of [Note_recovered] pushes observed. *)

val degraded : t -> string option
val busy_retries : t -> int
(** Total [Busy] frames absorbed by transparent retry. *)

val reconnects : t -> int
val stale_fds : t -> int
(** Descriptors invalidated by re-attach validation. *)
