(** The rfs serving-layer wire protocol.

    Binary framing for the full {!Rae_vfs.Op} surface plus the
    session-control frames the server speaks (attach, detach, ping, stats,
    backpressure and recovery notifications).  Frames are length-prefixed
    with a checksummed header:

    {v
    offset  size  field
    0       2     magic 0x5253 ("RS")
    2       1     protocol version (2)
    3       1     frame type tag
    4       4     payload length (bytes)
    8       4     CRC32C over header bytes 0..7 ++ payload
    12      len   payload
    v}

    Only {!protocol_version} is spoken: a header carrying any other
    version fails with [Bad_version].

    Decoding is total: any malformed input — bad magic, unknown version or
    frame tag, inconsistent lengths, checksum mismatch, crafted path
    components, truncation — yields {!Fail} or {!Need_more}, never an
    exception.  A peer that receives [Fail] must treat the stream as
    desynchronized and drop the connection; there is no resynchronization
    scan. *)

val protocol_version : int
(** The one version this codec speaks (2). *)

val header_bytes : int
val max_payload : int
(** Upper bound on a frame payload; a length field above this is rejected
    before any allocation, so a crafted header cannot OOM the peer. *)

type server_stats = {
  ws_sessions : int;  (** currently attached sessions *)
  ws_served : int;  (** operations executed on behalf of clients *)
  ws_busy : int;  (** Busy (backpressure) frames sent *)
  ws_recoveries : int;  (** controller recoveries observed *)
  ws_degraded : bool;
}

type frame =
  | Hello of { version : int }  (** client -> server: attach a session *)
  | Hello_ok of { session : int; version : int }
  | Detach  (** client -> server: orderly close; fds are released *)
  | Detach_ok
  | Ping of { token : int }
  | Pong of { token : int }
  | Stats_req
  | Stats_reply of server_stats
  | Op_req of { req : int; corr : int; op : Rae_vfs.Op.t }
      (** [corr] is the client-supplied correlation id threaded end to
          end (flight recorder, postmortem bundles); [0] means none. *)
  | Op_reply of { req : int; outcome : Rae_vfs.Op.outcome }
  | Busy of { req : int; retry_after_ms : int }
      (** backpressure: the request was *not* queued; retry after the hint *)
  | Err of { errno : Rae_vfs.Errno.t; msg : string }
      (** protocol-level rejection (bad hello, undecodable frame, ...) *)
  | Note_degraded of { reason : string }
      (** server push: the controller entered fail-stop *)
  | Note_recovered of { seq : int; trigger : string; wall_us : int }
      (** server push: recovery [seq] (1-based controller recovery count)
          completed; [trigger]/[wall_us] come from {!Rae_core.Report} so
          clients can correlate with server-side logs *)
  | Metrics_req  (** ask for the server's Prometheus exposition *)
  | Metrics_reply of { text : string }
  | Bundles_req  (** list available black-box bundles *)
  | Bundles_reply of { names : string list }
  | Bundle_req of { name : string }  (** fetch one bundle by name *)
  | Bundle_reply of { name : string; data : string }

type error =
  | Bad_magic
  | Bad_version of int
  | Bad_length of int
  | Bad_checksum
  | Bad_payload of string  (** tag/field-level corruption detail *)

type decode_result =
  | Frame of frame * int  (** decoded frame and total bytes consumed *)
  | Need_more  (** the buffer holds a frame prefix; read more bytes *)
  | Fail of error  (** stream is corrupt; the connection must drop *)

val pp_error : Format.formatter -> error -> unit
val pp_frame : Format.formatter -> frame -> unit

val equal_frame : frame -> frame -> bool
(** Structural equality (outcome comparison via {!Rae_vfs.Op.outcome_equal}
    with exact timestamps). *)

type encoder
(** Reusable per-connection encode state: a payload buffer plus a
    growable scratch area, so the hot serving path serializes frames
    with no per-frame allocation. *)

val encoder : unit -> encoder

val encode_into : encoder -> frame -> Buffer.t -> unit
(** Serialize one frame, header included, appending the bytes to the
    given output buffer (typically the connection's tx buffer).  The
    encoder's scratch state is clobbered; one encoder must not be shared
    across connections that encode concurrently. *)

val encode : frame -> string
(** Serialize one frame, header included.  Convenience wrapper over
    {!encode_into} with a throwaway encoder (tests, client one-shots);
    servers should hold an {!encoder} per connection instead. *)

val decode : bytes -> pos:int -> len:int -> decode_result
(** [decode buf ~pos ~len] attempts to decode one frame from
    [buf[pos..pos+len)].  Never raises. *)

val decode_string : string -> decode_result
(** Convenience wrapper over a whole string (tests, single-frame use). *)
