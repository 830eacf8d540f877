(** Fixed-size domain pool with chunked deal-out and work stealing.

    The pool spawns [size - 1] worker domains once at [create] time; the
    caller of [parallel_for]/[run] is always participant 0, so a pool of
    size [n] uses exactly [n] domains per batch.  Iteration ranges are cut
    into contiguous chunks and dealt round-robin onto per-participant
    deques; a participant pops from its own deque head and steals from
    other participants' tails when it runs dry.  [parallel_for] is a
    structured join: it returns only once every chunk has finished, and
    re-raises the first exception any participant observed (remaining
    chunks are drained without running once an exception is recorded).

    A pool of size <= 1 — or [None] where an [?pool] parameter is taken —
    degrades to plain sequential iteration in ascending index order, so a
    crash sweep without a pool runs exactly the sequential code path. *)

type t

(** [create ?domains ()] builds a pool of [domains] participants
    (default [Domain.recommended_domain_count ()], clamped to [1, 64]).
    [domains - 1] worker domains are spawned immediately and live until
    [shutdown]. *)
val create : ?domains:int -> unit -> t

(** Number of participants (caller + workers); always >= 1. *)
val size : t -> int

(** [parallel_for t ?chunk ~n f] runs [f i] for every [0 <= i < n].
    [chunk] bounds the number of indices per dealt chunk (default:
    [max 1 (n / (4 * size))]).  Sequential in ascending order when
    [size t <= 1].  Not reentrant from inside a task body. *)
val parallel_for : t -> ?chunk:int -> n:int -> (int -> unit) -> unit

(** [map_array t ?chunk f xs] is [Array.map f xs] with the index space
    parallelized like [parallel_for]. *)
val map_array : t -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array

(** [run t thunks] executes each thunk once (chunk size 1). *)
val run : t -> (unit -> unit) list -> unit

type stats = {
  tasks_run : int;      (** chunk executions, across all batches *)
  steals : int;         (** chunks taken from another participant's deque *)
  batches : int;        (** parallel_for/run invocations that went parallel *)
  seq_batches : int;    (** invocations that degraded to sequential *)
}

val stats : t -> stats
val reset_stats : t -> unit

(** Join the worker domains.  The pool is unusable afterwards (batches
    degrade to sequential).  Idempotent. *)
val shutdown : t -> unit
