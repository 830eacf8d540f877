(** The host's monotonic clock ([clock_gettime(CLOCK_MONOTONIC)]).

    The default clock of every component that timestamps real work (the
    tracer, the flight recorder, the controller, the server).  Unlike
    [Sys.time], which reports process CPU time through [getrusage], it
    measures elapsed time and costs a vDSO call. *)

val now_ns : unit -> int64
(** Nanoseconds since an arbitrary fixed origin; never decreases. *)
