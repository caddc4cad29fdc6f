(** Process-wide wait accounting for the lock-free channels.

    The paper's profiles attribute stall time per thread
    ({!Thread_state}); these counters attribute it per *mechanism*: how
    often a waiter parked on a condition variable (a {!Channel} ring or
    an executor of the work-stealing pool), and how often the
    work-stealing pool spun one round instead (the channels never spin).
    The observability layer exposes them as [msmr_queue_spin_total] and
    [msmr_queue_park_total] (docs/OBSERVABILITY.md).

    Counters are plain atomics — one add per event, no labels — so the
    rings can afford to bump them on their wait paths. *)

val note_spin : unit -> unit
val note_park : unit -> unit
val spin_total : unit -> int
val park_total : unit -> int

val reset : unit -> unit
(** Zero both counters (benchmarks discard warm-up with this). *)
