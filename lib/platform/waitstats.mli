(** Process-wide park counter for the stage spine.

    The paper's profiles attribute stall time per thread
    ({!Thread_state}); this counter attributes it per *mechanism*: how
    often a waiter parked on a {!Bounded_queue} condition variable (an
    empty [take]/[take_timeout], a full [put]). The observability layer
    exposes it as [msmr_queue_park_total] (docs/OBSERVABILITY.md).

    The counter is a plain atomic — one add per park, no labels. *)

val note_park : unit -> unit
val park_total : unit -> int

val reset : unit -> unit
(** Zero the counter (benchmarks discard warm-up with this). *)
