(** Priority blocking queue of timed entries with lock-free cancellation.

    Substrate of the Retransmitter thread (Section V-C4): the Protocol
    thread schedules a retransmission for every message it sends and — on
    the hot path, once per decided instance — cancels it. Cancellation must
    not take a lock or wake the consumer, so it only sets an atomic flag on
    the entry; the consumer drops cancelled entries lazily when their
    deadline expires, exactly as described in the paper. *)

type 'a t

type handle
(** Cancellation handle for one scheduled entry. *)

val create : unit -> 'a t

val schedule : ?handle:handle -> 'a t -> at_ns:int64 -> 'a -> handle
(** Enqueue [v] to become due at absolute monotonic time [at_ns] and
    return its cancellation handle: [handle] when given (so one handle
    can follow an entry across re-schedules), a fresh one otherwise.
    Wakes the consumer only if the entry becomes the earliest. *)

val handle : unit -> handle
(** A fresh, uncancelled handle for {!schedule}. *)

val cancel : handle -> unit
(** Mark the entry cancelled. Lock-free; never wakes the consumer.
    Idempotent. *)

val is_cancelled : handle -> bool

val pending : 'a t -> int
(** Number of scheduled entries, including cancelled ones not yet
    collected (racy snapshot). *)

val pop_due : 'a t -> now_ns:int64 -> 'a option
(** Non-blocking: pop the earliest entry if it is due at [now_ns],
    silently discarding cancelled entries on the way. *)

val next_due_ns : 'a t -> int64 option
(** Deadline of the earliest live entry, if any. *)

val take : ?st:Thread_state.t -> 'a t -> 'a
(** Block until the earliest live entry becomes due and return it. The
    thread parks in a timed condvar wait until that deadline (accounted
    as [Waiting]); it does not poll. A cancelled minimum still costs one
    wake-up at its deadline, where it and every cancelled entry behind
    it at the top of the heap are dropped.
    @raise Closed if the queue is closed. *)

exception Closed

val close : 'a t -> unit
(** Wake and stop consumers. Idempotent. *)
