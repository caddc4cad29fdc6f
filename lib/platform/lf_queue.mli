(** Lock-free bounded ring cores for the stage spine.

    The paper attributes the multi-core throughput ceiling to contention
    on the inter-stage queues (Section V): with a mutex per queue, every
    handoff pays a lock acquisition and often a futex wake. These cores
    replace that with a handful of atomic loads/stores per operation:

    - {!Spsc_core} — Lamport single-producer single-consumer ring: one
      atomic index per side, plain slot array, publication ordered by
      the index stores.
    - {!Mpmc_core} — Vyukov bounded multi-producer multi-consumer queue:
      a per-cell sequence number arbitrates turns, so contenders CAS on
      a ticket rather than spin on a shared lock.

    Both are *non-blocking* cores: [try_push]/[try_pop] never wait. The
    blocking facade with condvar parking and close semantics lives in
    {!Channel}. Indices are monotone 63-bit ints (no wraparound, no
    ABA); capacities are rounded up to a power of two — {!Spsc_core}
    still enforces the exact requested bound, {!Mpmc_core} reports and
    uses the rounded one.

    The cores are functors over {!ATOMIC} so the interleaving checker in
    the test suite can instrument every atomic access and enumerate
    schedules (DSCheck-style) against the very code that ships. *)

module type ATOMIC = sig
  type 'a t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val fetch_and_add : int t -> int -> int
end

module Spsc_core (A : ATOMIC) : sig
  type 'a t

  val create : capacity:int -> 'a t
  (** @raise Invalid_argument if [capacity <= 0]. *)

  val capacity : 'a t -> int
  (** The requested (exact) bound. *)

  val length : 'a t -> int
  (** Racy snapshot. *)

  val try_push : 'a t -> 'a -> bool
  (** [false] when full. Must only ever be called from one thread. *)

  val try_pop : 'a t -> 'a option
  (** [None] when empty. Must only ever be called from one thread. *)
end

module Mpmc_core (A : ATOMIC) : sig
  type 'a t

  val create : capacity:int -> 'a t
  (** @raise Invalid_argument if [capacity <= 0]. *)

  val capacity : 'a t -> int
  (** The effective bound: [capacity] rounded up to a power of two, with
      a minimum of [2] (a one-cell ring cannot tell a full cell from its
      own turn — the pop-recycle and push-publish sequence values
      coincide at capacity 1). *)

  val length : 'a t -> int
  (** Racy snapshot. *)

  val try_push : 'a t -> 'a -> bool
  (** [false] when full. Safe from any thread. *)

  val try_pop : 'a t -> 'a option
  (** [None] when empty (or when the head cell's push is still in
      flight, which linearizes the same way). Safe from any thread. *)
end

module Spsc : module type of Spsc_core (Atomic)
module Mpmc : module type of Mpmc_core (Atomic)
