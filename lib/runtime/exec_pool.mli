(** Parallel ServiceManager executor pool.

    The scheduler thread (the replica's DecisionQueue consumer) routes
    each decided request to a *lane* — [Hashtbl.hash key mod n_exec] —
    and the pool runs [n_exec] executor threads, one per lane, each
    draining its own {!Msmr_platform.Bounded_queue} (static
    hash-sharding, the class-based assignment of Early Scheduling in
    Parallel SMR).

    Invariants relied on by the replica:
    - per-lane execution order = dispatch order (so per-key decide
      order);
    - {!quiesce} returns only when every {!send}-dispatched request has
      finished executing (snapshots, state install, multi-key/global
      commands);
    - {!send} and {!quiesce} are scheduler-only; {!executor_loop} is the
      whole executor thread body. *)

type 'a t

val create : n_exec:int -> unit -> 'a t
(** @raise Invalid_argument if [n_exec < 1]. *)

val n_exec : 'a t -> int
(** Lanes = executors: route keys with [Hashtbl.hash key mod n_exec t]. *)

val send : ?st:Msmr_platform.Thread_state.t -> 'a t -> lane:int -> 'a -> unit
(** Dispatch to a lane (blocking under back-pressure). During shutdown
    the request may be dropped; counters never leak. *)

val send_rr : ?st:Msmr_platform.Thread_state.t -> 'a t -> 'a -> unit
(** Dispatch a conflict-free request to the next lane round-robin. *)

val quiesce : 'a t -> Msmr_platform.Thread_state.t -> unit
(** Block (accounted [Waiting]) until the pool is idle. *)

val executor_loop :
  'a t ->
  idx:int ->
  exec:('a -> unit) ->
  st:Msmr_platform.Thread_state.t ->
  unit
(** Body of executor thread [idx]: runs until {!close} and the backlog
    is drained. [exec] exceptions propagate after the pool's counters
    are unwedged. *)

val close : 'a t -> unit
(** Idempotent; wakes every executor so it can drain and exit. *)

val depth : 'a t -> int
(** Queued-but-undispatched requests across all lanes (racy snapshot). *)

val dispatched : 'a t -> int
val barriers : 'a t -> int
