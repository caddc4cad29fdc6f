(** Condition-variable waits with an optional deadline, which OCaml 5.1's
    {!Condition} lacks.

    A small C stub parks the thread in [pthread_cond_clockwait] (or
    [pthread_cond_timedwait]) outside the runtime lock, exactly as
    {!Condition.wait} does, so every wait on the stage spine can be a
    kernel park with a deadline instead of a sleep-poll loop. *)

val wait :
  ?st:Thread_state.t -> ?deadline:int64 -> Condition.t -> Mutex.t -> unit
(** [wait c m] is [Condition.wait c m], accounted as [Waiting] in [st]
    when given. With [deadline] (an {!Mclock} time in ns) it also
    returns once the deadline has passed (immediately if it already
    has). Either way it may return spuriously, always with [m] held
    again: like [Condition.wait] it must be called with [m] locked, and
    callers re-check their predicate — and their deadline — in a loop. *)
