(** Bounded blocking FIFO queue.

    This is the message-queue primitive of the threading architecture
    (Section V of the paper): every edge of the replica's stage spine —
    RequestQueue, ProposalQueue, DispatcherQueue, DecisionQueue,
    per-sender SendQueues, LogQueue, ClientIO ingress and the executor
    lanes — is an instance. The bound is what makes back-pressure flow control work
    (Section V-E): a stage that cannot keep up fills its input queue, and
    producers block (or observe fullness with {!try_put}) and stop pulling
    work from upstream.

    All operations are thread-safe. Blocking operations optionally take a
    {!Thread_state.t} handle; while blocked on the internal lock the thread
    is accounted as [Blocked], while waiting for items/space it is
    accounted as [Waiting] — matching the paper's profiling methodology.
    Every wait for items or space is a kernel park on a condition
    variable ({!Condvar.wait}) and is counted by {!Waitstats.note_park}. *)

type 'a t

exception Closed
(** Raised by [put]/[take] on a closed queue (see {!close}). *)

val create : capacity:int -> 'a t
(** [create ~capacity] makes an empty queue holding at most [capacity]
    elements. @raise Invalid_argument if [capacity <= 0]. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Current number of queued elements (racy snapshot). *)

val is_empty : 'a t -> bool
val is_full : 'a t -> bool

val put : ?st:Thread_state.t -> 'a t -> 'a -> unit
(** [put q v] appends [v], blocking while the queue is full.
    @raise Closed if the queue is closed. *)

val try_put : 'a t -> 'a -> bool
(** Non-blocking [put]; returns [false] if the queue is full.
    @raise Closed if the queue is closed. *)

val take : ?st:Thread_state.t -> 'a t -> 'a
(** [take q] removes the oldest element, blocking while the queue is
    empty. @raise Closed if the queue is closed and drained. *)

val try_take : 'a t -> 'a option
(** Non-blocking [take]; [None] if empty. Never raises, even on a closed
    queue. *)

val take_timeout :
  ?st:Thread_state.t ->
  ?ready:(unit -> bool) ->
  'a t ->
  timeout_s:float ->
  'a option
(** Like {!take} but parks at most [timeout_s] seconds (a timed condvar
    wait, {!Condvar.wait}), returning [None] on timeout. [ready]
    (default never) is an extra wake-up condition checked under the
    queue's lock before each park: once it holds, [take_timeout] returns
    [None] early. Whoever makes it true must then call {!notify}.
    @raise Closed if the queue is closed and drained. *)

val notify : 'a t -> unit
(** Wake every consumer parked in {!take_timeout} so it re-checks its
    [ready] predicate. Call it after making that predicate true. *)

val take_batch_into : ?st:Thread_state.t -> 'a t -> buf:'a option array -> int
(** Blocks until at least one element is available, then drains up to
    [Array.length buf] elements in FIFO order into [buf.(0) .. buf.(n-1)]
    (as [Some v], remaining slots reset to [None]) and returns [n]. The
    drain edges (sender, stable storage, batcher) reuse one scratch
    buffer, so a drain takes the lock once and allocates no list. @raise Closed if the queue is closed and drained.
    @raise Invalid_argument if [buf] is empty. *)

val drain_into : 'a t -> buf:'a option array -> int
(** Non-blocking {!take_batch_into}: drains whatever is immediately
    available (possibly nothing) into [buf] and returns the count.
    Never raises, even on a closed queue.
    @raise Invalid_argument if [buf] is empty. *)

val close : 'a t -> unit
(** Close the queue: subsequent [put]s raise {!Closed}; [take]s keep
    draining the remaining elements and raise {!Closed} once empty. All
    blocked threads are woken. Idempotent. *)

val is_closed : 'a t -> bool
