exception Closed = Bounded_queue.Closed

type kind = Spsc | Mpmc

type 'a core = S of 'a Lf_queue.Spsc.t | M of 'a Lf_queue.Mpmc.t

type 'a ring = {
  core : 'a core;
  (* The mutex/condvars exist only for parking: the data path never takes
     them. [sleepers]/[space_sleepers] let the fast path skip the lock
     entirely when nobody is parked (the common case). *)
  mu : Mutex.t;
  nonempty : Condition.t;
  nonfull : Condition.t;
  sleepers : int Atomic.t;
  space_sleepers : int Atomic.t;
  closed : bool Atomic.t;
}

type 'a t = Mutex_q of 'a Bounded_queue.t | Ring of 'a ring

let core_push c x = match c with
  | S q -> Lf_queue.Spsc.try_push q x
  | M q -> Lf_queue.Mpmc.try_push q x

let core_pop c = match c with
  | S q -> Lf_queue.Spsc.try_pop q
  | M q -> Lf_queue.Mpmc.try_pop q

let core_length c = match c with
  | S q -> Lf_queue.Spsc.length q
  | M q -> Lf_queue.Mpmc.length q

let core_capacity c = match c with
  | S q -> Lf_queue.Spsc.capacity q
  | M q -> Lf_queue.Mpmc.capacity q

let create ~lockfree ~kind ~capacity =
  if lockfree then
    let core = match kind with
      | Spsc -> S (Lf_queue.Spsc.create ~capacity)
      | Mpmc -> M (Lf_queue.Mpmc.create ~capacity)
    in
    Ring
      {
        core;
        mu = Mutex.create ();
        nonempty = Condition.create ();
        nonfull = Condition.create ();
        sleepers = Atomic.make 0;
        space_sleepers = Atomic.make 0;
        closed = Atomic.make false;
      }
  else Mutex_q (Bounded_queue.create ~capacity)

let capacity = function
  | Mutex_q q -> Bounded_queue.capacity q
  | Ring r -> core_capacity r.core

let length = function
  | Mutex_q q -> Bounded_queue.length q
  | Ring r -> core_length r.core

let is_empty t = length t = 0
let is_full t = length t >= capacity t

let is_closed = function
  | Mutex_q q -> Bounded_queue.is_closed q
  | Ring r -> Atomic.get r.closed

let wake ?(all = false) mu cv =
  Mutex.lock mu;
  if all then Condition.broadcast cv else Condition.signal cv;
  Mutex.unlock mu

(* A waker must take [mu] before signalling: the parked side re-polls the
   ring while holding [mu] immediately before each [Condition.wait], so
   either the re-poll observes the state change, or the wait is entered
   before the waker can acquire [mu] and the signal lands. Combined with
   incrementing the sleeper count before taking [mu], no wakeup is lost. *)
let wake_consumer r = if Atomic.get r.sleepers > 0 then wake r.mu r.nonempty

let wake_producer r =
  if Atomic.get r.space_sleepers > 0 then wake r.mu r.nonfull

let wait_acct ?st ?deadline cond mu =
  Waitstats.note_park ();
  Condvar.wait ?st ?deadline cond mu

let put ?st t v =
  match t with
  | Mutex_q q -> Bounded_queue.put ?st q v
  | Ring r ->
    let pushed () =
      if Atomic.get r.closed then raise Closed;
      core_push r.core v
    in
    if not (pushed ()) then begin
      Atomic.incr r.space_sleepers;
      Mutex.lock r.mu;
      Fun.protect
        ~finally:(fun () ->
          Mutex.unlock r.mu;
          Atomic.decr r.space_sleepers)
        (fun () ->
          while not (pushed ()) do
            wait_acct ?st r.nonfull r.mu
          done)
    end;
    wake_consumer r

let try_put t v =
  match t with
  | Mutex_q q -> Bounded_queue.try_put q v
  | Ring r ->
    if Atomic.get r.closed then raise Closed;
    if core_push r.core v then begin
      wake_consumer r;
      true
    end
    else false

(* Read [closed] before the poll: items pushed before close stay
   drainable, and a [None] seen after the flag was already up means the
   channel is done. (A put racing [close] itself may be dropped; the
   spine only closes at shutdown, where in-flight work is discarded
   anyway.) [poll] must not signal: the park loop calls it with [r.mu]
   held, and the wake helper takes [r.mu]. *)
let poll r =
  let closed = Atomic.get r.closed in
  match core_pop r.core with
  | Some _ as v -> v
  | None -> if closed then raise Closed else None

(* Park on [nonempty] until an item, close, [ready ()], or [deadline].
   [ready] is evaluated with [r.mu] held, after the sleeper count is up,
   so a [notify] issued after the predicate turns true cannot be lost.
   The producer-side wake happens once, after the lock is released. *)
let ring_take ?st ?(ready = fun () -> false) ?deadline r =
  let due () =
    match deadline with
    | None -> false
    | Some d -> Int64.compare (Mclock.now_ns ()) d >= 0
  in
  let v =
    match poll r with
    | Some _ as v -> v
    | None ->
      Atomic.incr r.sleepers;
      Mutex.lock r.mu;
      Fun.protect
        ~finally:(fun () ->
          Mutex.unlock r.mu;
          Atomic.decr r.sleepers)
        (fun () ->
          let rec loop () =
            match poll r with
            | Some _ as v -> v
            | None when ready () || due () -> None
            | None ->
              wait_acct ?st ?deadline r.nonempty r.mu;
              loop ()
          in
          loop ())
  in
  (match v with Some _ -> wake_producer r | None -> ());
  v

let take ?st t =
  match t with
  | Mutex_q q -> Bounded_queue.take ?st q
  | Ring r -> (
      match ring_take ?st r with Some v -> v | None -> assert false)

let try_take t =
  match t with
  | Mutex_q q -> Bounded_queue.try_take q
  | Ring r ->
    (match core_pop r.core with
     | Some v ->
       wake_producer r;
       Some v
     | None -> None)

let take_timeout ?st ?ready t ~timeout_s =
  match t with
  | Mutex_q q -> Bounded_queue.take_timeout ?st ?ready q ~timeout_s
  | Ring r ->
    let deadline = Int64.add (Mclock.now_ns ()) (Mclock.ns_of_s timeout_s) in
    ring_take ?st ?ready ~deadline r

let notify = function
  | Mutex_q q -> Bounded_queue.notify q
  | Ring r ->
    (* Broadcast: each parked consumer re-checks its own [ready]. *)
    if Atomic.get r.sleepers > 0 then wake ~all:true r.mu r.nonempty

let drain_count r ~max =
  (* Pop up to [max]; stop at the first miss. Caller saw at least one
     element, so the first pop normally succeeds. *)
  let rec go k acc =
    if k = 0 then List.rev acc
    else
      match core_pop r.core with
      | None -> List.rev acc
      | Some v -> go (k - 1) (v :: acc)
  in
  go max []

let take_batch ?st t ~max =
  match t with
  | Mutex_q q -> Bounded_queue.take_batch ?st q ~max
  | Ring r ->
    if max <= 0 then invalid_arg "Channel.take_batch: max <= 0";
    let first = take ?st t in
    let rest = drain_count r ~max:(max - 1) in
    if rest <> [] then wake_producer r;
    first :: rest

let take_batch_into ?st t ~buf =
  match t with
  | Mutex_q q -> Bounded_queue.take_batch_into ?st q ~buf
  | Ring r ->
    let max = Array.length buf in
    if max <= 0 then invalid_arg "Channel.take_batch_into: empty buf";
    let first = take ?st t in
    buf.(0) <- Some first;
    let n = ref 1 in
    let continue = ref true in
    while !continue && !n < max do
      match core_pop r.core with
      | None -> continue := false
      | Some v ->
        buf.(!n) <- Some v;
        incr n
    done;
    for i = !n to max - 1 do
      buf.(i) <- None
    done;
    if !n > 1 then wake_producer r;
    !n

let drain_into t ~buf =
  match t with
  | Mutex_q q -> Bounded_queue.drain_into q ~buf
  | Ring r ->
    let max = Array.length buf in
    if max <= 0 then invalid_arg "Channel.drain_into: empty buf";
    let n = ref 0 in
    let continue = ref true in
    while !continue && !n < max do
      match core_pop r.core with
      | None -> continue := false
      | Some v ->
        buf.(!n) <- Some v;
        incr n
    done;
    for i = !n to max - 1 do
      buf.(i) <- None
    done;
    if !n > 0 then wake_producer r;
    !n

let close = function
  | Mutex_q q -> Bounded_queue.close q
  | Ring r ->
    Atomic.set r.closed true;
    Mutex.lock r.mu;
    Condition.broadcast r.nonempty;
    Condition.broadcast r.nonfull;
    Mutex.unlock r.mu
