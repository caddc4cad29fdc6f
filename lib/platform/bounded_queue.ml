exception Closed

type 'a t = {
  capacity : int;
  items : 'a Queue.t;
  lock : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  mutable closed : bool;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Bounded_queue.create: capacity <= 0";
  { capacity; items = Queue.create (); lock = Mutex.create ();
    not_empty = Condition.create (); not_full = Condition.create ();
    closed = false }

let capacity t = t.capacity

(* Lock acquisition is accounted as [Blocked], waits on condition
   variables as [Waiting], per the paper's profiling methodology. *)
let lock_acct ?st t =
  match st with
  | None -> Mutex.lock t.lock
  | Some st ->
    if Mutex.try_lock t.lock then ()
    else Thread_state.enter st Thread_state.Blocked (fun () -> Mutex.lock t.lock)

(* Every condvar wait on the spine is a park, counted process-wide. *)
let park ?st ?deadline cv t =
  Waitstats.note_park ();
  Condvar.wait ?st ?deadline cv t.lock

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let length t = with_lock t (fun () -> Queue.length t.items)
let is_empty t = length t = 0
let is_full t = length t >= t.capacity
let is_closed t = with_lock t (fun () -> t.closed)

let put ?st t v =
  lock_acct ?st t;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  if t.closed then raise Closed;
  while Queue.length t.items >= t.capacity && not t.closed do
    park ?st t.not_full t
  done;
  if t.closed then raise Closed;
  Queue.push v t.items;
  Condition.signal t.not_empty

let try_put t v =
  with_lock t @@ fun () ->
  if t.closed then raise Closed;
  if Queue.length t.items >= t.capacity then false
  else begin
    Queue.push v t.items;
    Condition.signal t.not_empty;
    true
  end

let take ?st t =
  lock_acct ?st t;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  while Queue.is_empty t.items && not t.closed do
    park ?st t.not_empty t
  done;
  if Queue.is_empty t.items then raise Closed;
  let v = Queue.pop t.items in
  Condition.signal t.not_full;
  v

let try_take t =
  with_lock t @@ fun () ->
  if Queue.is_empty t.items then None
  else begin
    let v = Queue.pop t.items in
    Condition.signal t.not_full;
    Some v
  end

let take_timeout ?st ?(ready = fun () -> false) t ~timeout_s =
  let deadline = Int64.add (Mclock.now_ns ()) (Mclock.ns_of_s timeout_s) in
  lock_acct ?st t;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  let rec loop () =
    if not (Queue.is_empty t.items) then begin
      let v = Queue.pop t.items in
      Condition.signal t.not_full;
      Some v
    end
    else if t.closed then raise Closed
    else if ready () || Int64.compare (Mclock.now_ns ()) deadline >= 0 then
      None
    else begin
      park ?st ~deadline t.not_empty t;
      loop ()
    end
  in
  loop ()

(* Broadcast: each parked consumer re-checks its own [ready]. *)
let notify t = with_lock t (fun () -> Condition.broadcast t.not_empty)

let take_batch_into ?st t ~buf =
  let max = Array.length buf in
  if max <= 0 then invalid_arg "Bounded_queue.take_batch_into: empty buf";
  lock_acct ?st t;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  while Queue.is_empty t.items && not t.closed do
    park ?st t.not_empty t
  done;
  if Queue.is_empty t.items then raise Closed;
  let n = ref 0 in
  while !n < max && not (Queue.is_empty t.items) do
    buf.(!n) <- Some (Queue.pop t.items);
    incr n
  done;
  (* Drop stale elements past the fill so [buf] does not keep values from
     a previous drain alive across iterations. *)
  for i = !n to max - 1 do
    buf.(i) <- None
  done;
  Condition.broadcast t.not_full;
  !n

let drain_into t ~buf =
  let max = Array.length buf in
  if max <= 0 then invalid_arg "Bounded_queue.drain_into: empty buf";
  with_lock t @@ fun () ->
  let n = ref 0 in
  while !n < max && not (Queue.is_empty t.items) do
    buf.(!n) <- Some (Queue.pop t.items);
    incr n
  done;
  for i = !n to max - 1 do
    buf.(i) <- None
  done;
  if !n > 0 then Condition.broadcast t.not_full;
  !n

let close t =
  with_lock t @@ fun () ->
  if not t.closed then begin
    t.closed <- true;
    Condition.broadcast t.not_empty;
    Condition.broadcast t.not_full
  end
