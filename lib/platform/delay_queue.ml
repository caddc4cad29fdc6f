exception Closed

type handle = bool Atomic.t

type 'a entry = {
  at_ns : int64;
  value : 'a;
  cancelled : handle;
}

type 'a t = {
  lock : Mutex.t;
  not_empty : Condition.t;
  heap : 'a entry Binary_heap.t;
  mutable closed : bool;
}

let cmp_entry a b = Int64.compare a.at_ns b.at_ns

let create () =
  { lock = Mutex.create (); not_empty = Condition.create ();
    heap = Binary_heap.create ~cmp:cmp_entry (); closed = false }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let handle () = Atomic.make false

let schedule ?handle:(cancelled = handle ()) t ~at_ns value =
  let e = { at_ns; value; cancelled } in
  with_lock t (fun () ->
      if t.closed then raise Closed;
      Binary_heap.add t.heap e;
      (* The consumer is parked until the old minimum's deadline; only a
         new, earlier minimum changes when it must wake. *)
      match Binary_heap.min_elt t.heap with
      | Some m when m == e -> Condition.signal t.not_empty
      | _ -> ());
  cancelled

let cancel h = Atomic.set h true
let is_cancelled h = Atomic.get h

let pending t = with_lock t (fun () -> Binary_heap.length t.heap)

(* Drop cancelled entries sitting at the top of the heap. Called with the
   lock held. *)
let rec drop_cancelled t =
  match Binary_heap.min_elt t.heap with
  | Some e when Atomic.get e.cancelled ->
    ignore (Binary_heap.pop_min t.heap);
    drop_cancelled t
  | _ -> ()

let pop_due t ~now_ns =
  with_lock t @@ fun () ->
  drop_cancelled t;
  match Binary_heap.min_elt t.heap with
  | Some e when Int64.compare e.at_ns now_ns <= 0 ->
    ignore (Binary_heap.pop_min t.heap);
    Some e.value
  | _ -> None

let next_due_ns t =
  with_lock t @@ fun () ->
  drop_cancelled t;
  Option.map (fun e -> e.at_ns) (Binary_heap.min_elt t.heap)

(* Park until the earliest live entry is due: a timed wait up to its
   deadline, an untimed one on an empty heap. [schedule] signals when it
   installs an earlier minimum. *)
let take ?st t =
  with_lock t @@ fun () ->
  let rec loop () =
    if t.closed then raise Closed;
    drop_cancelled t;
    match Binary_heap.min_elt t.heap with
    | Some e when Int64.compare e.at_ns (Mclock.now_ns ()) <= 0 ->
      ignore (Binary_heap.pop_min t.heap);
      e.value
    | next ->
      let deadline = Option.map (fun e -> e.at_ns) next in
      Condvar.wait ?st ?deadline t.not_empty t.lock;
      loop ()
  in
  loop ()

let close t =
  with_lock t @@ fun () ->
  if not t.closed then begin
    t.closed <- true;
    Condition.broadcast t.not_empty
  end
