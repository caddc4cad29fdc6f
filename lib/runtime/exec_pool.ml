module Bq = Msmr_platform.Bounded_queue
module Thread_state = Msmr_platform.Thread_state
module Counter = Msmr_platform.Rate_meter.Counter

(* One queue per executor: a key's lane IS its executor. *)
type 'a t = {
  exec_qs : 'a Bq.t array;
  (* Quiescence barrier state: dispatched-but-unfinished requests. *)
  pending : int Atomic.t;
  mu : Mutex.t;
  cv : Condition.t;
  dispatched : Counter.t;
  barriers : Counter.t;
  mutable rr : int; (* round-robin lane cursor; scheduler-private *)
}

let lane_capacity = 1024

let create ~n_exec () =
  if n_exec < 1 then invalid_arg "Exec_pool.create: n_exec < 1";
  {
    exec_qs = Array.init n_exec (fun _ -> Bq.create ~capacity:lane_capacity);
    pending = Atomic.make 0;
    mu = Mutex.create ();
    cv = Condition.create ();
    dispatched = Counter.create ();
    barriers = Counter.create ();
    rr = 0;
  }

let n_exec t = Array.length t.exec_qs
let dispatched t = Counter.get t.dispatched
let barriers t = Counter.get t.barriers
let depth t = Array.fold_left (fun acc q -> acc + Bq.length q) 0 t.exec_qs

(* Executor-side completion: the last in-flight request wakes the
   scheduler if it is blocked in a barrier. The broadcast takes the
   mutex, and the scheduler re-checks the counter under it, so the
   wake-up cannot be lost. *)
let complete t =
  if Atomic.fetch_and_add t.pending (-1) = 1 then begin
    Mutex.lock t.mu;
    Condition.broadcast t.cv;
    Mutex.unlock t.mu
  end

(* Quiescence barrier: wait until every dispatched request has executed.
   Run only from the scheduler thread, which is also the only
   dispatcher, so the counter cannot grow while we wait. *)
let quiesce t st =
  Counter.incr t.barriers;
  if Atomic.get t.pending > 0 then
    Thread_state.enter st Thread_state.Waiting (fun () ->
        Mutex.lock t.mu;
        while Atomic.get t.pending > 0 do
          Condition.wait t.cv t.mu
        done;
        Mutex.unlock t.mu)

let send ?st t ~lane v =
  Atomic.incr t.pending;
  Counter.incr t.dispatched;
  match Bq.put ?st t.exec_qs.(lane) v with
  | () -> ()
  | exception Bq.Closed ->
    (* Shutdown mid-dispatch: the request is dropped (as the serial loop
       drops queued decisions), but the counter must not leak. *)
    ignore (Atomic.fetch_and_add t.pending (-1))

let send_rr ?st t v =
  t.rr <- (t.rr + 1) mod n_exec t;
  send ?st t ~lane:t.rr v

let executor_loop t ~idx ~exec ~st =
  let q = t.exec_qs.(idx) in
  let continue = ref true in
  while !continue do
    match Bq.take ~st q with
    | v -> (
        match exec v with
        | () -> complete t
        | exception e ->
          (* Never leave the barrier counter stuck. *)
          complete t;
          raise e)
    | exception Bq.Closed -> continue := false
  done

let close t = Array.iter Bq.close t.exec_qs
