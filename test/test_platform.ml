(* Tests for msmr_platform: queues, heap, concurrent map, delay queue,
   thread-state accounting. *)

open Msmr_platform

let test_heap_ordering () =
  let h = Binary_heap.create ~cmp:compare () in
  List.iter (Binary_heap.add h) [ 5; 3; 8; 1; 9; 2; 7 ];
  Alcotest.(check int) "length" 7 (Binary_heap.length h);
  Alcotest.(check (option int)) "min" (Some 1) (Binary_heap.min_elt h);
  let rec drain acc =
    match Binary_heap.pop_min h with
    | None -> List.rev acc
    | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (drain []);
  Alcotest.(check bool) "empty" true (Binary_heap.is_empty h)

let test_heap_duplicates () =
  let h = Binary_heap.create ~cmp:compare () in
  List.iter (Binary_heap.add h) [ 2; 2; 1; 1; 3 ];
  let rec drain acc =
    match Binary_heap.pop_min h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "dups kept" [ 1; 1; 2; 2; 3 ] (drain [])

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
       let h = Binary_heap.create ~cmp:compare () in
       List.iter (Binary_heap.add h) xs;
       let rec drain acc =
         match Binary_heap.pop_min h with
         | None -> List.rev acc
         | Some x -> drain (x :: acc)
       in
       drain [] = List.sort compare xs)

let test_bq_fifo () =
  let q = Bounded_queue.create ~capacity:10 in
  List.iter (Bounded_queue.put q) [ 1; 2; 3 ];
  Alcotest.(check int) "len" 3 (Bounded_queue.length q);
  Alcotest.(check int) "t1" 1 (Bounded_queue.take q);
  Alcotest.(check int) "t2" 2 (Bounded_queue.take q);
  Alcotest.(check int) "t3" 3 (Bounded_queue.take q);
  Alcotest.(check (option int)) "empty" None (Bounded_queue.try_take q)

let test_bq_bounded () =
  let q = Bounded_queue.create ~capacity:2 in
  Alcotest.(check bool) "p1" true (Bounded_queue.try_put q 1);
  Alcotest.(check bool) "p2" true (Bounded_queue.try_put q 2);
  Alcotest.(check bool) "full" false (Bounded_queue.try_put q 3);
  Alcotest.(check bool) "is_full" true (Bounded_queue.is_full q);
  ignore (Bounded_queue.take q);
  Alcotest.(check bool) "p3" true (Bounded_queue.try_put q 3)

let test_bq_blocking_put () =
  (* A producer blocked on a full queue resumes when space appears. *)
  let q = Bounded_queue.create ~capacity:1 in
  Bounded_queue.put q 0;
  let done_flag = Atomic.make false in
  let w =
    Worker.spawn ~name:"producer" (fun _st ->
        Bounded_queue.put q 1;
        Atomic.set done_flag true)
  in
  Mclock.sleep_s 0.02;
  Alcotest.(check bool) "still blocked" false (Atomic.get done_flag);
  Alcotest.(check int) "consume" 0 (Bounded_queue.take q);
  Worker.join w;
  Alcotest.(check bool) "unblocked" true (Atomic.get done_flag);
  Alcotest.(check int) "value arrived" 1 (Bounded_queue.take q)

let test_bq_close_wakes_consumer () =
  let q : int Bounded_queue.t = Bounded_queue.create ~capacity:4 in
  let got_closed = Atomic.make false in
  let w =
    Worker.spawn ~name:"consumer" (fun _st ->
        match Bounded_queue.take q with
        | exception Bounded_queue.Closed -> Atomic.set got_closed true
        | _ -> ())
  in
  Mclock.sleep_s 0.02;
  Bounded_queue.close q;
  Worker.join w;
  Alcotest.(check bool) "woken with Closed" true (Atomic.get got_closed)

let test_bq_close_drains () =
  let q = Bounded_queue.create ~capacity:4 in
  Bounded_queue.put q 1;
  Bounded_queue.put q 2;
  Bounded_queue.close q;
  Alcotest.(check int) "drain 1" 1 (Bounded_queue.take q);
  Alcotest.(check int) "drain 2" 2 (Bounded_queue.take q);
  Alcotest.check_raises "then Closed" Bounded_queue.Closed (fun () ->
      ignore (Bounded_queue.take q));
  Alcotest.check_raises "put raises" Bounded_queue.Closed (fun () ->
      Bounded_queue.put q 3)

(* The batch take: a burst is the FIFO prefix bounded by the buffer, the
   next burst is the rest. *)
let test_bq_take_batch () =
  let q = Bounded_queue.create ~capacity:10 in
  List.iter (Bounded_queue.put q) [ 1; 2; 3; 4; 5 ];
  let buf = Array.make 3 None in
  Alcotest.(check int) "burst bounded by buf" 3
    (Bounded_queue.take_batch_into q ~buf);
  Alcotest.(check (list int)) "fifo prefix" [ 1; 2; 3 ]
    (List.filter_map Fun.id (Array.to_list buf));
  let buf2 = Array.make 10 None in
  Alcotest.(check int) "rest" 2 (Bounded_queue.take_batch_into q ~buf:buf2);
  Alcotest.(check (list int)) "rest values" [ 4; 5 ]
    (List.filter_map Fun.id (Array.to_list buf2))

(* The buffer contract: a [None] tail after the values, drain-then-raise
   after close, and an empty buffer is refused. *)
let test_bq_take_batch_into () =
  let q = Bounded_queue.create ~capacity:16 in
  List.iter (Bounded_queue.put q) [ 1; 2; 3; 4; 5 ];
  let buf = Array.make 3 None in
  Alcotest.(check int) "burst bounded by buf" 3
    (Bounded_queue.take_batch_into q ~buf);
  Alcotest.(check (list int)) "fifo prefix" [ 1; 2; 3 ]
    (List.filter_map Fun.id (Array.to_list buf));
  Alcotest.check_raises "empty buf refused"
    (Invalid_argument "Bounded_queue.take_batch_into: empty buf") (fun () ->
      ignore (Bounded_queue.take_batch_into q ~buf:[||]));
  let buf2 = Array.make 8 None in
  Alcotest.(check int) "rest" 2 (Bounded_queue.take_batch_into q ~buf:buf2);
  Alcotest.(check (list int)) "values + None tail" [ 4; 5 ]
    (List.filter_map Fun.id (Array.to_list buf2));
  Bounded_queue.put q 9;
  Bounded_queue.close q;
  Alcotest.(check int) "close drains" 1
    (Bounded_queue.take_batch_into q ~buf:buf2);
  Alcotest.check_raises "then raises" Bounded_queue.Closed (fun () ->
      ignore (Bounded_queue.take_batch_into q ~buf:buf2))

let test_bq_drain_into () =
  let q = Bounded_queue.create ~capacity:16 in
  let buf = Array.make 4 None in
  Alcotest.(check int) "empty" 0 (Bounded_queue.drain_into q ~buf);
  List.iter (Bounded_queue.put q) [ 1; 2 ];
  Alcotest.(check int) "available" 2 (Bounded_queue.drain_into q ~buf);
  Alcotest.(check (list int)) "values" [ 1; 2 ]
    (List.filter_map Fun.id (Array.to_list buf));
  Bounded_queue.close q;
  Alcotest.(check int) "closed never raises" 0
    (Bounded_queue.drain_into q ~buf)

(* The timed wait parks in the kernel: an empty [take_timeout] sleeps out
   its deadline (and no more), the park is counted, and a put, a
   [notify] with its [ready] predicate, or a close ends the park early. *)
let test_bq_timed_park () =
  let q : int Bounded_queue.t = Bounded_queue.create ~capacity:4 in
  let elapsed_s f =
    let t0 = Mclock.now_ns () in
    let v = f () in
    (v, Mclock.s_of_ns (Int64.sub (Mclock.now_ns ()) t0))
  in
  let after s f = Thread.create (fun () -> Mclock.sleep_s s; f ()) () in
  Waitstats.reset ();
  let v, dt =
    elapsed_s (fun () -> Bounded_queue.take_timeout q ~timeout_s:0.05)
  in
  Alcotest.(check (option int)) "empty: timeout" None v;
  Alcotest.(check bool)
    (Printf.sprintf "not before the deadline (%.4f s)" dt) true (dt >= 0.05);
  Alcotest.(check bool)
    (Printf.sprintf "within deadline + 20 ms (%.4f s)" dt) true (dt < 0.07);
  Alcotest.(check bool) "park counted" true (Waitstats.park_total () > 0);
  let p = after 0.03 (fun () -> Bounded_queue.put q 42) in
  let v, dt =
    elapsed_s (fun () -> Bounded_queue.take_timeout q ~timeout_s:5.0)
  in
  Thread.join p;
  Alcotest.(check (option int)) "put wakes" (Some 42) v;
  Alcotest.(check bool) (Printf.sprintf "woken early (%.3f s)" dt) true
    (dt < 1.0);
  let rung = Atomic.make false in
  let ready () = Atomic.get rung in
  let p = after 0.03 (fun () -> Atomic.set rung true; Bounded_queue.notify q) in
  let v, dt =
    elapsed_s (fun () -> Bounded_queue.take_timeout ~ready q ~timeout_s:5.0)
  in
  Thread.join p;
  Alcotest.(check (option int)) "notify + ready wakes empty-handed" None v;
  Alcotest.(check bool) (Printf.sprintf "rung early (%.3f s)" dt) true
    (dt < 1.0);
  let p = after 0.03 (fun () -> Bounded_queue.close q) in
  let (), dt =
    elapsed_s (fun () ->
        Alcotest.check_raises "close raises" Bounded_queue.Closed (fun () ->
            ignore (Bounded_queue.take_timeout q ~timeout_s:5.0)))
  in
  Thread.join p;
  Alcotest.(check bool) (Printf.sprintf "closed early (%.3f s)" dt) true
    (dt < 1.0)

let test_backoff_schedule () =
  let bo =
    Backoff.create ~yield_rounds:2 ~min_sleep_s:1e-6 ~max_sleep_s:4e-6 ()
  in
  Alcotest.(check (float 0.)) "yield phase" 0. (Backoff.current_sleep_s bo);
  Backoff.once bo;
  Backoff.once bo;
  Alcotest.(check (float 1e-12)) "first sleep" 1e-6
    (Backoff.current_sleep_s bo);
  Backoff.once bo;
  Alcotest.(check (float 1e-12)) "doubles" 2e-6 (Backoff.current_sleep_s bo);
  Backoff.once bo;
  Backoff.once bo;
  Backoff.once bo;
  Alcotest.(check (float 1e-12)) "capped" 4e-6 (Backoff.current_sleep_s bo);
  Backoff.reset bo;
  Alcotest.(check (float 0.)) "reset to yields" 0.
    (Backoff.current_sleep_s bo)

let test_bq_take_timeout () =
  let q : int Bounded_queue.t = Bounded_queue.create ~capacity:4 in
  let t0 = Mclock.now_ns () in
  Alcotest.(check (option int)) "times out" None
    (Bounded_queue.take_timeout q ~timeout_s:0.03);
  let dt = Mclock.s_of_ns (Int64.sub (Mclock.now_ns ()) t0) in
  Alcotest.(check bool) "waited >= 25ms" true (dt >= 0.025);
  Bounded_queue.put q 7;
  Alcotest.(check (option int)) "immediate" (Some 7)
    (Bounded_queue.take_timeout q ~timeout_s:0.5)

let test_bq_concurrent_sum () =
  (* 4 producers, 2 consumers; every element is consumed exactly once. *)
  let q = Bounded_queue.create ~capacity:16 in
  let per_producer = 500 in
  let producers =
    List.init 4 (fun p ->
        Worker.spawn ~name:(Printf.sprintf "prod-%d" p) (fun _ ->
            for i = 0 to per_producer - 1 do
              Bounded_queue.put q ((p * per_producer) + i)
            done))
  in
  let seen = Atomic.make 0 and sum = Atomic.make 0 in
  let total = 4 * per_producer in
  let consumers =
    List.init 2 (fun c ->
        Worker.spawn ~name:(Printf.sprintf "cons-%d" c) (fun _ ->
            let continue = ref true in
            while !continue do
              match Bounded_queue.take q with
              | v ->
                ignore (Atomic.fetch_and_add sum v);
                if Atomic.fetch_and_add seen 1 = total - 1 then
                  Bounded_queue.close q
              | exception Bounded_queue.Closed -> continue := false
            done))
  in
  Worker.join_all producers;
  Worker.join_all consumers;
  Alcotest.(check int) "count" total (Atomic.get seen);
  Alcotest.(check int) "sum" (total * (total - 1) / 2) (Atomic.get sum)

let test_mpsc_fifo () =
  let q = Mpsc_queue.create () in
  Alcotest.(check bool) "empty" true (Mpsc_queue.is_empty q);
  List.iter (Mpsc_queue.push q) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "drain" [ 1; 2; 3 ] (Mpsc_queue.drain q);
  Alcotest.(check (option int)) "then empty" None (Mpsc_queue.pop q)

let test_mpsc_concurrent () =
  let q = Mpsc_queue.create () in
  let per = 2000 and nprod = 4 in
  let producers =
    List.init nprod (fun p ->
        Worker.spawn ~name:(Printf.sprintf "mpsc-prod-%d" p) (fun _ ->
            for i = 0 to per - 1 do
              Mpsc_queue.push q ((p, i))
            done))
  in
  (* Single consumer: per-producer order must be preserved. *)
  let last = Array.make nprod (-1) in
  let count = ref 0 in
  let ok = ref true in
  while !count < per * nprod do
    match Mpsc_queue.pop q with
    | None -> Thread.yield ()
    | Some (p, i) ->
      if i <> last.(p) + 1 then ok := false;
      last.(p) <- i;
      incr count
  done;
  Worker.join_all producers;
  Alcotest.(check bool) "per-producer FIFO" true !ok;
  Alcotest.(check int) "all received" (per * nprod) !count

let test_cmap_basic () =
  let m = Concurrent_map.create () in
  Alcotest.(check (option string)) "miss" None (Concurrent_map.find_opt m 1);
  Concurrent_map.set m 1 "one";
  Concurrent_map.set m 2 "two";
  Alcotest.(check (option string)) "hit" (Some "one") (Concurrent_map.find_opt m 1);
  Alcotest.(check int) "len" 2 (Concurrent_map.length m);
  Concurrent_map.set m 1 "uno";
  Alcotest.(check (option string)) "replace" (Some "uno") (Concurrent_map.find_opt m 1);
  Alcotest.(check int) "len stable" 2 (Concurrent_map.length m);
  Concurrent_map.remove m 1;
  Alcotest.(check bool) "removed" false (Concurrent_map.mem m 1);
  Concurrent_map.clear m;
  Alcotest.(check int) "cleared" 0 (Concurrent_map.length m)

let test_cmap_update () =
  let m = Concurrent_map.create ~shards:4 () in
  Concurrent_map.update m "k" (function None -> Some 1 | Some v -> Some (v + 1));
  Concurrent_map.update m "k" (function None -> Some 1 | Some v -> Some (v + 1));
  Alcotest.(check (option int)) "counted" (Some 2) (Concurrent_map.find_opt m "k");
  Concurrent_map.update m "k" (fun _ -> None);
  Alcotest.(check bool) "deleted" false (Concurrent_map.mem m "k")

let test_cmap_concurrent_counters () =
  let m = Concurrent_map.create ~shards:8 () in
  let nthreads = 4 and iters = 1000 in
  let keys = [ "a"; "b"; "c" ] in
  let ws =
    List.init nthreads (fun i ->
        Worker.spawn ~name:(Printf.sprintf "cmap-%d" i) (fun _ ->
            for _ = 1 to iters do
              List.iter
                (fun k ->
                   Concurrent_map.update m k (function
                     | None -> Some 1
                     | Some v -> Some (v + 1)))
                keys
            done))
  in
  Worker.join_all ws;
  List.iter
    (fun k ->
       Alcotest.(check (option int))
         (Printf.sprintf "key %s" k)
         (Some (nthreads * iters))
         (Concurrent_map.find_opt m k))
    keys

let prop_cmap_models_hashtbl =
  (* A sequence of set/remove operations applied to the concurrent map
     agrees with a plain Hashtbl. *)
  QCheck.Test.make ~name:"concurrent map models hashtbl (sequential)"
    ~count:100
    QCheck.(list (pair (int_bound 50) (option (int_bound 1000))))
    (fun ops ->
       let m = Concurrent_map.create ~shards:4 () in
       let h = Hashtbl.create 16 in
       List.iter
         (fun (k, v) ->
            match v with
            | Some v -> Concurrent_map.set m k v; Hashtbl.replace h k v
            | None -> Concurrent_map.remove m k; Hashtbl.remove h k)
         ops;
       Hashtbl.fold
         (fun k v acc -> acc && Concurrent_map.find_opt m k = Some v)
         h
         (Concurrent_map.length m = Hashtbl.length h))

let test_delay_queue_order () =
  let dq = Delay_queue.create () in
  let now = Mclock.now_ns () in
  ignore (Delay_queue.schedule dq ~at_ns:(Int64.add now 300L) "c");
  ignore (Delay_queue.schedule dq ~at_ns:(Int64.add now 100L) "a");
  ignore (Delay_queue.schedule dq ~at_ns:(Int64.add now 200L) "b");
  let later = Int64.add now 1_000L in
  Alcotest.(check (option string)) "a" (Some "a") (Delay_queue.pop_due dq ~now_ns:later);
  Alcotest.(check (option string)) "b" (Some "b") (Delay_queue.pop_due dq ~now_ns:later);
  Alcotest.(check (option string)) "c" (Some "c") (Delay_queue.pop_due dq ~now_ns:later);
  Alcotest.(check (option string)) "done" None (Delay_queue.pop_due dq ~now_ns:later)

let test_delay_queue_not_due () =
  let dq = Delay_queue.create () in
  let now = Mclock.now_ns () in
  ignore (Delay_queue.schedule dq ~at_ns:(Int64.add now 1_000_000_000L) "later");
  Alcotest.(check (option string)) "not yet" None (Delay_queue.pop_due dq ~now_ns:now);
  Alcotest.(check int) "pending" 1 (Delay_queue.pending dq)

let test_delay_queue_cancel () =
  let dq = Delay_queue.create () in
  let now = Mclock.now_ns () in
  let h1 = Delay_queue.schedule dq ~at_ns:(Int64.add now 10L) "cancelled" in
  ignore (Delay_queue.schedule dq ~at_ns:(Int64.add now 20L) "kept");
  Delay_queue.cancel h1;
  Alcotest.(check bool) "flag" true (Delay_queue.is_cancelled h1);
  Alcotest.(check (option string)) "skips cancelled" (Some "kept")
    (Delay_queue.pop_due dq ~now_ns:(Int64.add now 100L));
  Alcotest.(check (option string)) "empty" None
    (Delay_queue.pop_due dq ~now_ns:(Int64.add now 100L))

let test_delay_queue_take_blocks_until_due () =
  let dq = Delay_queue.create () in
  let now = Mclock.now_ns () in
  ignore (Delay_queue.schedule dq ~at_ns:(Int64.add now (Mclock.ns_of_s 0.03)) "x");
  let t0 = Mclock.now_ns () in
  Alcotest.(check string) "value" "x" (Delay_queue.take dq);
  let dt = Mclock.s_of_ns (Int64.sub (Mclock.now_ns ()) t0) in
  Alcotest.(check bool) "waited" true (dt >= 0.02)

(* [take] parks until the earliest deadline, so a new earlier minimum
   must wake it; an entry scheduled under a shared, cancelled handle is
   skipped. *)
let test_delay_queue_earlier_entry_wakes () =
  let dq = Delay_queue.create () in
  let at s = Int64.add (Mclock.now_ns ()) (Mclock.ns_of_s s) in
  ignore (Delay_queue.schedule dq ~at_ns:(at 5.0) "late");
  let h = Delay_queue.handle () in
  let p =
    Thread.create
      (fun () ->
        Mclock.sleep_s 0.02;
        ignore (Delay_queue.schedule ~handle:h dq ~at_ns:(at 0.01) "cancelled");
        Delay_queue.cancel h;
        ignore (Delay_queue.schedule dq ~at_ns:(at 0.02) "soon"))
      ()
  in
  let t0 = Mclock.now_ns () in
  Alcotest.(check string) "earlier entry" "soon" (Delay_queue.take dq);
  Thread.join p;
  let dt = Mclock.s_of_ns (Int64.sub (Mclock.now_ns ()) t0) in
  Alcotest.(check bool) (Printf.sprintf "woken early (%.3f s)" dt) true
    (dt < 1.0)

let test_thread_state_accounting () =
  let st = Thread_state.create ~name:"probe" in
  Thread_state.enter st Thread_state.Waiting (fun () -> Mclock.sleep_s 0.03);
  Mclock.sleep_s 0.01;
  let tot = Thread_state.totals st in
  Thread_state.unregister st;
  Alcotest.(check bool) "waiting >= 25ms" true
    (Mclock.s_of_ns tot.Thread_state.waiting_ns >= 0.025);
  Alcotest.(check bool) "busy >= 8ms" true
    (Mclock.s_of_ns tot.Thread_state.busy_ns >= 0.008)

let test_thread_state_registry () =
  let before = List.length (Thread_state.snapshot_all ()) in
  let st = Thread_state.create ~name:"reg-probe" in
  let during = List.length (Thread_state.snapshot_all ()) in
  Thread_state.unregister st;
  let after = List.length (Thread_state.snapshot_all ()) in
  Alcotest.(check int) "added" (before + 1) during;
  Alcotest.(check int) "removed" before after

let test_counter_and_mean () =
  let c = Rate_meter.Counter.create () in
  Rate_meter.Counter.incr c;
  Rate_meter.Counter.add c 4;
  Alcotest.(check int) "counter" 5 (Rate_meter.Counter.get c);
  let m = Rate_meter.Mean.create () in
  List.iter (Rate_meter.Mean.add m) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Rate_meter.Mean.mean m);
  Alcotest.(check bool) "stddev ~2.14" true
    (abs_float (Rate_meter.Mean.stddev m -. 2.13808993) < 1e-6)

let test_worker_failure_capture () =
  let w = Worker.spawn ~name:"dying" (fun _ -> failwith "boom") in
  Worker.join w;
  match Worker.failure w with
  | Some (Failure msg) -> Alcotest.(check string) "msg" "boom" msg
  | _ -> Alcotest.fail "expected captured failure"

(* A [Front] worker runs on the front domain when the host recommends
   more than one domain, and on the caller's domain otherwise. Either
   way [join] waits for the body, an escaping exception is recorded,
   and the worker's accounting handle is registered while it runs. *)
let test_worker_front_placement () =
  let caller = Domain.self () in
  let ran_on = Atomic.make caller and ended = Atomic.make false in
  let registered = Atomic.make false in
  let w =
    Worker.spawn ~on:Worker.Front ~name:"front-probe" (fun _ ->
        Atomic.set ran_on (Domain.self ());
        Atomic.set registered
          (List.mem_assoc "front-probe" (Thread_state.snapshot_all ()));
        Mclock.sleep_s 0.05;
        Atomic.set ended true)
  in
  Worker.join w;
  Alcotest.(check bool) "join waits for the body" true (Atomic.get ended);
  Alcotest.(check bool) "handle in snapshot_all" true (Atomic.get registered);
  Alcotest.(check bool) "no failure" true (Worker.failure w = None);
  if Domain.recommended_domain_count () > 1 then
    Alcotest.(check bool) "ran on another domain" true
      (Atomic.get ran_on <> caller)
  else
    Alcotest.(check bool) "ran on the main domain" true
      (Domain.is_main_domain () && Atomic.get ran_on = caller);
  let dying = Worker.spawn ~on:Worker.Front ~name:"front-dying" (fun _ ->
      failwith "front boom")
  in
  Worker.join dying;
  match Worker.failure dying with
  | Some (Failure msg) -> Alcotest.(check string) "msg" "front boom" msg
  | _ -> Alcotest.fail "expected captured failure"

(* Runs [f] on a second domain when the host recommends one, else on a
   thread: the queue properties below then cross a domain boundary,
   as the ClientIO/Batcher edges do. *)
let on_other_domain f =
  if Domain.recommended_domain_count () > 1 then
    let d = Domain.spawn f in
    fun () -> Domain.join d
  else
    let th = Thread.create f () in
    fun () -> Thread.join th

(* QCheck iteration count for the multi-threaded queue property; the
   MSMR_QCHECK_COUNT environment variable raises it (scripts/verify.sh's
   stress profile). *)
let stress_count =
  match Sys.getenv_opt "MSMR_QCHECK_COUNT" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 30)
  | None -> 30

(* Producers (on a second domain) and consumers (threads of this one),
   over small capacities so both [put] and [take] park: every element
   is taken exactly once, and each consumer sees any one producer's
   elements in that producer's order. *)
let prop_bq_exactly_once =
  QCheck.Test.make ~name:"bqueue mpmc: exactly-once, per-producer order"
    ~count:stress_count
    QCheck.(triple (int_range 1 3) (int_range 0 60) (int_range 1 8))
    (fun (n_producers, per, capacity) ->
       let q = Bounded_queue.create ~capacity in
       let out = Array.init 2 (fun _ -> ref []) in
       let consumers =
         Array.map
           (fun acc ->
              Thread.create
                (fun () ->
                   try
                     while true do
                       acc := Bounded_queue.take q :: !acc
                     done
                   with Bounded_queue.Closed -> ())
                ())
           out
       in
       let join_producers =
         on_other_domain (fun () ->
             List.init n_producers (fun p ->
                 Thread.create
                   (fun () ->
                      for seq = 0 to per - 1 do
                        Bounded_queue.put q (p, seq)
                      done)
                   ())
             |> List.iter Thread.join)
       in
       join_producers ();
       Bounded_queue.close q;
       Array.iter Thread.join consumers;
       let rec increasing = function
         | a :: (b :: _ as tl) -> a < b && increasing tl
         | _ -> true
       in
       let ordered acc =
         List.for_all
           (fun p ->
              increasing
                (List.filter_map
                   (fun (p', s) -> if p' = p then Some s else None)
                   (List.rev !acc)))
           (List.init n_producers Fun.id)
       in
       let all =
         List.sort compare (List.concat_map (fun acc -> !acc) (Array.to_list out))
       in
       let expected =
         List.concat_map
           (fun p -> List.init per (fun s -> (p, s)))
           (List.init n_producers Fun.id)
       in
       Array.for_all ordered out && all = expected)

(* The ServiceManager->ClientIO reply edge: producers on a second
   domain push into an [Mpsc_queue], this domain's single consumer pops
   every element exactly once and each producer's in order. *)
let prop_mpsc_exactly_once =
  QCheck.Test.make ~name:"mpsc: exactly-once, per-producer order"
    ~count:stress_count
    QCheck.(pair (int_range 1 3) (int_range 0 200))
    (fun (n_producers, per) ->
       let q = Mpsc_queue.create () in
       let join_producers =
         on_other_domain (fun () ->
             List.init n_producers (fun p ->
                 Thread.create
                   (fun () ->
                      for seq = 0 to per - 1 do
                        Mpsc_queue.push q (p, seq)
                      done)
                   ())
             |> List.iter Thread.join)
       in
       let total = n_producers * per in
       let next = Array.make n_producers 0 in
       let ordered = ref true and got = ref 0 in
       while !got < total do
         match Mpsc_queue.pop q with
         | None -> Thread.yield ()
         | Some (p, seq) ->
           if seq <> next.(p) then ordered := false;
           next.(p) <- seq + 1;
           incr got
       done;
       join_producers ();
       !ordered && Mpsc_queue.pop q = None
       && Array.for_all (fun n -> n = per) next)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_heap_sorts; prop_cmap_models_hashtbl; prop_bq_exactly_once;
      prop_mpsc_exactly_once ]

let suite =
  [
    Alcotest.test_case "heap: ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap: duplicates" `Quick test_heap_duplicates;
    Alcotest.test_case "bqueue: fifo" `Quick test_bq_fifo;
    Alcotest.test_case "bqueue: bounded" `Quick test_bq_bounded;
    Alcotest.test_case "bqueue: blocking put" `Quick test_bq_blocking_put;
    Alcotest.test_case "bqueue: close wakes consumer" `Quick test_bq_close_wakes_consumer;
    Alcotest.test_case "bqueue: close drains" `Quick test_bq_close_drains;
    Alcotest.test_case "bqueue: take_batch" `Quick test_bq_take_batch;
    Alcotest.test_case "bqueue: take_batch_into" `Quick test_bq_take_batch_into;
    Alcotest.test_case "bqueue: drain_into" `Quick test_bq_drain_into;
    Alcotest.test_case "bqueue: take_timeout" `Quick test_bq_take_timeout;
    Alcotest.test_case "bqueue: timed park" `Quick test_bq_timed_park;
    Alcotest.test_case "bqueue: concurrent sum" `Quick test_bq_concurrent_sum;
    Alcotest.test_case "backoff: schedule" `Quick test_backoff_schedule;
    Alcotest.test_case "mpsc: fifo" `Quick test_mpsc_fifo;
    Alcotest.test_case "mpsc: concurrent producers" `Quick test_mpsc_concurrent;
    Alcotest.test_case "cmap: basic" `Quick test_cmap_basic;
    Alcotest.test_case "cmap: update" `Quick test_cmap_update;
    Alcotest.test_case "cmap: concurrent counters" `Quick test_cmap_concurrent_counters;
    Alcotest.test_case "delay queue: order" `Quick test_delay_queue_order;
    Alcotest.test_case "delay queue: not due" `Quick test_delay_queue_not_due;
    Alcotest.test_case "delay queue: cancel" `Quick test_delay_queue_cancel;
    Alcotest.test_case "delay queue: take blocks" `Quick test_delay_queue_take_blocks_until_due;
    Alcotest.test_case "delay queue: earlier entry wakes take" `Quick
      test_delay_queue_earlier_entry_wakes;
    Alcotest.test_case "thread state: accounting" `Quick test_thread_state_accounting;
    Alcotest.test_case "thread state: registry" `Quick test_thread_state_registry;
    Alcotest.test_case "rate meter: counter/mean" `Quick test_counter_and_mean;
    Alcotest.test_case "worker: failure capture" `Quick test_worker_failure_capture;
    Alcotest.test_case "worker: front placement" `Quick test_worker_front_placement;
  ]
  @ qsuite

let test_histogram_basics () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty" 0 (Histogram.count h);
  Alcotest.(check (float 0.)) "empty p99" 0. (Histogram.percentile h 0.99);
  List.iter (Histogram.record h) [ 0.001; 0.002; 0.004; 0.100 ];
  Alcotest.(check int) "count" 4 (Histogram.count h);
  Alcotest.(check bool) "mean ~26.75ms" true
    (abs_float (Histogram.mean h -. 0.02675) < 0.001);
  (* Buckets have ~4.5% resolution: p50 near 2ms, p100 near 100ms. *)
  let p50 = Histogram.percentile h 0.5 in
  Alcotest.(check bool) "p50 ~2ms" true (p50 > 0.0018 && p50 < 0.0023);
  let p100 = Histogram.percentile h 1.0 in
  Alcotest.(check bool) "p100 ~100ms" true (p100 > 0.09 && p100 < 0.11)

let test_histogram_merge_reset () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 0.01;
  Histogram.record b 0.02;
  Histogram.merge_into ~src:a ~dst:b;
  Alcotest.(check int) "merged" 2 (Histogram.count b);
  Histogram.reset b;
  Alcotest.(check int) "reset" 0 (Histogram.count b)

let test_histogram_concurrent () =
  let h = Histogram.create () in
  let ws =
    List.init 4 (fun i ->
        Worker.spawn ~name:(Printf.sprintf "hist-%d" i) (fun _ ->
            for _ = 1 to 1000 do
              Histogram.record h 0.005
            done))
  in
  Worker.join_all ws;
  Alcotest.(check int) "all recorded" 4000 (Histogram.count h)

let suite =
  suite
  @ [
      Alcotest.test_case "histogram: basics" `Quick test_histogram_basics;
      Alcotest.test_case "histogram: merge/reset" `Quick test_histogram_merge_reset;
      Alcotest.test_case "histogram: concurrent" `Quick test_histogram_concurrent;
    ]
