let log_src = Logs.Src.create "msmr.worker" ~doc:"Worker threads"

module Log = (val Logs.src_log log_src : Logs.LOG)

type placement = Core | Front

type t = {
  name : string;
  failed : exn option Atomic.t;
  (* Done-latch: [join] cannot [Thread.join] a thread of another domain. *)
  lock : Mutex.t;
  ended : Condition.t;
  mutable finished : bool;
}

(* The front domain (DESIGN.md, "Domains: front and core"). It exists
   only when the host recommends more than one domain, and only while
   front workers run: a parked domain still has to join every
   stop-the-world collection of the main domain, which then waits for
   it. A domain can create threads only for itself, so its main thread
   serves [jobs]: each job is one [Thread.create] posted from another
   domain. A [Front] spawn with no domain running starts a core thread
   that spawns one [start_delay_s] later, once a process's start-up
   (WAL recovery, the first election) is normally over, so start-up
   does not pay for the new domain either. [started], [live] and [jobs]
   are guarded by [front_lock]; a lock rather than [Lazy], which raises
   when two threads force it at once. *)
let two_domains = Domain.recommended_domain_count () > 1
let start_delay_s = 0.02
let front_lock = Mutex.create ()
let front_ready = Condition.create ()
let jobs : (unit -> unit) Queue.t = Queue.create ()
let started = ref false  (* a front domain runs or is about to *)
let live = ref 0         (* front workers posted and still running *)

(* The minor heap the main domain started with (the runtime default
   unless OCAMLRUNPARAM set it). *)
let minor_budget = (Gc.get ()).minor_heap_size

let serve minor_heap_size () =
  Gc.set { (Gc.get ()) with minor_heap_size };
  Mutex.lock front_lock;
  while !started do
    match Queue.take_opt jobs with
    | Some job ->
      Mutex.unlock front_lock;
      job ();
      Mutex.lock front_lock
    | None when !live > 0 -> Condition.wait front_ready front_lock
    | None -> started := false
  done;
  Mutex.unlock front_lock

(* Runs on the main domain. [Gc.set] resizes only the calling domain's
   minor heap, and a new domain starts at the runtime default, so each
   domain sets its own share: a third of [minor_budget]. The two heaps
   plus the second domain's stacks and runtime state then take about
   the memory the one heap took. The domain is never joined: it ends
   when it runs out of workers, and at exit the main domain does not
   wait for it. *)
let start_front () =
  Mclock.sleep_s start_delay_s;
  let share = minor_budget / 3 in
  Gc.set { (Gc.get ()) with minor_heap_size = share };
  ignore (Domain.spawn (serve share))

let front_done () =
  Mutex.lock front_lock;
  decr live;
  if !live = 0 then Condition.signal front_ready;
  Mutex.unlock front_lock

let finish t =
  Mutex.lock t.lock;
  t.finished <- true;
  Condition.broadcast t.ended;
  Mutex.unlock t.lock

let start_thread t body =
  let run () =
    let st = Thread_state.create ~name:t.name in
    (try body st with
     | Bounded_queue.Closed | Delay_queue.Closed ->
       (* Normal shutdown path: the stage's input queue was closed. *)
       ()
     | exn ->
       Atomic.set t.failed (Some exn);
       Log.err (fun m ->
           m "worker %s died: %s" t.name (Printexc.to_string exn)));
    Thread_state.unregister st;
    finish t
  in
  ignore (Thread.create run ())

(* Hands [t] to the front domain's spawn queue, starting a domain if
   none runs. Called with [front_lock] held. *)
let post t body =
  incr live;
  Queue.push
    (fun () ->
       try
         start_thread t (fun st ->
             Fun.protect ~finally:front_done (fun () -> body st))
       with exn ->
         (* Thread creation failed on the front domain: report it as the
            worker's failure, and release [join]. *)
         front_done ();
         Atomic.set t.failed (Some exn);
         finish t)
    jobs;
  Condition.signal front_ready;
  if not !started then begin
    started := true;
    ignore (Thread.create start_front ())
  end

let spawn ?(on = Core) ~name body =
  let t =
    { name; failed = Atomic.make None; lock = Mutex.create ();
      ended = Condition.create (); finished = false }
  in
  (match on with
   | Front when two_domains ->
     Mutex.lock front_lock;
     post t body;
     Mutex.unlock front_lock
   | Front | Core -> start_thread t body);
  t

let name t = t.name

let join t =
  Mutex.lock t.lock;
  while not t.finished do
    Condition.wait t.ended t.lock
  done;
  Mutex.unlock t.lock

let failure t = Atomic.get t.failed
let join_all ts = List.iter join ts
