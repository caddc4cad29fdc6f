(* The cluster process: three kv replicas over an in-process
   Transport.Hub, each behind a Client_server, built the way
   Replica.Cluster builds them but with links and services the harness
   can wrap. Every layer is observed from outside: wrapped Service.t and
   Transport.links (traced runs only), the Replica getters, the metrics
   registry, Thread_state, Gc and Unix.times.

   Protocol with run.py: print "READY <json>" once a leader is elected
   (and holds its lease, when leases are on) and every Client_server
   listens; read "START <t0_ns> <seconds>"; measure [t0, t0+seconds);
   read "FINISH" once the generator is done; wait for the replicas to
   catch up, check them, write cluster.json and exit. *)

open Common
module R = Msmr_runtime.Replica
module T = Msmr_runtime.Transport
module CS = Msmr_runtime.Client_server
module Service = Msmr_runtime.Service
module Config = Msmr_consensus.Config
module Msg = Msmr_consensus.Msg
module Value = Msmr_consensus.Value
module Client_msg = Msmr_wire.Client_msg
module Kv = Msmr_kv.Kv_service
module TS = Msmr_platform.Thread_state
module Metrics = Msmr_obs.Metrics
module J = Msmr_obs.Json

let n = 3
let stop_wait_ns = 10_000_000_000

(* ---- tracing wrappers ------------------------------------------------ *)

let spans = Buffer.create (1 lsl 20)
let spans_lock = Mutex.create ()

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Service.execute self time, split by command kind. *)
type svc_stats = {
  w_n : int Atomic.t; w_ns : int Atomic.t;
  r_n : int Atomic.t; r_ns : int Atomic.t;
}

let svc_stats =
  Array.init n (fun _ ->
      { w_n = Atomic.make 0; w_ns = Atomic.make 0; r_n = Atomic.make 0;
        r_ns = Atomic.make 0 })

let wrap_service ~me (s : Service.t) =
  let st = svc_stats.(me) in
  let execute (req : Client_msg.request) =
    let is_read =
      match Kv.decode_command req.payload with
      | Kv.Get _ -> true
      | _ -> false
      | exception _ -> false
    in
    let t0 = now_ns () in
    let reply = s.execute req in
    let t1 = now_ns () in
    let cnt, tot = if is_read then (st.r_n, st.r_ns) else (st.w_n, st.w_ns) in
    Atomic.incr cnt;
    ignore (Atomic.fetch_and_add tot (t1 - t0));
    if sampled ~client_id:req.id.client_id ~seq:req.id.seq then
      with_lock spans_lock (fun () ->
          Printf.bprintf spans "E %d %d %d %d %d\n" me req.id.client_id
            req.id.seq t0 t1);
    reply
  in
  { s with execute }

(* Frames sent over the Hub, by message type, and time inside send. *)
type link_stats = {
  frames : int Atomic.t; bytes : int Atomic.t; send_ns : int Atomic.t;
  accept : int Atomic.t; accepted : int Atomic.t; decide : int Atomic.t;
  other : int Atomic.t;
  recv_frames : int Atomic.t array;   (* per receiving replica *)
}

let lstats =
  let z () = Atomic.make 0 in
  { frames = z (); bytes = z (); send_ns = z (); accept = z ();
    accepted = z (); decide = z (); other = z ();
    recv_frames = Array.init n (fun _ -> z ()) }

let accept_seen : (int * int, unit) Hashtbl.t = Hashtbl.create 4096

let classify b =
  let add a k = ignore (Atomic.fetch_and_add a k) in
  Atomic.incr lstats.frames;
  add lstats.bytes (Bytes.length b);
  match Msg.decode b with
  | Msg.Accept { value; _ } ->
    Atomic.incr lstats.accept;
    (match value with
     | Value.Batch batch ->
       let now = now_ns () in
       List.iter
         (fun (r : Client_msg.request) ->
            let k = (r.id.client_id, r.id.seq) in
            if sampled ~client_id:(fst k) ~seq:(snd k) then
              with_lock spans_lock (fun () ->
                  if not (Hashtbl.mem accept_seen k) then begin
                    Hashtbl.replace accept_seen k ();
                    Printf.bprintf spans "A %d %d %d\n" (fst k) (snd k) now
                  end))
         batch.requests
     | Value.Noop | Value.Reconfig _ -> ())
  | Msg.Accepted _ -> Atomic.incr lstats.accepted
  | Msg.Decide _ -> Atomic.incr lstats.decide
  | _ -> Atomic.incr lstats.other
  | exception _ -> Atomic.incr lstats.other

let wrap_link ~me (l : T.link) =
  let timed f =
    let t0 = now_ns () in
    f ();
    ignore (Atomic.fetch_and_add lstats.send_ns (now_ns () - t0))
  in
  { T.send_bytes =
      (fun b ->
         timed (fun () -> l.send_bytes b);
         classify b);
    send_many =
      (fun bs ->
         timed (fun () -> l.send_many bs);
         List.iter classify bs);
    recv_bytes =
      (fun () ->
         let r = l.recv_bytes () in
         if r <> None then Atomic.incr lstats.recv_frames.(me);
         r);
    close = l.close }

(* ---- readings ---------------------------------------------------------- *)

let vm_hwm_kb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

type reading = {
  at : int;
  cpu : float;
  minor_words : float;
  major : int;
  hub_frames : int;
  threads : (string * TS.totals) list;
  metrics : Metrics.sample list;
  replicas : R.t array;
  decided : int array;
  executed : int array;
  view_changes : int array;
  reads_served : int array;
  reads_rejected : int array;
  snap_installs : int array;
  svc : (int * int * int * int) array;
  links : int array;
  recv : int array;
}

let read_all hub (replicas : R.t array) =
  let g = Gc.quick_stat () in
  let per f = Array.map f replicas in
  let a x = Atomic.get x in
  { at = now_ns (); cpu = cpu_s (); minor_words = g.Gc.minor_words;
    major = g.Gc.major_collections; hub_frames = T.Hub.frames_sent hub;
    threads = TS.snapshot_all (); metrics = Metrics.snapshot ();
    replicas = Array.copy replicas;
    decided = per R.decided_count; executed = per R.executed_count;
    view_changes = per R.view_changes_count;
    reads_served = per R.reads_served_count;
    reads_rejected = per R.reads_rejected_count;
    snap_installs = per R.snapshot_installs_count;
    svc = Array.map (fun s -> (a s.w_n, a s.w_ns, a s.r_n, a s.r_ns)) svc_stats;
    links =
      Array.map a
        [| lstats.frames; lstats.bytes; lstats.send_ns; lstats.accept;
           lstats.accepted; lstats.decide; lstats.other |];
    recv = Array.map a lstats.recv_frames }

(* Thread names repeat (every Client_server has a "conn-0"), so threads
   are matched by name and occurrence. *)
let keyed threads =
  let seen = Hashtbl.create 64 in
  List.map
    (fun (name, tot) ->
       let k = Option.value (Hashtbl.find_opt seen name) ~default:0 in
       Hashtbl.replace seen name (k + 1);
       ((name, k), tot))
    threads

(* Busy and lifetime nanoseconds per stage over the window. *)
let stage_times ~leader r0 r1 =
  let before = keyed r0.threads in
  let sums = Hashtbl.create 16 in
  let add stage busy life =
    let b, l = Option.value (Hashtbl.find_opt sums stage) ~default:(0L, 0L) in
    Hashtbl.replace sums stage (Int64.add b busy, Int64.add l life)
  in
  let pre = Printf.sprintf "r%d/" leader in
  let starts p s = String.length s >= String.length p
                   && String.sub s 0 (String.length p) = p in
  List.iter
    (fun ((name, k), (t : TS.totals)) ->
       let life (t : TS.totals) =
         Int64.(add (add t.busy_ns t.blocked_ns) (add t.waiting_ns t.other_ns))
       in
       let busy, lifetime =
         match List.assoc_opt (name, k) before with
         | Some (t0 : TS.totals) when Int64.compare (life t) (life t0) >= 0 ->
           (Int64.sub t.busy_ns t0.busy_ns, Int64.sub (life t) (life t0))
         | _ -> (t.busy_ns, life t)  (* started during the window *)
       in
       add "all" busy lifetime;
       let stage =
         if starts "conn-" name then Some "client_server"
         else if starts pre name then
           let rest = String.sub name (String.length pre)
                        (String.length name - String.length pre) in
           if starts "ClientIO-" rest then Some "client_io"
           else if rest = "Batcher" then Some "batcher"
           else if rest = "Protocol" then Some "paxos"
           else if starts "ReplicaIOSnd-" rest then Some "replica_io_send"
           else if starts "ReplicaIORcv-" rest then Some "replica_io_recv"
           else if rest = "Replica" then Some "replica"
           else if rest = "StableStorage" then Some "stable_storage"
           else None
         else None
       in
       Option.iter (fun s -> add s busy lifetime) stage)
    (keyed r1.threads);
  Hashtbl.fold
    (fun stage (b, l) acc ->
       (stage, J.Obj [ ("busy_ns", J.Int (Int64.to_int b));
                       ("life_ns", J.Int (Int64.to_int l)) ]) :: acc)
    sums []

(* Counter-like series summed over all label sets; a series that went
   backwards was re-registered by a restarted replica and counts from 0. *)
let metric_delta name r0 r1 =
  let value (s : Metrics.sample) =
    match s.value with
    | Metrics.Counter_v c -> float_of_int c
    | Metrics.Gauge_v g -> g
    | Metrics.Histogram_v h -> float_of_int h.count *. h.mean
  in
  List.fold_left
    (fun acc (s : Metrics.sample) ->
       if s.name <> name then acc
       else
         let v0 =
           match
             List.find_opt
               (fun (p : Metrics.sample) -> p.name = name && p.labels = s.labels)
               r0.metrics
           with
           | Some p -> value p
           | None -> 0.
         in
         let v1 = value s in
         acc +. (if v1 >= v0 then v1 -. v0 else v1))
    0. r1.metrics

let hist_count name r0 r1 =
  let count (ss : Metrics.sample list) labels =
    List.fold_left
      (fun acc (s : Metrics.sample) ->
         match s.value with
         | Metrics.Histogram_v h when s.name = name && s.labels = labels ->
           acc + h.count
         | _ -> acc)
      0 ss
  in
  List.fold_left
    (fun acc (s : Metrics.sample) ->
       if s.name <> name then acc
       else
         let c1 = count r1.metrics s.labels and c0 = count r0.metrics s.labels in
         acc + (if c1 >= c0 then c1 - c0 else c1))
    0 r1.metrics

let hist_p50 name (r : reading) =
  List.fold_left
    (fun acc (s : Metrics.sample) ->
       match s.value with
       | Metrics.Histogram_v h when s.name = name -> Float.max acc h.p50
       | _ -> acc)
    0. r.metrics

(* Counter delta of replica [i], zero-based when it was restarted. *)
let rdelta (r0 : reading) (r1 : reading) f i =
  if r0.replicas.(i) == r1.replicas.(i) then f r1 i - f r0 i else f r1 i

(* ---- main -------------------------------------------------------------- *)

let main () =
  let get, get_opt = parse_args Sys.argv in
  let out = get "out" in
  let traced = get "trace" = "1" in
  let lease = get "lease" = "1" in
  let keys = int_of_string (get "keys") in
  let setup_only = get_opt "setup-only" = Some "1" in
  let wal_dir = get_opt "wal-dir" in
  let kill_at = float_of_string (Option.value (get_opt "kill-at") ~default:"-1") in
  let restart_at =
    float_of_string (Option.value (get_opt "restart-at") ~default:"-1")
  in
  let t_start = now_ns () in
  let cfg = { (Config.default ~n) with Config.lease_enabled = lease } in
  let hub = T.Hub.create ~n () in
  let durability me =
    match wal_dir with
    | None -> R.Ephemeral
    | Some d ->
      R.Durable
        { dir = Filename.concat d (string_of_int me);
          sync = Msmr_storage.Wal.Sync_every_write }
  in
  let services = Array.make n (Kv.make ()) in
  let make me =
    let links =
      List.filter_map
        (fun peer ->
           if peer = me then None
           else
             let l = T.Hub.link hub ~me ~peer in
             Some (peer, if traced then wrap_link ~me l else l))
        (List.init n Fun.id)
    in
    let svc = Kv.make () in
    services.(me) <- (if traced then wrap_service ~me svc else svc);
    R.create ~durability:(durability me) ~cfg ~me ~links
      ~service:services.(me) ()
  in
  let replicas = Array.init n make in
  let servers = Array.map (fun r -> CS.start r ~port:0) replicas in
  let ports = Array.map CS.port servers in
  let leader () =
    let rec go i = if i >= n then None
      else if R.is_leader replicas.(i) then Some i else go (i + 1) in
    go 0
  in
  let rec await_ready () =
    match leader () with
    | Some l when (not lease) || R.lease_held replicas.(l) -> l
    | _ ->
      if now_ns () - t_start > 30_000_000_000 then failwith "no leader";
      Unix.sleepf 0.001;
      await_ready ()
  in
  let l0 = await_ready () in
  let t_ready = now_ns () in
  print_endline
    ("READY "
     ^ J.to_string
         (J.Obj
            [ ("ports", J.List (Array.to_list (Array.map (fun p -> J.Int p) ports)));
              ("leader", J.Int l0);
              ("election_s", J.Float (float_of_int (t_ready - t_start) /. 1e9)) ]));
  flush stdout;
  if setup_only then Unix._exit 0;
  let t0, seconds =
    Scanf.sscanf (input_line stdin) "START %d %f" (fun a b -> (a, b))
  in
  let t_end = t0 + int_of_float (seconds *. 1e9) in
  let violations = ref [] in
  let violation s = violations := s :: !violations in
  (* Failover schedule: kill the leader, restart it from its WAL. *)
  let fo = Hashtbl.create 8 and fo_lock = Mutex.create () in
  let fo_set k v = with_lock fo_lock (fun () -> Hashtbl.replace fo k v) in
  let failover () =
    sleep_until (t0 + int_of_float (kill_at *. 1e9));
    let victim = Option.value (leader ()) ~default:l0 in
    fo_set "victim" victim;
    fo_set "kill_ns" (now_ns ());
    CS.stop servers.(victim);
    R.stop replicas.(victim);
    fo_set "killed_ns" (now_ns ());
    let restart_ns = t0 + int_of_float (restart_at *. 1e9) in
    let rec elect () =
      match leader () with
      | Some l when l <> victim -> fo_set "elected_ns" (now_ns ())
      | _ -> if now_ns () < restart_ns then (Unix.sleepf 0.001; elect ())
    in
    elect ();
    sleep_until restart_ns;
    fo_set "restart_ns" (now_ns ());
    T.Hub.renew hub victim;
    replicas.(victim) <- make victim;
    servers.(victim) <- CS.start replicas.(victim) ~port:ports.(victim);
    let max_lag = ref 0 in
    let deadline = now_ns () + 20_000_000_000 in
    let rec catch_up () =
      let ld = Option.value (leader ()) ~default:0 in
      let lag =
        R.first_undecided replicas.(ld) - R.first_undecided replicas.(victim)
      in
      max_lag := max !max_lag lag;
      if lag <= cfg.Config.window then fo_set "caught_up_ns" (now_ns ())
      else if now_ns () > deadline then violation "restarted replica never caught up"
      else (Unix.sleepf 0.002; catch_up ())
    in
    catch_up ();
    fo_set "max_lag" !max_lag
  in
  let fo_thread =
    if kill_at >= 0. then Some (Thread.create failover ()) else None
  in
  (* Sampler: leader queue depths and follower lag, every 5 ms. *)
  let sums = Array.make 6 0 and samples = ref 0 and max_lag = ref 0 in
  let sampler () =
    while now_ns () < t_end do
      (match leader () with
       | Some l ->
         let q = R.queue_stats replicas.(l) in
         let fu = R.first_undecided replicas.(l) in
         let lag = Array.fold_left
             (fun m r -> max m (fu - R.first_undecided r)) 0 replicas in
         Array.iteri (fun i v -> sums.(i) <- sums.(i) + v)
           [| q.request_queue; q.proposal_queue; q.dispatcher_queue;
              q.decision_queue; q.window_in_use; lag |];
         max_lag := max !max_lag lag;
         incr samples
       | None -> ());
      Unix.sleepf 0.005
    done
  in
  sleep_until t0;
  let r0 = read_all hub replicas in
  let sampler_thread = if traced then Some (Thread.create sampler ()) else None in
  sleep_until t_end;
  let r1 = read_all hub replicas in
  let leader_end = Option.value (leader ()) ~default:l0 in
  Option.iter Thread.join sampler_thread;
  (match input_line stdin with
   | "FINISH" -> ()
   | l -> failwith ("unexpected command " ^ l));
  let t_finish = now_ns () in
  Option.iter Thread.join fo_thread;
  (* Wait until every replica decided and executed the whole log. *)
  let settled () =
    let fus = Array.map R.first_undecided replicas in
    Array.for_all (fun f -> f = fus.(0)) fus
    && Array.for_all
         (fun r -> (R.queue_stats r).Msmr_runtime.Replica.decision_queue = 0)
         replicas
  in
  let deadline = now_ns () + 20_000_000_000 in
  let stable = ref 0 in
  while !stable < 3 && now_ns () < deadline do
    if settled () then incr stable else stable := 0;
    Unix.sleepf 0.005
  done;
  if !stable < 3 then violation "replicas did not converge after the load";
  let t_settled = now_ns () in
  let peak_kb = vm_hwm_kb () in
  Array.iter CS.stop servers;
  (* Replica.stop can block for good: a follower that was sent writes
     (the generator tries every replica while the leader is down) fills
     its RequestQueue, and its ClientIO workers then retry the hand-off
     without ever seeing their ingress closed. The replicas are stopped
     with a bounded wait instead; a stop that does not return is reported
     and the process leaves with Unix._exit. *)
  let stopped = Atomic.make false in
  let t_stop = now_ns () in
  ignore
    (Thread.create
       (fun () -> Array.iter R.stop replicas; Atomic.set stopped true) ());
  while (not (Atomic.get stopped)) && now_ns () - t_stop < stop_wait_ns do
    Unix.sleepf 0.005
  done;
  let stop_s =
    if Atomic.get stopped then float_of_int (now_ns () - t_stop) /. 1e9
    else begin
      prerr_endline "cluster: Replica.stop did not return; replicas left running";
      -1.
    end
  in
  (* Every replica must hold the same state; dump it for run.py. *)
  let snaps = Array.map (fun (s : Service.t) -> s.snapshot ()) services in
  if not (Array.for_all (fun s -> Bytes.equal s snaps.(0)) snaps) then
    violation "replica snapshots differ";
  let final = Buffer.create (keys * 16) in
  for k = 0 to keys - 1 do
    let payload = Kv.encode_command (Kv.Get (key_name k)) in
    let answers =
      Array.map
        (fun (s : Service.t) ->
           s.execute { id = { client_id = 0; seq = 0 }; payload })
        services
    in
    if not (Array.for_all (fun a -> Bytes.equal a answers.(0)) answers) then
      violation (Printf.sprintf "replicas disagree on %s" (key_name k));
    match Kv.decode_reply answers.(0) with
    | Kv.Ok_value (Some v) -> (
        match parse_value v with
        | Some (k', tag) when k' = k -> Printf.bprintf final "%d %d\n" k tag
        | _ -> violation (Printf.sprintf "%s holds a foreign value" (key_name k)))
    | Kv.Ok_value None -> ()
    | _ -> violation "final Get failed"
  done;
  write_file (Filename.concat out "final.txt") (Buffer.contents final);
  let r2 = read_all hub replicas in
  let i x = J.Int x and f x = J.Float x in
  let ld = leader_end in
  let svc_pair (r : reading) = r.svc.(ld) in
  let w_n0, w_ns0, rd_n0, rd_ns0 = svc_pair r0 and w_n1, w_ns1, rd_n1, rd_ns1 = svc_pair r1 in
  let _, _, rd_n2, rd_ns2 = svc_pair r2 in
  let link k = r1.links.(k) - r0.links.(k) in
  let fo_json =
    with_lock fo_lock (fun () ->
        Hashtbl.fold (fun k v acc -> (k, i v) :: acc) fo [])
  in
  let report =
    J.Obj
      [ ("t_start_ns", i t_start); ("t_ready_ns", i t_ready);
        ("leader_start", i l0); ("leader_end", i ld);
        ("window_ns", i (r1.at - r0.at));
        ("cpu_s", f (r1.cpu -. r0.cpu));
        ("minor_words", f (r1.minor_words -. r0.minor_words));
        ("major_collections", i (r1.major - r0.major));
        ("hub_frames", i (r1.hub_frames - r0.hub_frames));
        ("stages", J.Obj (stage_times ~leader:ld r0 r1));
        ("decided", i (rdelta r0 r1 (fun r j -> r.decided.(j)) ld));
        ("executed", i (rdelta r0 r1 (fun r j -> r.executed.(j)) ld));
        ("view_changes",
         i (Array.fold_left ( + ) 0
              (Array.init n (rdelta r0 r1 (fun r j -> r.view_changes.(j))))));
        ("reads_served", i (rdelta r0 r1 (fun r j -> r.reads_served.(j)) ld));
        ("reads_rejected", i (rdelta r0 r1 (fun r j -> r.reads_rejected.(j)) ld));
        ("snapshot_installs",
         i (Array.fold_left ( + ) 0
              (Array.init n (fun j -> r2.snap_installs.(j)))));
        ("client_io_replies",
         f (metric_delta "msmr_client_io_replies_total" r0 r1));
        ("client_io_flushes", f (metric_delta "msmr_client_io_flushes" r0 r1));
        ("wal_syncs", f (metric_delta "msmr_wal_sync_total" r0 r1));
        ("wal_group_records", f (metric_delta "msmr_wal_group_size" r0 r1));
        ("wal_groups", i (hist_count "msmr_wal_group_size" r0 r1));
        ("durable_hold_p50_s", f (hist_p50 "msmr_replica_durable_hold_s" r1));
        ("svc_write_n", i (w_n1 - w_n0)); ("svc_write_ns", i (w_ns1 - w_ns0));
        ("svc_read_n", i (rd_n1 - rd_n0)); ("svc_read_ns", i (rd_ns1 - rd_ns0));
        ("svc_readback_n", i (rd_n2 - rd_n1));
        ("svc_readback_ns", i (rd_ns2 - rd_ns1));
        ("link_frames", i (link 0)); ("link_bytes", i (link 1));
        ("link_send_ns", i (link 2)); ("link_accept", i (link 3));
        ("link_accepted", i (link 4)); ("link_decide", i (link 5));
        ("link_other", i (link 6));
        ("leader_recv_frames", i (r1.recv.(ld) - r0.recv.(ld)));
        ("samples", i !samples);
        ("mean_request_queue", f (float_of_int sums.(0) /. float_of_int (max 1 !samples)));
        ("mean_proposal_queue", f (float_of_int sums.(1) /. float_of_int (max 1 !samples)));
        ("mean_dispatcher_queue", f (float_of_int sums.(2) /. float_of_int (max 1 !samples)));
        ("mean_decision_queue", f (float_of_int sums.(3) /. float_of_int (max 1 !samples)));
        ("mean_window_in_use", f (float_of_int sums.(4) /. float_of_int (max 1 !samples)));
        ("max_lag", i !max_lag);
        ("finish_ns", i t_finish); ("settled_ns", i t_settled);
        ("peak_rss_kb", i peak_kb);
        ("replica_stop_s", f stop_s);
        ("failover", J.Obj fo_json);
        ("violations", J.List (List.rev_map (fun s -> J.String s) !violations)) ]
  in
  write_file (Filename.concat out "cluster.json") (J.to_string report);
  if traced then
    write_file (Filename.concat out "cluster_spans.txt") (Buffer.contents spans);
  flush_all ();
  Unix._exit 0
