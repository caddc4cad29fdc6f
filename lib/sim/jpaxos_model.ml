open Msmr_consensus
module Client_msg = Msmr_wire.Client_msg

(* Approximate wire sizes without running the codec on every message —
   header bytes per constructor, payload bytes from the value. *)
let approx_size (m : Msg.t) =
  match m with
  | Msg.Accept { value; _ } -> 34 + Value.size_bytes value
  | Msg.Prepare _ | Msg.Accepted _ | Msg.Decide _ | Msg.Heartbeat _
  | Msg.Lease_ping _ | Msg.Lease_grant _ -> 20
  | Msg.Prepare_ok { entries; _ } | Msg.Catchup_reply { entries; _ } ->
    List.fold_left (fun acc (e : Msg.log_entry) ->
        acc + 18 + Value.size_bytes e.e_value) 24 entries
  | Msg.Catchup_query _ -> 24

(* How many WAL records the live runtime would log for an incoming
   message / an action list: mirrors [Replica.protocol_loop]'s persist
   points (promise on Prepare, acceptance on Accept, the leader's
   self-accept on Schedule_rtx, Decided on Execute, catch-up learns). *)
let records_for_msg = function
  | Msg.Accept _ | Msg.Prepare _ -> 1
  | Msg.Catchup_reply { entries; _ } ->
    2 * List.length (List.filter (fun (e : Msg.log_entry) -> e.e_decided) entries)
  | _ -> 0

let records_for_actions actions =
  List.fold_left
    (fun acc a ->
       match a with
       | Paxos.View_changed _ | Paxos.Execute _ -> acc + 1
       | Paxos.Schedule_rtx { key = Paxos.Rtx_accept _; msg = Msg.Accept _; _ }
         -> acc + 1
       | _ -> acc)
    0 actions

(* Durability-dependent messages (same set as the live runtime's gate). *)
let durability_gated = function
  | Msg.Prepare_ok _ | Msg.Accepted _ | Msg.Accept _ -> true
  | _ -> false

(* TCP-like segment coalescing at the sender: consecutive queued messages
   share Ethernet frames (this is what lets a Decide piggyback on the next
   Accept and keeps the leader within its packet budget — Section VI-D3). *)
let segment_payload = 1448

type cio_ev =
  | Req of Client_msg.request
  | Rep of Client_msg.request_id
  | Rd of Client_msg.request_id
      (* read fast path: one packet in, a DecisionQueue ride, one packet
         back — no Batcher/Protocol/replication. Replies reuse [Rep];
         the result travels in per-client slots (one outstanding op). *)

type disp_ev =
  | PMsg of Types.node_id * Msg.t
  | Poke
  | Suspect_ev  (* chaos: local failure-detector verdict *)
  | Tick        (* chaos: periodic catch-up check *)
  | Reconfig_cmd of Membership.t
      (* reconfig driver: ask this node (believed leader) to order the
         given next-epoch membership through its log *)

(* Multi-group Router input: ordered writes and fast-path reads share
   the Router hop, which partitions both to their group by conflict key
   (client id) — reads then ride the group's DecisionQueue. *)
type route_ev =
  | Route_req of Client_msg.request
  | Route_read of Client_msg.request_id

(* StableStorage pipeline events ([Params.Sync_group]), mirroring the
   live runtime's log queue: the Protocol process enqueues record counts
   and durability-gated sends; the StableStorage process drains a burst,
   pays one device fsync for all its records (group commit), then
   forwards the gated sends. FIFO order makes release order = log
   order. *)
type ss_ev =
  | Sl_log of int                     (* records to append *)
  | Sl_rel of Types.node_id * Msg.t   (* send awaiting durability *)

type decision_ev =
  | Dec of { d_iid : Types.iid; d_value : Value.t; d_t : float }
      (* [d_t] stamps the decide instant so the speculative path can
         report the decide->reply gap it collapses *)
  | Dread of { r_id : Client_msg.request_id }
      (* a fast-path read riding the DecisionQueue: its FIFO position
         behind every already-decided instance IS the apply-frontier
         wait that makes leaseholder reads linearizable (the same trick
         the live runtime plays) *)
  | Dspec of { s_req : Client_msg.request }
      (* early scheduling ([Params.speculate]): the leader's ClientIO
         pushes each fresh request here at ingress, ahead of the whole
         Batcher/Protocol/replication ride, so the ServiceManager can
         pre-dispatch and execute it optimistically against predicted
         (arrival) order *)

(* Work items on the parallel-ServiceManager executor paths: an ordered
   execution (decided; carries the decide instant for the commit->execute
   gap measurement) or an optimistic one ([Params.speculate]). *)
type exec_item =
  | E_exec of Client_msg.request * float
  | E_spec of Client_msg.request

type replica_report = {
  cpu_util_pct : float;
  blocked_pct : float;
  threads : (string * Sstats.totals) list;
}

type result = {
  throughput : float;
  client_latency : float;
  instance_latency : float;
  avg_batch_reqs : float;
  avg_batch_bytes : float;
  avg_window : float;
  avg_request_queue : float;
  avg_proposal_queue : float;
  avg_dispatcher_queue : float;
  replicas : replica_report array;
  leader_tx_pps : float;
  leader_rx_pps : float;
  leader_tx_mbps : float;
  leader_rx_mbps : float;
  rtt_leader : float;
  rtt_followers : float;
  rtt_idle : float;
  wal_syncs : int;
  wal_group_avg : float;
  tuned_bsz_final : int;
  tuned_wnd_final : int;
  view_changes : int;
  unavailable_s : float;
  recovery_s : float;
  completed : int;
  safety_ok : bool;
  executed_min : int;
  executed_max : int;
  client_retries : int;
  reads_completed : int;
  read_rejects : int;
  stale_answers : int;
  timeline : (float * int) array;
  events : int;
  group_throughputs : float array;
  globals_executed : int;
  spec_dispatched : int;
  spec_confirmed : int;
  spec_aborted : int;
  commit_exec_latency : float;
  reconfigs_applied : int;
  final_epoch : int;
  trace : Msmr_obs.Trace.t option;
}

type node = {
  id : int;
  cpu : Cpu.t;
  nic : Nic.t;
  mutable engine : Paxos.t;   (* swapped on chaos restart (recovery) *)
  dispatcher_q : disp_ev Squeue.t;
  proposal_q : Batch.t Squeue.t;
  request_qs : Client_msg.request Squeue.t array;   (* one per Batcher *)
  decision_q : decision_ev Squeue.t;
  send_qs : Msg.t Squeue.t array;
  rcv_mbs : (Types.node_id * Msg.t) Mailbox.t array;  (* per peer *)
  cio_mbs : cio_ev Mailbox.t array;                   (* per ClientIO thread *)
  disk : Sdisk.t option;              (* Some iff sync_policy <> Sync_none *)
  ss_q : ss_ev Squeue.t option;       (* Some iff sync_policy = Sync_group *)
  mutable threads : Sstats.thread list;               (* registration order *)
}

type client = {
  cid : int;
  mutable next_seq : int;
  mutable sent_at : float;
}

(* ================================================================== *)
(* Machinery shared by the single-group and multi-group runners.       *)
(* ================================================================== *)

let ns_of s = Int64.of_float (s *. 1e9)

let state_name : Sstats.state -> string = function
  | Sstats.Busy -> "busy"
  | Sstats.Blocked -> "blocked"
  | Sstats.Waiting -> "waiting"
  | Sstats.Other -> "other"

(* The tracer is stamped from the engine's virtual clock, so trace
   timelines are in *simulated* time — the paper's figures become
   inspectable Chrome timelines. *)
let make_tracer ~trace eng =
  if trace then
    Some (Msmr_obs.Trace.create ~clock:(fun () -> ns_of (Engine.now eng)) ())
  else None

(* Give a registered thread its own track on replica [pid] and bridge
   its Sstats state changes to merged spans (cat = the owning module,
   name = the state). *)
let trace_thread tracer ~pid st =
  Option.map
    (fun t ->
       let tname = Sstats.name st in
       let trk =
         Msmr_obs.Trace.track t ~pid ~pname:(Printf.sprintf "replica-%d" pid)
           ~name:tname ()
       in
       let cat = Msmr_obs.Taxonomy.module_of_thread tname in
       Sstats.attach_tracer st (fun state t0 t1 ->
           let ts = ns_of t0 in
           Msmr_obs.Trace.complete trk ~cat ~name:(state_name state) ~ts_ns:ts
             ~dur_ns:(Int64.sub (ns_of t1) ts) ());
       trk)
    tracer

let cost (p : Params.t) x = x /. p.profile.cpu_speed

(* Kernel network-stack contention grows with ClientIO threads beyond
   8 (Figure 9 / Section VI-C). *)
let net_slowdown (p : Params.t) =
  1.0
  +. (p.net_contention_per_io_thread
      *. float_of_int (max 0 (p.client_io_threads - 8)))

let pkt_rate (p : Params.t) =
  p.profile.pkt_rate /. net_slowdown p *. (if p.rss then 2.0 else 1.0)

(* The engine configuration a run simulates: the paper's static tuning,
   plus the failure-detector/retransmission timing under [chaos] and the
   lease policy under [p.lease]. *)
let config_of (p : Params.t) ~chaos =
  let cfg =
    { (Config.default ~n:p.n) with
      groups = max 1 p.groups;
      window = p.wnd;
      max_batch_bytes = p.bsz;
      max_batch_delay_s = 0.005;
      snapshot_every = 0;
      members0 = p.members0 }
  in
  let cfg =
    if chaos then
      { cfg with
        fd_interval_s = p.chaos_fd_interval;
        fd_timeout_s = p.chaos_fd_timeout;
        retransmit_interval_s = p.chaos_rtx_interval }
    else cfg
  in
  if p.lease then
    { cfg with
      Config.lease_enabled = true;
      lease_duration_s = p.lease_duration;
      clock_skew_bound_s = p.clock_skew }
  else cfg

(* A deterministic per-node value in [0, 1] (Knuth hash, no RNG). *)
let clock_u i salt =
  float_of_int (((i * 2654435761) + (salt * 40503)) land 1023) /. 1023.

(* Per-node drifting clocks: node [i] reads [t*(1+drift_i)+offset_i],
   bounded — offset and the drift accumulated over the whole run each
   stay within [clock_skew/2], so no node's clock error exceeds
   [clock_skew]. This is the adversary the lease's
   [clock_skew_bound_s] padding is up against. Returns [node_clock]
   (seconds) and [clock_ns]. *)
let node_clocks eng (p : Params.t) =
  let horizon = p.warmup +. p.duration in
  let clock_offset =
    Array.init p.n (fun i -> p.clock_skew /. 2. *. clock_u i 1)
  in
  let clock_drift =
    Array.init p.n (fun i ->
        if horizon <= 0. then 0.
        else p.clock_skew /. 2. *. clock_u i 2 /. horizon)
  in
  let node_clock i =
    (Engine.now eng *. (1. +. clock_drift.(i))) +. clock_offset.(i)
  in
  (node_clock, fun i -> int_of_float (node_clock i *. 1e9))

(* Floor-crossing pattern: the [k]-th event is selected iff
   floor(k * ratio) > floor((k-1) * ratio) — deterministic, evenly
   spread, exactly [ratio] of all events in the long run, no RNG. *)
let floor_crosses ratio k =
  ratio > 0.
  && int_of_float (float_of_int k *. ratio)
     > int_of_float (float_of_int (k - 1) *. ratio)

(* Forced-mispredict interleave, consumed once per confirm-eligible
   speculation frame. *)
let mispredictor (p : Params.t) =
  let total = ref 0 in
  fun () ->
    incr total;
    floor_crosses p.mispredict_ratio !total

(* Read fast-path gate: with [lease = false] none of the lease/read
   state is consulted and the event stream is byte-for-byte the seed
   one (golden-pinned). [read_ratio > 0.] with [lease = false] runs
   reads down the ordered path — a read then costs exactly a write,
   which IS the ordered-read baseline bench008 measures the fast path
   against. *)
let reads_on (p : Params.t) = p.lease && p.read_ratio > 0.

(* Deterministic read/write interleave: op [k] of a client is a read iff
   the scaled floor counter crosses. *)
let is_read_op p k = reads_on p && floor_crosses p.read_ratio k

(* Per-client read plumbing (clients are sequential: one outstanding op
   each, so plain slots carry the reply payload) and the linearizability
   bookkeeping the extended [safety_ok] checks: [ack_hist] remembers
   when each write ack landed, newest first. *)
type read_book = {
  read_result : int array;   (* served version, -1 = rejected *)
  read_serve_t : float array;
  read_floor : int array;    (* last acked write when the read was issued *)
  last_write_acked : int array;
  ack_hist : (int * float) list array;
  mutable stale : int;       (* read-safety violations *)
}

let read_book n_cl =
  { read_result = Array.make n_cl (-1);
    read_serve_t = Array.make n_cl 0.;
    read_floor = Array.make n_cl 0;
    last_write_acked = Array.make n_cl 0;
    ack_hist = Array.make n_cl [];
    stale = 0 }

let note_acked eng rb cid seq =
  rb.last_write_acked.(cid) <- seq;
  let l = (seq, Engine.now eng) :: rb.ack_hist.(cid) in
  rb.ack_hist.(cid) <-
    (if List.length l > 64 then List.filteri (fun i _ -> i < 64) l else l)

(* Highest write seq of [cid] acked at or before [cutoff]. Truncated
   history can only lower the floor — the check errs permissive, never
   flags a correct read. *)
let acked_floor rb cid cutoff =
  let rec go = function
    | (s, t) :: _ when t <= cutoff -> s
    | _ :: rest -> go rest
    | [] -> 0
  in
  go rb.ack_hist.(cid)

(* Client-side verdict on one finished read: a linearizable read must
   return at least the client's last write acked before the read was
   issued; a bounded-staleness read at least the last write acked
   [staleness_bound] before the moment the replica served it. *)
let check_read (p : Params.t) rb cid =
  let q = rb.read_result.(cid) in
  if q >= 0 then begin
    let floor =
      if p.stale_reads then
        acked_floor rb cid (rb.read_serve_t.(cid) -. p.staleness_bound)
      else rb.read_floor.(cid)
    in
    if q < floor then rb.stale <- rb.stale + 1
  end

(* Up to [k] items already waiting in [q], without blocking. *)
let take_burst q st k =
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      match Squeue.try_take q st with
      | Some x -> go (x :: acc) (k - 1)
      | None -> List.rev acc
  in
  go [] k

(* One wire transmission from node [src] to node [dst] (callback-safe:
   never suspends). Fault-free it is a plain NIC send. Under [chaos] the
   fault schedule applies at the NIC boundary — the whole segment is
   dropped, delayed or duplicated, exactly like a lost or reordered
   frame — and a crashed node neither sends nor receives. *)
let transmit eng ~chaos net up ~src ~dst ~src_nic ~dst_nic ~size deliver =
  if not chaos then Nic.send src_nic ~dst:dst_nic ~size deliver
  else if up.(src) then
    List.iter
      (fun extra ->
         let send () =
           Nic.send src_nic ~dst:dst_nic ~size (fun () ->
               if up.(dst) then deliver ())
         in
         if extra <= 0. then send ()
         else Engine.schedule_at eng (Engine.now eng +. extra) send)
      (Sfault.deliveries net ~src ~now:(Engine.now eng) ~dst)

(* Schedule the fault-injection timeline: crashes and restarts through
   the runner's [crash]/[restart], partitions on the chaos network,
   device stalls on [disk node]. Link rules are standing and consulted
   per segment, so they need no event. *)
let arm_faults eng net (p : Params.t) ~crash ~restart ~disk =
  List.iter
    (function
      | Sfault.Crash { node = id; at; restart_at } ->
        Engine.schedule_at eng at (fun () -> crash id);
        Option.iter
          (fun rt -> Engine.schedule_at eng rt (fun () -> restart id))
          restart_at
      | Sfault.Partition { group_a; group_b; at; heal_at; symmetric } ->
        Engine.schedule_at eng at (fun () ->
            Sfault.set_partition net ~group_a ~group_b ~symmetric true);
        Engine.schedule_at eng heal_at (fun () ->
            Sfault.set_partition net ~group_a ~group_b ~symmetric false)
      | Sfault.Link _ -> ()
      | Sfault.Fsync_stall { node = id; at; until_t } ->
        Engine.schedule_at eng at (fun () ->
            Option.iter (fun d -> Sdisk.stall d ~until:until_t) (disk id)))
    p.faults

(* Batcher thread loop: drain [req_q] into the pure [policy], sealing
   on size or on the policy's deadline. A sealed batch pays the
   per-batch cost, leaves a trace instant on [trk], and goes to
   [on_seal]. *)
let batcher_loop eng p cpu st trk policy req_q ~on_seal =
  let c = p.Params.costs in
  let now_ns () = ns_of (Engine.now eng) in
  let seal batch =
    Cpu.work cpu st (cost p c.batcher_per_batch);
    Option.iter
      (fun trk ->
         Msmr_obs.Trace.instant trk ~cat:"ReplicationCore"
           ~args:
             [ ("reqs", Msmr_obs.Json.Int (Batch.request_count batch));
               ("bytes", Msmr_obs.Json.Int (Batch.size_bytes batch)) ]
           "batch-seal")
      trk;
    on_seal batch
  in
  let rec loop () =
    let timeout =
      match Batcher.deadline_ns policy with
      | None -> 1.0
      | Some d -> Float.max 1e-5 ((Int64.to_float d /. 1e9) -. Engine.now eng)
    in
    (match Squeue.take_timeout req_q st ~timeout with
     | Some req ->
       Cpu.work cpu st (cost p c.batcher_per_req);
       Option.iter seal (Batcher.add policy req ~now_ns:(now_ns ()))
     | None -> Option.iter seal (Batcher.flush_due policy ~now_ns:(now_ns ())));
    loop ()
  in
  loop ()

(* ReplicaIO sender loop over one peer's send queue [q], whose items
   carry the protocol message [msg_of x]. Decide messages are tiny and
   latency-insensitive; the TCP stack coalesces them with the next
   Accept on the same connection instead of spending a packet each
   (Section VI-D3's packet accounting). Model: hold a Decide-only burst
   briefly; it rides with the next message, or is flushed alone after
   0.5 ms of silence. Each burst is serialised, then packed into TCP
   segments that [ship size items] puts on the wire. *)
let sender_loop p cpu st q ~msg_of ~ship =
  let c = p.Params.costs in
  let deferred = ref [] in
  let is_decide x = match msg_of x with Msg.Decide _ -> true | _ -> false in
  let rec next_burst () =
    match
      if !deferred = [] then Some (Squeue.take q st)
      else Squeue.take_timeout q st ~timeout:0.0005
    with
    | Some first ->
      let burst = !deferred @ (first :: take_burst q st 31) in
      deferred := [];
      if List.for_all is_decide burst then begin
        deferred := burst;
        next_burst ()
      end
      else burst
    | None ->
      let burst = !deferred in
      deferred := [];
      burst
  in
  let flush seg size = if seg <> [] then ship size (List.rev_map fst seg) in
  let rec loop () =
    let sized =
      List.map
        (fun x ->
           let size = approx_size (msg_of x) in
           Cpu.work cpu st
             (cost p
                (c.io_ser_per_msg +. (c.io_ser_per_byte *. float_of_int size)));
           (x, size))
        (next_burst ())
    in
    let seg, size =
      List.fold_left
        (fun (seg, size) (x, s) ->
           if size > 0 && size + s > segment_payload then begin
             flush seg size;
             ([ (x, s) ], s)
           end
           else ((x, s) :: seg, size + s))
        ([], 0) sized
    in
    flush seg size;
    loop ()
  in
  loop ()

(* Mirror of the live StableStorage thread: drain a burst from the log
   queue, pay one device fsync for every record in it (group commit),
   then forward the gated sends via [release x dest msg]. Burst bound
   256 matches the live loop. *)
let stable_storage_loop eng st q d ~ev ~release =
  let rec loop () =
    let first = Squeue.take q st in
    let burst = first :: take_burst q st 255 in
    List.iter
      (fun x -> match ev x with Sl_log n -> Sdisk.append d n | Sl_rel _ -> ())
      burst;
    (* A release whose record was covered by an earlier burst's fsync
       needs no new sync — only flush when something is pending. *)
    if Sdisk.has_pending d then begin
      Sstats.set st Sstats.Blocked;
      Engine.suspend eng (fun resume -> Sdisk.fsync d resume);
      Sstats.set st Sstats.Busy
    end;
    List.iter
      (fun x ->
         match ev x with
         | Sl_rel (dest, msg) -> release x dest msg
         | Sl_log _ -> ())
      burst;
    loop ()
  in
  loop ()

(* ---------------- collect ---------------- *)

let report ~dur cpu threads =
  let threads =
    List.map (fun st -> (Sstats.name st, Sstats.totals st)) threads
  in
  let blocked =
    List.fold_left
      (fun acc (_, (x : Sstats.totals)) -> acc +. x.blocked)
      0. threads
  in
  { cpu_util_pct = 100. *. Cpu.consumed cpu /. dur;
    blocked_pct = 100. *. blocked /. dur;
    threads }

(* Publish the headline results (and the leader's WAL series, mirroring
   the live ones) to the shared registry, so [--metrics FILE] dumps the
   same series names in live and sim mode. Returns the leader's fsync
   count and mean group size. *)
let publish_headline eng ~labels ~throughput ~client_latency ~leader_cpu_pct
    disk =
  let set = Msmr_obs.Metrics.set_gauge ~labels in
  set "msmr_run_throughput_rps" throughput;
  set "msmr_run_client_latency_s" client_latency;
  set "msmr_run_leader_cpu_pct" leader_cpu_pct;
  set "msmr_run_events" (float_of_int (Engine.events_processed eng));
  match disk with
  | Some d ->
    set "msmr_wal_sync_total" (float_of_int (Sdisk.syncs d));
    set "msmr_wal_group_size" (Sdisk.avg_group d);
    (Sdisk.syncs d, Sdisk.avg_group d)
  | None -> (0, 0.)

(* Linearizability check over executed-request logs (one per node,
   newest first): no node executed a request twice, and every node
   agrees with node 0 on their common prefix of the execution order. *)
let logs_consistent logs =
  let arrs = Array.map (fun l -> Array.of_list (List.rev l)) logs in
  let ok = ref true in
  Array.iter
    (fun a ->
       let seen = Hashtbl.create (Array.length a) in
       Array.iter
         (fun r ->
            if Hashtbl.mem seen r then ok := false else Hashtbl.add seen r ())
         a)
    arrs;
  for i = 1 to Array.length arrs - 1 do
    let a = arrs.(0) and b = arrs.(i) in
    for j = 0 to min (Array.length a) (Array.length b) - 1 do
      if a.(j) <> b.(j) then ok := false
    done
  done;
  !ok

(* Laggiest and most advanced executed-log length. *)
let executed_range counts =
  if Array.length counts = 0 then (0, 0)
  else (Array.fold_left min max_int counts, Array.fold_left max 0 counts)

let run_single ?(trace = false) (p : Params.t) =
  let eng = Engine.create () in
  let tracer = make_tracer ~trace eng in
  (* Thread -> track, for hooks (lock contention) that only know the
     blocked thread. Physical equality: threads are unique records. *)
  let track_of : (Sstats.thread * Msmr_obs.Trace.track) list ref = ref [] in
  let c = p.costs in
  let cost = cost p in
  (* Chaos gate: with [faults = []] and [reconfig_at = []] none of the
     fault-injection state below is consulted and the event stream is
     byte-for-byte the fault-free one (pinned by the determinism
     goldens). A reconfig schedule needs the same machinery faults do —
     failure detector (whose tick drives the joiner's catch-up),
     retransmissions and the safety checker — so it rides the gate. *)
  let chaos = p.faults <> [] || p.reconfig_at <> [] in
  let cfg = config_of p ~chaos in
  let reads_on = reads_on p in
  (* Speculation gate ([Params.speculate]), same discipline: with
     [speculate = false] (or a serial ServiceManager) none of the frame
     state below is consulted and the event stream is byte-for-byte the
     ordered one (golden-pinned). *)
  let spec_on = p.speculate && p.exec_threads > 1 in
  let node_clock, clock_ns = node_clocks eng p in
  (* Lease state per node — the same pure {!Lease} policy the live
     runtime drives, here ticked in simulated time on drifted clocks. *)
  let leases = Array.init p.n (fun i -> Lease.create cfg ~me:i ~view:0) in
  let lease_quorum = (p.n / 2) + 1 in
  (* The simulated service keyed by client id: each node's executed
     version of every client's register (a write = "set my register to
     my seq"), plus the node-local apply recency that backs the
     bounded-staleness freshness proof. *)
  let n_cl = max 1 p.n_clients in
  let ver = Array.init p.n (fun _ -> Array.make n_cl 0) in
  let last_apply_c = Array.make p.n 0. in
  let note_exec node (id : Client_msg.request_id) =
    if reads_on || spec_on then begin
      ver.(node.id).(id.client_id) <- id.seq;
      last_apply_c.(node.id) <- node_clock node.id
    end
  in
  (* Speculation frames — the sim's {!Msmr_runtime.Spec_ledger}. Clients
     are closed-loop (one outstanding op), so at most one open frame per
     client: [sf_seq] is the speculated seq (-1 = no frame), [sf_done]
     whether the optimistic execution finished (register written,
     [sf_undo] holds the value to restore on rollback), [sf_wait] the
     decide instant when the decide arrived first and is waiting on the
     in-flight execution to promote it (-1. = none). *)
  let sf_seq = Array.init p.n (fun _ -> Array.make n_cl (-1)) in
  let sf_done = Array.init p.n (fun _ -> Array.make n_cl false) in
  let sf_wait = Array.init p.n (fun _ -> Array.make n_cl (-1.)) in
  let sf_undo = Array.init p.n (fun _ -> Array.make n_cl 0) in
  let spec_dispatched = ref 0 in
  let spec_confirmed = ref 0 in
  let spec_aborted = ref 0 in
  (* Decide->reply gap, measured on every parallel-SM completion (pure
     refs: recording it never perturbs the event stream). *)
  let ce_sum = ref 0. and ce_n = ref 0 in
  (* Roll one client's open frame back: restore the register the
     optimistic execution clobbered, drop the staged reply. *)
  let spec_abort_frame nid cid =
    if spec_on && sf_seq.(nid).(cid) >= 0 then begin
      if sf_done.(nid).(cid) then ver.(nid).(cid) <- sf_undo.(nid).(cid);
      sf_seq.(nid).(cid) <- -1;
      sf_done.(nid).(cid) <- false;
      sf_wait.(nid).(cid) <- -1.;
      incr spec_aborted
    end
  in
  let spec_abort_all nid =
    if spec_on then
      for cid = 0 to n_cl - 1 do
        spec_abort_frame nid cid
      done
  in
  (* Barrier-side abort: frames whose decide already arrived ([sf_wait])
     are committed work in flight — the quiescence barrier waits for
     them to promote; only undecided speculation rolls back. *)
  let spec_abort_undecided nid =
    if spec_on then
      for cid = 0 to n_cl - 1 do
        if sf_wait.(nid).(cid) < 0. then spec_abort_frame nid cid
      done
  in
  let force_mispredict = mispredictor p in
  let rb = read_book n_cl in
  let reads_completed = ref 0 in
  let read_rejects = ref 0 in
  (* ---------------- nodes ---------------- *)
  let mk_node id =
    let cpu =
      Cpu.create eng ~cores:p.cores ~switch_cost:(cost c.switch_cost) ()
    in
    let nic =
      Nic.create eng ~pkt_rate:(pkt_rate p) ~bandwidth:p.profile.bandwidth
        ~name:(Printf.sprintf "nic-%d" id) ()
    in
    { id; cpu; nic;
      engine = Paxos.create cfg ~me:id;
      dispatcher_q = Squeue.create eng ~cpu ~capacity:100_000 ~name:"DispatcherQueue" ();
      proposal_q = Squeue.create eng ~cpu ~capacity:20 ~name:"ProposalQueue" ();
      request_qs =
        Array.init p.n_batchers (fun _ ->
            Squeue.create eng ~cpu ~capacity:1000 ~name:"RequestQueue" ());
      decision_q = Squeue.create eng ~cpu ~capacity:4096 ~name:"DecisionQueue" ();
      send_qs = Array.init p.n (fun _ -> Squeue.create eng ~cpu ~capacity:100_000 ~name:"SendQueue" ());
      rcv_mbs = Array.init p.n (fun _ -> Mailbox.create eng ());
      cio_mbs = Array.init p.client_io_threads (fun _ -> Mailbox.create eng ());
      disk =
        (if p.sync_policy = Params.Sync_none then None
         else Some (Sdisk.create eng ~fsync_latency:p.fsync_latency));
      ss_q =
        (if p.sync_policy = Params.Sync_group then
           Some (Squeue.create eng ~cpu ~capacity:8192 ~name:"LogQueue" ())
         else None);
      threads = [] }
  in
  let nodes = Array.init p.n mk_node in
  let leader = nodes.(0) in
  (* ---------------- fault injection state (chaos only) ---------------- *)
  let net = Sfault.make_net ~seed:p.chaos_seed ~n:p.n p.faults in
  let up = Array.make p.n true in
  let crash_time = Array.make p.n 0. in
  let awaiting_recovery = Array.make p.n false in
  let recovery_times = ref [] in
  let rtx_tbls : (Paxos.rtx_key, Types.node_id list * Msg.t) Hashtbl.t array =
    Array.init p.n (fun _ -> Hashtbl.create 64)
  in
  let fds = Array.init p.n (fun id -> Failure_detector.create cfg ~me:id ~now_ns:0L) in
  let leader_hint = ref 0 in
  let views_seen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  (* Membership-change bookkeeping: epochs adopted anywhere, and the
     total count of adoptions across nodes (both deterministic). *)
  let epochs_seen : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let reconfigs_applied = ref 0 in
  let vc_t0 = Array.make p.n None in
  let client_retries = ref 0 in
  let awaiting_seq = Array.make (max 1 p.n_clients) 0 in
  let last_commit = ref 0. and max_gap = ref 0. in
  (* Per-node at-most-once frontier + executed-request log — the
     simulator's reply cache: the frontier suppresses re-execution of a
     retried request, the log is the cross-node linearizability check. *)
  let exec_frontier : (int, int) Hashtbl.t array =
    Array.init p.n (fun _ -> Hashtbl.create 1024)
  in
  let exec_logs : (int * int) list array = Array.make p.n [] in
  let timeline =
    Array.make
      (if chaos then 1 + int_of_float (ceil (p.duration /. p.chaos_bucket))
       else 0)
      0
  in
  let ns_now () = ns_of (Engine.now eng) in
  (* Wire-level delivery with chaos applied at the NIC boundary.
     Callback-safe: [Nic.send] and [Mailbox.push] never suspend, so this
     can run from [schedule_at] callbacks (retransmission, restart). *)
  let chaos_deliver src_node dst msg size =
    transmit eng ~chaos:true net up ~src:src_node.id ~dst ~src_nic:src_node.nic
      ~dst_nic:nodes.(dst).nic ~size (fun () ->
        Mailbox.push nodes.(dst).rcv_mbs.(src_node.id) (src_node.id, msg))
  in
  let rec rtx_fire id key () =
    match Hashtbl.find_opt rtx_tbls.(id) key with
    | Some (dests, msg) when up.(id) ->
      List.iter
        (fun d -> if d <> id then chaos_deliver nodes.(id) d msg (approx_size msg))
        dests;
      Engine.schedule_at eng
        (Engine.now eng +. p.chaos_rtx_interval)
        (rtx_fire id key)
    | _ -> ()
  in
  let arm_rtx id key dests msg =
    Hashtbl.replace rtx_tbls.(id) key (dests, msg);
    Engine.schedule_at eng
      (Engine.now eng +. p.chaos_rtx_interval)
      (rtx_fire id key)
  in
  (* At-most-once admission, in decide order, per node. *)
  let chaos_admit node (id : Client_msg.request_id) =
    let tbl = exec_frontier.(node.id) in
    match Hashtbl.find_opt tbl id.client_id with
    | Some s when id.seq <= s -> false
    | _ ->
      Hashtbl.replace tbl id.client_id id.seq;
      exec_logs.(node.id) <- (id.client_id, id.seq) :: exec_logs.(node.id);
      true
  in
  let chaos_executed node (id : Client_msg.request_id) =
    match Hashtbl.find_opt exec_frontier.(node.id) id.client_id with
    | Some s -> id.seq <= s
    | None -> false
  in
  let do_crash id =
    if up.(id) then begin
      up.(id) <- false;
      crash_time.(id) <- Engine.now eng;
      (* Volatile state lost: pending retransmissions die with the
         process. Queued events drain harmlessly — the recovered engine
         treats them as stale. Open speculation frames die too (the
         staged replies were never client-visible). *)
      Hashtbl.reset rtx_tbls.(id);
      spec_abort_all id
    end
  in
  let do_restart id =
    if not up.(id) then begin
      let old_log = Paxos.log nodes.(id).engine in
      let entries = Log.entries_from old_log (Log.low_mark old_log) in
      let decided, accepted =
        List.partition (fun (e : Msg.log_entry) -> e.e_decided) entries
      in
      let conv =
        List.map (fun (e : Msg.log_entry) -> (e.e_iid, e.e_view, e.e_value))
      in
      let engine, replays =
        Paxos.recover cfg ~me:id
          ~view:(Paxos.view nodes.(id).engine)
          ~accepted:(conv accepted) ~decided:(conv decided) ~snapshot:None
      in
      nodes.(id).engine <- engine;
      up.(id) <- true;
      awaiting_recovery.(id) <- true;
      fds.(id) <- Failure_detector.create cfg ~me:id ~now_ns:(ns_now ());
      Failure_detector.set_view fds.(id) ~view:(Paxos.view engine)
        ~now_ns:(ns_now ());
      (* Lease state is volatile: a crashed holder comes back with
         nothing — it must re-earn a quorum of grants before serving
         reads again, and its apply recency restarts stale. *)
      if p.lease then
        leases.(id) <- Lease.create cfg ~me:id ~view:(Paxos.view engine);
      (* Service state is rebuilt from the recovered log (the WAL
         stand-in): frontier and executed-prefix log come back from the
         replayed Executes; no replies are re-sent. *)
      Hashtbl.reset exec_frontier.(id);
      exec_logs.(id) <- [];
      List.iter
        (fun action ->
           match action with
           | Paxos.Execute { value; _ } -> (
               match value with
               | Value.Noop | Value.Reconfig _ -> ()
               | Value.Batch b ->
                 List.iter
                   (fun (r : Client_msg.request) ->
                      ignore (chaos_admit nodes.(id) r.id))
                   b.requests)
           | Paxos.Send { dest; msg } ->
             List.iter
               (fun d ->
                  if d <> id then
                    chaos_deliver nodes.(id) d msg (approx_size msg))
               dest
           | Paxos.Schedule_rtx { key; dest; msg } -> arm_rtx id key dest msg
           | Paxos.Cancel_rtx key -> Hashtbl.remove rtx_tbls.(id) key
           | Paxos.View_changed { view; i_am_leader; _ } ->
             if view > 0 then Hashtbl.replace views_seen view ();
             if i_am_leader then leader_hint := id
           | Paxos.Membership_changed { membership; _ } ->
             (* Replayed adoption: re-arm the fresh failure detector's
                peer set (counters are not re-bumped — the adoption was
                already counted before the crash). *)
             Failure_detector.set_membership fds.(id) membership
               ~now_ns:(ns_now ())
           | Paxos.Install_snapshot _ -> ())
        replays
    end
  in
  if chaos then
    arm_faults eng net p ~crash:do_crash ~restart:do_restart
      ~disk:(fun id -> nodes.(id).disk);
  (* Autotune mirror: the leader's batcher policies read their BSZ limit
     through this cell and the controller process below retunes it (and
     the engine window) every [tune_epoch] of simulated time. With
     [auto_tune = false] the cell does not exist, no controller process
     is spawned and every policy takes the static-config path — the
     event stream is byte-for-byte the old one (golden-pinned). *)
  let tuned_bsz = if p.auto_tune then Some (Atomic.make p.bsz) else None in
  let batcher_policies =
    (* Only the leader batches client traffic, so only its policies are
       tuned; distinct [src] spaces keep batch ids unique (as before). *)
    Array.init p.n (fun id ->
        Array.init p.n_batchers (fun bidx ->
            Batcher.create
              ?tuned_bsz:(if id = leader.id then tuned_bsz else None)
              cfg ~src:(id + (bidx * 64))))
  in
  (* Signals for the controller, accumulated off the measurement path:
     completed requests (throughput) and leader propose→decide latency.
     Only touched under [auto_tune]. *)
  let tune_completed = ref 0 in
  let tune_lat_sum = ref 0. and tune_lat_n = ref 0 in
  (* Two idle nodes for the Table II "other <-> other" probe. *)
  let idle_a = Nic.create eng ~pkt_rate:p.profile.pkt_rate
      ~bandwidth:p.profile.bandwidth ~name:"idle-a" () in
  let idle_b = Nic.create eng ~pkt_rate:p.profile.pkt_rate
      ~bandwidth:p.profile.bandwidth ~name:"idle-b" () in
  (* Register a simulated thread for profiling; under tracing, also give
     it a track and bridge Sstats state changes to merged spans
     (cat = the owning module, name = the state). Returns the track so
     protocol/batcher can add instant events on their own timeline. *)
  let register node st =
    node.threads <- node.threads @ [ st ];
    let trk = trace_thread tracer ~pid:node.id st in
    Option.iter (fun trk -> track_of := (st, trk) :: !track_of) trk;
    trk
  in
  (* Lock-contention hook: an instant on the blocked thread's track. *)
  let on_contended lock st =
    match List.assq_opt st !track_of with
    | Some trk -> Msmr_obs.Trace.instant trk ~cat:"lock" (Slock.name lock)
    | None -> ()
  in
  if Option.is_some tracer then
    Array.iter
      (fun node ->
         Squeue.set_on_contended node.dispatcher_q on_contended;
         Squeue.set_on_contended node.proposal_q on_contended)
      nodes;
  (* Queue-depth counter series live on one dedicated leader track.
     ProposalQueue is low-volume (capacity 20), so it is sampled per
     operation; the high-volume queues are sampled by the 1 ms sampler
     below to bound trace size. *)
  let queues_trk =
    Option.map
      (fun t ->
         let trk =
           Msmr_obs.Trace.track t ~pid:leader.id ~pname:"replica-0"
             ~name:"queues" ()
         in
         Squeue.set_on_length leader.proposal_q (fun len ->
             Msmr_obs.Trace.counter trk ~name:"ProposalQueue"
               (float_of_int len));
         trk)
      tracer
  in
  (* ---------------- measurement state ---------------- *)
  let measuring = ref false in
  let ce_record d_t =
    if !measuring then begin
      ce_sum := !ce_sum +. (Engine.now eng -. d_t);
      incr ce_n
    end
  in
  let completed = ref 0 in
  let lat_sum = ref 0. and lat_n = ref 0 in
  let inst_sum = ref 0. and inst_n = ref 0 in
  let batch_reqs = ref 0 and batch_bytes = ref 0 and batches = ref 0 in
  let window_gauge = Sstats.Gauge.create eng in
  let rtt_leader = ref [] and rtt_follow = ref [] and rtt_idle = ref [] in
  (* ---------------- clients ---------------- *)
  let payload = Bytes.make (max 0 (p.request_size - 16)) 'x' in
  let clients =
    Array.init p.n_clients (fun i ->
        { cid = i; next_seq = 0; sent_at = 0. })
  in
  let client_resume : (unit -> unit) option array =
    Array.make p.n_clients None
  in
  (* Reply delivery: ServiceManager -> owning ClientIO thread. *)
  let cio_of_client cid = cid mod p.client_io_threads in
  (* Promote a finished speculation whose decide has arrived: the staged
     effect becomes the ordered execution and the staged reply ships —
     no re-execution, the commit->execute gap collapses to the confirm
     hop. *)
  let spec_resolve node (id : Client_msg.request_id) d_t =
    note_exec node id;
    if (not chaos && node == leader) || (chaos && Paxos.is_leader node.engine)
    then begin
      Mailbox.push node.cio_mbs.(cio_of_client id.client_id) (Rep id);
      ce_record d_t
    end;
    sf_seq.(node.id).(id.client_id) <- -1;
    sf_done.(node.id).(id.client_id) <- false;
    sf_wait.(node.id).(id.client_id) <- -1.;
    incr spec_confirmed
  in
  (* Client process: closed loop; the request is one packet into the
     leader's RX (client machines themselves are never the bottleneck:
     1800 clients spread over 6 machines). *)
  let client_proc cl () =
    (* Stagger start so the initial burst is not one giant event spike. *)
    Engine.delay eng (1e-6 *. float_of_int cl.cid);
    let do_write () =
      let req =
        { Client_msg.id = { client_id = cl.cid; seq = cl.next_seq }; payload }
      in
      cl.sent_at <- Engine.now eng;
      Engine.suspend eng (fun resume ->
          client_resume.(cl.cid) <- Some resume;
          Engine.schedule_at eng (Engine.now eng +. 30e-6) (fun () ->
              Nic.rx_inject leader.nic ~size:p.request_size (fun () ->
                  Mailbox.push leader.cio_mbs.(cio_of_client cl.cid) (Req req))));
      if reads_on then note_acked eng rb cl.cid cl.next_seq
    in
    (* Fast-path read: linearizable reads aim at the leaseholder;
       bounded-staleness reads spread over the whole cluster (each NIC
       serves its share — this is where read throughput stops being
       capped by one leader). A rejection (lease not yet held, follower
       not provably fresh) retries after a deterministic pause, falling
       back to the leaseholder, who can always serve. *)
    let do_read () =
      let id = { Client_msg.client_id = cl.cid; seq = cl.next_seq } in
      cl.sent_at <- Engine.now eng;
      rb.read_floor.(cl.cid) <- rb.last_write_acked.(cl.cid);
      let rec attempt tgt =
        rb.read_result.(cl.cid) <- -1;
        Engine.suspend eng (fun resume ->
            client_resume.(cl.cid) <- Some resume;
            Engine.schedule_at eng (Engine.now eng +. 30e-6) (fun () ->
                Nic.rx_inject tgt.nic ~size:p.request_size (fun () ->
                    Mailbox.push tgt.cio_mbs.(cio_of_client cl.cid) (Rd id))));
        if rb.read_result.(cl.cid) < 0 then begin
          if !measuring then incr read_rejects;
          Engine.delay eng (p.lease_duration /. 8.);
          attempt leader
        end
      in
      (* Home replica for this client's stale reads. [cid / n] decorrelates
         it from the cio-thread choice ([cid mod client_io_threads]): with
         [cid mod n] and n = client_io_threads every read landing on node k
         would come from clients homed on cio thread k, convoying one
         ClientIO thread per node. *)
      attempt
        (if p.stale_reads then nodes.(cl.cid / p.n mod p.n) else leader);
      check_read p rb cl.cid
    in
    let rec loop () =
      cl.next_seq <- cl.next_seq + 1;
      let is_read = is_read_op p cl.next_seq in
      if is_read then do_read () else do_write ();
      if p.auto_tune then incr tune_completed;
      if !measuring then begin
        incr completed;
        if is_read then incr reads_completed;
        lat_sum := !lat_sum +. (Engine.now eng -. cl.sent_at);
        incr lat_n
      end;
      loop ()
    in
    loop ()
  in
  (* Chaos client: open-loop on failures — retransmits the same request
     (to whichever node it currently believes leads) after
     [chaos_client_timeout] without a reply; the at-most-once frontier on
     the replicas makes the retries idempotent. Completions also feed the
     throughput-trajectory timeline. *)
  let client_proc_chaos cl () =
    Engine.delay eng (1e-6 *. float_of_int cl.cid);
    let do_write_chaos () =
      let req =
        { Client_msg.id = { client_id = cl.cid; seq = cl.next_seq }; payload }
      in
      cl.sent_at <- Engine.now eng;
      let rec attempt () =
        let target = nodes.(!leader_hint) in
        match
          Engine.suspend_timeout eng ~timeout:p.chaos_client_timeout
            (fun resume ->
               client_resume.(cl.cid) <- Some resume;
               Engine.schedule_at eng (Engine.now eng +. 30e-6) (fun () ->
                   if up.(target.id) then
                     Nic.rx_inject target.nic ~size:p.request_size (fun () ->
                         if up.(target.id) then
                           Mailbox.push target.cio_mbs.(cio_of_client cl.cid)
                             (Req req))))
        with
        | Engine.Value () -> ()
        | Engine.Timed_out ->
          client_resume.(cl.cid) <- None;
          incr client_retries;
          attempt ()
      in
      attempt ();
      if reads_on then note_acked eng rb cl.cid cl.next_seq
    in
    (* Chaos reads steer by the leader hint like chaos writes, so after
       a fault they keep arriving at the OLD leaseholder until a view
       change updates the hint — exactly the window where an expired
       lease must refuse rather than serve stale state. *)
    let do_read_chaos () =
      let id = { Client_msg.client_id = cl.cid; seq = cl.next_seq } in
      cl.sent_at <- Engine.now eng;
      rb.read_floor.(cl.cid) <- rb.last_write_acked.(cl.cid);
      let rec attempt n_try =
        let target =
          if p.stale_reads && n_try = 0 then nodes.(cl.cid / p.n mod p.n)
          else nodes.(!leader_hint)
        in
        rb.read_result.(cl.cid) <- -1;
        match
          Engine.suspend_timeout eng ~timeout:p.chaos_client_timeout
            (fun resume ->
               client_resume.(cl.cid) <- Some resume;
               Engine.schedule_at eng (Engine.now eng +. 30e-6) (fun () ->
                   if up.(target.id) then
                     Nic.rx_inject target.nic ~size:p.request_size (fun () ->
                         if up.(target.id) then
                           Mailbox.push target.cio_mbs.(cio_of_client cl.cid)
                             (Rd id))))
        with
        | Engine.Value () ->
          if rb.read_result.(cl.cid) < 0 then begin
            if !measuring then incr read_rejects;
            Engine.delay eng (p.lease_duration /. 8.);
            attempt (n_try + 1)
          end
        | Engine.Timed_out ->
          client_resume.(cl.cid) <- None;
          incr client_retries;
          attempt (n_try + 1)
      in
      attempt 0;
      check_read p rb cl.cid
    in
    let rec loop () =
      cl.next_seq <- cl.next_seq + 1;
      awaiting_seq.(cl.cid) <- cl.next_seq;
      let is_read = is_read_op p cl.next_seq in
      if is_read then do_read_chaos () else do_write_chaos ();
      if p.auto_tune then incr tune_completed;
      if !measuring then begin
        incr completed;
        if is_read then incr reads_completed;
        lat_sum := !lat_sum +. (Engine.now eng -. cl.sent_at);
        incr lat_n;
        let b =
          int_of_float ((Engine.now eng -. p.warmup) /. p.chaos_bucket)
        in
        if b >= 0 && b < Array.length timeline then
          timeline.(b) <- timeline.(b) + 1
      end;
      loop ()
    in
    loop ()
  in
  (* ---------------- ClientIO threads (leader only) ---------------- *)
  let cio_proc node idx () =
    let st =
      Sstats.make_thread eng ~name:(Printf.sprintf "ClientIO-%d" idx)
    in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    let mb = node.cio_mbs.(idx) in
    (* On overload the blocking put stalls this thread on the full
       RequestQueue - the paper's back-pressure: the ClientIO thread
       stops reading new requests. Replies queue up behind it in the
       (unbounded, push-only) mailbox, so no cycle can deadlock, and the
       queue's FIFO waiters keep the threads fair. *)
    let handle = function
      | Rep id ->
        Cpu.work node.cpu st (cost c.client_write);
        (* One packet per reply: distinct client connections do not
           share segments. *)
        Nic.send_to_wire node.nic ~size:p.reply_size (fun () ->
            (* Under chaos a stale reply (earlier seq, re-sent after a
               view change) must not complete the current request. *)
            if (not chaos) || awaiting_seq.(id.client_id) = id.seq then
              match client_resume.(id.client_id) with
              | Some resume ->
                client_resume.(id.client_id) <- None;
                resume ()
              | None -> ())
      | Req req ->
        Cpu.work node.cpu st (cost c.client_read);
        if chaos && chaos_executed node req.id then
          (* Reply-cache hit: a retried request that already executed
             (e.g. decided during a no-leader window) is answered from
             the at-most-once frontier, never re-proposed. *)
          Mailbox.push node.cio_mbs.(idx) (Rep req.id)
        else begin
          (* Early scheduling: the leader pre-dispatches the fresh
             request onto the DecisionQueue at ingress. FIFO puts the
             [Dspec] strictly ahead of its own decide, so the SM always
             opens the frame before the confirm can arrive. *)
          if spec_on
             && ((not chaos && node == leader)
                 || (chaos && Paxos.is_leader node.engine)) then
            Squeue.put node.decision_q st (Dspec { s_req = req });
          Squeue.put node.request_qs.(req.id.client_id mod p.n_batchers) st req
        end
      | Rd id ->
        (* Read fast path: straight onto the DecisionQueue — FIFO
           behind every decided-but-unapplied instance, never through
           Batcher/Protocol (and never through the reply-cache
           frontier: reads are idempotent and own no dedup slot). *)
        Cpu.work node.cpu st (cost c.client_read);
        Squeue.put node.decision_q st (Dread { r_id = id })
    in
    let rec loop () =
      let ev = Mailbox.take mb st in
      if (not chaos) || up.(node.id) then handle ev;
      loop ()
    in
    loop ()
  in
  (* ---------------- Batcher ---------------- *)
  let batcher_proc node bidx () =
    let st =
      Sstats.make_thread eng
        ~name:
          (if p.n_batchers = 1 then "Batcher"
           else Printf.sprintf "Batcher-%d" bidx)
    in
    let trk = register node st in
    batcher_loop eng p node.cpu st trk batcher_policies.(node.id).(bidx)
      node.request_qs.(bidx) ~on_seal:(fun batch ->
        if !measuring then begin
          incr batches;
          batch_reqs := !batch_reqs + Batch.request_count batch;
          batch_bytes := !batch_bytes + Batch.size_bytes batch
        end;
        Squeue.put node.proposal_q st batch;
        Squeue.put node.dispatcher_q st Poke)
  in
  (* ---------------- Protocol ---------------- *)
  let inst_t0 : (int, float) Hashtbl.t = Hashtbl.create 1024 in
  let protocol_proc node () =
    let st = Sstats.make_thread eng ~name:"Protocol" in
    let trk = register node st in
    (* Durable modes. Sync_serial is the naive shape: the Protocol
       process itself blocks on one device fsync per persist — exactly
       what the live pipeline removes. Sync_group hands the records to
       the StableStorage process. Persists run before the actions, as
       the live persist_actions does. *)
    let persist n =
      if n > 0 then
        match p.sync_policy, node.disk, node.ss_q with
        | Params.Sync_serial, Some d, _ ->
          Sdisk.append d n;
          Sstats.set st Sstats.Blocked;
          Engine.suspend eng (fun resume -> Sdisk.fsync d resume);
          Sstats.set st Sstats.Busy
        | Params.Sync_group, _, Some q -> Squeue.put q st (Sl_log n)
        | _ -> ()
    in
    (* Under Sync_group, gated messages ride the log queue behind the
       records they depend on; everything else bypasses. *)
    let send d msg =
      match node.ss_q with
      | Some q when durability_gated msg -> Squeue.put q st (Sl_rel (d, msg))
      | _ -> Squeue.put node.send_qs.(d) st msg
    in
    let apply actions =
      persist (records_for_actions actions);
      List.iter
        (fun action ->
           match action with
           | Paxos.Send { dest; msg } ->
             List.iter
               (fun d -> if d <> node.id then send d msg)
               dest
           | Paxos.Execute { iid; value } ->
             (match trk with
              | Some trk ->
                Msmr_obs.Trace.instant trk ~cat:"ReplicationCore"
                  ~args:[ ("iid", Msmr_obs.Json.Int iid) ] "decide"
              | None -> ());
             if chaos then begin
               if awaiting_recovery.(node.id) then begin
                 awaiting_recovery.(node.id) <- false;
                 recovery_times :=
                   (Engine.now eng -. crash_time.(node.id)) :: !recovery_times
               end;
               (* Commit gaps on whichever node currently leads measure
                  the no-committing-leader window. *)
               if Paxos.is_leader node.engine then begin
                 let nw = Engine.now eng in
                 if !measuring then begin
                   let gap = nw -. !last_commit in
                   if gap > !max_gap then max_gap := gap
                 end;
                 last_commit := nw
               end
             end;
             Squeue.put node.decision_q st
               (Dec { d_iid = iid; d_value = value; d_t = Engine.now eng })
           | Paxos.Schedule_rtx { key; dest; msg } ->
             (match key with
              | Paxos.Rtx_accept (_, iid) when node == leader ->
                Hashtbl.replace inst_t0 iid (Engine.now eng)
              | _ -> ());
             if chaos then arm_rtx node.id key dest msg
           | Paxos.Cancel_rtx key ->
             if chaos then Hashtbl.remove rtx_tbls.(node.id) key;
             (match key with
              | Paxos.Rtx_accept (_, iid) when node == leader ->
                (match Hashtbl.find_opt inst_t0 iid with
                 | Some t0 ->
                   if p.auto_tune then begin
                     tune_lat_sum := !tune_lat_sum +. (Engine.now eng -. t0);
                     incr tune_lat_n
                   end;
                   if !measuring then begin
                     inst_sum := !inst_sum +. (Engine.now eng -. t0);
                     incr inst_n
                   end
                 | None -> ());
                Hashtbl.remove inst_t0 iid
              | _ -> ())
           | Paxos.View_changed { view; i_am_leader; _ } ->
             (* Conservative holder-side invalidation: whatever lease the
                old view's leader held dies with the view; grantor-side
                promises survive inside {!Lease}. Speculation frames die
                with the view too — the predicted order was this
                leader's append order, now void. *)
             if p.lease then Lease.set_view leases.(node.id) ~view;
             spec_abort_all node.id;
             if chaos then begin
               if view > 0 then Hashtbl.replace views_seen view ();
               if i_am_leader then leader_hint := node.id;
               Failure_detector.set_view fds.(node.id) ~view
                 ~now_ns:(ns_now ());
               (match vc_t0.(node.id), trk with
                | Some t0, Some trk ->
                  let ts = ns_of t0 in
                  Msmr_obs.Trace.complete trk ~cat:"ReplicationCore"
                    ~name:"ViewChange" ~ts_ns:ts
                    ~dur_ns:(Int64.sub (ns_of (Engine.now eng)) ts) ()
                | _ -> ());
               vc_t0.(node.id) <- None
             end
           | Paxos.Membership_changed { membership; _ } ->
             (* Epoch adoption: re-arm the failure detector's peer set
                and (conservatively) void any lease state — the old
                epoch's quorum no longer exists. Only reachable under
                chaos (the reconfig driver rides that gate). *)
             incr reconfigs_applied;
             Hashtbl.replace epochs_seen membership.Membership.epoch ();
             Failure_detector.set_membership fds.(node.id) membership
               ~now_ns:(ns_now ());
             if p.lease then
               leases.(node.id) <-
                 Lease.create cfg ~me:node.id
                   ~view:(Paxos.view node.engine)
           | Paxos.Install_snapshot _ -> ())
        actions
    in
    apply (Paxos.bootstrap node.engine);
    let rec loop () =
      (match Squeue.take node.dispatcher_q st with
       | PMsg (from, msg) ->
         if (not chaos) || up.(node.id) then begin
           Cpu.work node.cpu st (cost c.protocol_per_event);
           match msg with
           | Msg.Lease_ping { view; t0_ns } when p.lease ->
             (* Grantor side: promise (or refuse) on the local drifted
                clock; the grant rides the ordinary send queue so it
                shares TCP segments — and chaos drops — with protocol
                traffic. *)
             (match
                Lease.on_ping leases.(node.id) ~from ~view ~t0_ns
                  ~now_ns:(clock_ns node.id)
              with
              | Some grant -> Squeue.put node.send_qs.(from) st grant
              | None -> ())
           | Msg.Lease_grant { view; t0_ns } when p.lease ->
             ignore
               (Lease.on_grant leases.(node.id) ~from ~view ~t0_ns
                  ~quorum:lease_quorum)
           | Msg.Prepare { view; _ }
             when p.lease
                  && Lease.promise_blocks leases.(node.id)
                       ~candidate:(Types.leader_of_view ~n:p.n view)
                       ~now_ns:(clock_ns node.id) ->
             (* Promise-side enforcement: refuse to help elect a
                different leader while the promise stands (safe — Phase 1
                is retransmitted past the promise's expiry). *)
             ()
           | _ ->
             (* Promise/acceptance hits the log before the engine replies
                (mirrors the live handle's persist-before-receive). *)
             persist (records_for_msg msg);
             apply (Paxos.receive node.engine ~from msg)
         end
       | Poke -> ()
       | Suspect_ev ->
         if chaos && up.(node.id) then begin
           if
             p.lease
             && Lease.promise_blocks leases.(node.id) ~candidate:node.id
                  ~now_ns:(clock_ns node.id)
           then ()  (* deferred while promised to the leader; FD re-fires *)
           else begin
             (if vc_t0.(node.id) = None then
                vc_t0.(node.id) <- Some (Engine.now eng));
             apply (Paxos.suspect_leader node.engine)
           end
         end
       | Tick ->
         if chaos && up.(node.id) then
           apply (Paxos.tick_catchup node.engine)
       | Reconfig_cmd m ->
         if chaos && up.(node.id) then begin
           Cpu.work node.cpu st (cost c.protocol_per_event);
           apply (Paxos.propose_reconfig node.engine m)
         end);
      let rec feed () =
        if Paxos.can_propose node.engine then
          match Squeue.try_take node.proposal_q st with
          | Some batch ->
            Cpu.work node.cpu st (cost c.protocol_per_event);
            apply (Paxos.propose node.engine batch);
            feed ()
          | None -> ()
      in
      if (not chaos) || up.(node.id) then feed ();
      loop ()
    in
    loop ()
  in
  (* ---------------- ReplicaIO ---------------- *)
  let sender_proc node peer () =
    let st =
      Sstats.make_thread eng ~name:(Printf.sprintf "ReplicaIOSnd-%d" peer)
    in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    sender_loop p node.cpu st node.send_qs.(peer) ~msg_of:Fun.id
      ~ship:(fun size msgs ->
          if chaos && up.(node.id) then
            Failure_detector.note_send fds.(node.id) ~dest:peer
              ~now_ns:(ns_now ());
          transmit eng ~chaos net up ~src:node.id ~dst:peer ~src_nic:node.nic
            ~dst_nic:nodes.(peer).nic ~size (fun () ->
              List.iter
                (fun m ->
                   Mailbox.push nodes.(peer).rcv_mbs.(node.id) (node.id, m))
                msgs))
  in
  let receiver_proc node peer () =
    let st =
      Sstats.make_thread eng ~name:(Printf.sprintf "ReplicaIORcv-%d" peer)
    in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    let mb = node.rcv_mbs.(peer) in
    let rec loop () =
      let from, msg = Mailbox.take mb st in
      if chaos then
        Failure_detector.note_recv fds.(node.id) ~from ~now_ns:(ns_now ());
      Cpu.work node.cpu st
        (cost
           (c.io_deser_per_msg
            +. (c.io_deser_per_byte *. float_of_int (approx_size msg))));
      Squeue.put node.dispatcher_q st (PMsg (from, msg));
      loop ()
    in
    loop ()
  in
  (* ---------------- StableStorage (Sync_group) ---------------- *)
  let ss_proc node () =
    let st = Sstats.make_thread eng ~name:"StableStorage" in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    stable_storage_loop eng st (Option.get node.ss_q) (Option.get node.disk)
      ~ev:Fun.id ~release:(fun _ dest msg ->
        Squeue.put node.send_qs.(dest) st msg)
  in
  (* ---------------- FailureDetector (chaos only) ---------------- *)
  (* Mirrors the live FailureDetector thread: polls the pure policy on a
     half-interval cadence; leader verdicts become Heartbeats through the
     ordinary send queues (so they share segments and chaos like any
     protocol message), follower verdicts become Suspect_ev dispatcher
     events. A Tick per poll drives [Paxos.tick_catchup]. *)
  let fd_proc node () =
    let st = Sstats.make_thread eng ~name:"FailureDetector" in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    let rec loop () =
      Engine.delay eng (p.chaos_fd_interval /. 2.);
      if up.(node.id) then begin
        List.iter
          (fun verdict ->
             match verdict with
             | Failure_detector.Heartbeat_to peers ->
               if Paxos.is_leader node.engine then begin
                 let msg =
                   Msg.Heartbeat
                     { view = Paxos.view node.engine;
                       first_undecided =
                         Log.first_undecided (Paxos.log node.engine) }
                 in
                 List.iter
                   (fun pr -> Squeue.put node.send_qs.(pr) st msg)
                   peers
               end
             | Failure_detector.Suspect _ ->
               Squeue.put node.dispatcher_q st Suspect_ev)
          (Failure_detector.poll fds.(node.id) ~now_ns:(ns_now ()));
        Squeue.put node.dispatcher_q st Tick
      end;
      loop ()
    in
    loop ()
  in
  (* ---------------- ServiceManager (Replica thread) ---------------- *)
  (* Deterministic "hot client" classification for [p.skew]: a Knuth
     multiplicative hash spreads client ids evenly, so the hot set is
     ≈ skew * n_clients without any RNG. Hot clients model a zipfian
     conflict-key distribution: under fixed routing they all convoy on
     executor 0. *)
  let is_hot cid =
    p.skew > 0.
    && (cid * 2654435761) land 1023 < int_of_float (p.skew *. 1024.)
  in
  (* Serve one fast-path read from local executed state. The read sat in
     the DecisionQueue FIFO behind every instance decided before it
     arrived — by the time the SM pops it, the apply frontier covers the
     lease-covered commit point, which is the linearizable wait. The
     leaseholder always answers (its lease proves no newer write can
     have been decided elsewhere); a follower answers only a
     bounded-staleness read it can prove fresh by apply recency. Anyone
     else replies a reject (same packet cost) and the client retries
     toward the leaseholder. *)
  let sm_read node st (r_id : Client_msg.request_id) =
    Cpu.work node.cpu st (cost c.exec_per_req);
    if (not chaos) || up.(node.id) then begin
      (* A read must never observe an unconfirmed optimistic effect on
         its key: roll the reader's open frame back first (the register
         service keys by client id, so only the reader's own frame could
         be visible). *)
      spec_abort_frame node.id r_id.client_id;
      let serve =
        Lease.held leases.(node.id) ~now_ns:(clock_ns node.id)
        || (p.stale_reads
            && node_clock node.id -. last_apply_c.(node.id)
               <= p.staleness_bound)
      in
      if serve then begin
        rb.read_result.(r_id.client_id) <- ver.(node.id).(r_id.client_id);
        rb.read_serve_t.(r_id.client_id) <- Engine.now eng
      end;
      Mailbox.push node.cio_mbs.(cio_of_client r_id.client_id) (Rep r_id)
    end
  in
  (* exec_threads = 1: the paper's serial ServiceManager, unchanged. *)
  let sm_proc node () =
    let st = Sstats.make_thread eng ~name:"Replica" in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    let rec loop () =
      (match Squeue.take node.decision_q st with
       | Dread { r_id } -> sm_read node st r_id
       | Dspec _ -> ()   (* serial SM never speculates ([spec_on] false) *)
       | Dec d -> (
           match d.d_value with
           | Value.Noop | Value.Reconfig _ -> ()
           | Value.Batch batch ->
             List.iter
               (fun (req : Client_msg.request) ->
                  if not chaos then begin
                    Cpu.work node.cpu st (cost c.exec_per_req);
                    note_exec node req.id;
                    if node == leader then
                      Mailbox.push node.cio_mbs.(cio_of_client req.id.client_id)
                        (Rep req.id)
                  end
                  else if up.(node.id) && chaos_admit node req.id then begin
                    Cpu.work node.cpu st (cost c.exec_per_req);
                    note_exec node req.id;
                    if Paxos.is_leader node.engine then
                      Mailbox.push node.cio_mbs.(cio_of_client req.id.client_id)
                        (Rep req.id)
                  end)
               batch.requests));
      loop ()
    in
    loop ()
  in
  (* exec_threads > 1: the Replica thread becomes a scheduler over a pool
     of Executor threads — the mirror of the live runtime's static,
     hash-sharded [Exec_pool]. Requests route by client id — the stand-in
     for the conflict key, so one client's commands keep their decide
     order on one executor — and a deterministic fraction
     [conflict_ratio] of requests is classified Global: each quiesces the
     pool and executes on the scheduler. *)
  let sm_parallel node () =
    let st = Sstats.make_thread eng ~name:"Replica" in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    let exec_mbs : exec_item Mailbox.t array =
      Array.init p.exec_threads (fun _ -> Mailbox.create eng ())
    in
    let pending = ref 0 in
    let barrier_waiter : (unit -> unit) option ref = ref None in
    let executor_proc idx () =
      let est =
        Sstats.make_thread eng ~name:(Printf.sprintf "Executor-%d" idx)
      in
      let (_ : Msmr_obs.Trace.track option) = register node est in
      let rec loop () =
        (match Mailbox.take exec_mbs.(idx) est with
         | E_exec (req, d_t) ->
           Cpu.work node.cpu est (cost c.exec_per_req);
           note_exec node req.id;
           if (not chaos && node == leader)
              || (chaos && Paxos.is_leader node.engine) then begin
             Mailbox.push node.cio_mbs.(cio_of_client req.id.client_id)
               (Rep req.id);
             ce_record d_t
           end
         | E_spec req ->
           (* Optimistic execution against predicted (ingress) order.
              The frame may have been aborted while this item sat in the
              mailbox — then the work is wasted but nothing is written. *)
           let cid = req.id.client_id in
           Cpu.work node.cpu est (cost c.exec_per_req);
           if sf_seq.(node.id).(cid) = req.id.seq
              && not sf_done.(node.id).(cid) then begin
             sf_undo.(node.id).(cid) <- ver.(node.id).(cid);
             ver.(node.id).(cid) <- req.id.seq;
             sf_done.(node.id).(cid) <- true;
             let w = sf_wait.(node.id).(cid) in
             if w >= 0. then spec_resolve node req.id w
           end);
        decr pending;
        (if !pending = 0 then
           match !barrier_waiter with
           | Some resume ->
             barrier_waiter := None;
             resume ()
           | None -> ());
        loop ()
      in
      loop ()
    in
    for i = 0 to p.exec_threads - 1 do
      Engine.spawn eng
        ~name:(Printf.sprintf "exec-%d-%d" node.id i)
        (executor_proc i)
    done;
    let quiesce () =
      if !pending > 0 then begin
        Sstats.set st Sstats.Waiting;
        Engine.suspend eng (fun resume -> barrier_waiter := Some resume);
        Sstats.set st Sstats.Busy
      end
    in
    let total = ref 0 in
    let classify_global () =
      incr total;
      floor_crosses p.conflict_ratio !total
    in
    let route cid = if is_hot cid then 0 else cid mod p.exec_threads in
    let dispatch d_t (req : Client_msg.request) =
      if chaos && not (up.(node.id) && chaos_admit node req.id) then ()
      else if classify_global () then begin
        (* Undecided speculation rolls back before the barrier; frames
           whose decide already arrived are committed work in flight and
           the quiescence wait lets them promote first. *)
        spec_abort_undecided node.id;
        quiesce ();
        Cpu.work node.cpu st (cost c.exec_per_req);
        note_exec node req.id;
        if (not chaos && node == leader)
           || (chaos && Paxos.is_leader node.engine) then begin
          Mailbox.push node.cio_mbs.(cio_of_client req.id.client_id)
            (Rep req.id);
          ce_record d_t
        end
      end
      else begin
        let cid = req.id.client_id in
        if spec_on && sf_seq.(node.id).(cid) = req.id.seq
           && not (force_mispredict ()) then begin
          (* Prediction held: confirm. Either the optimistic execution
             already finished (promote now) or it is still in flight
             (leave the decide instant; the executor promotes). *)
          Cpu.work node.cpu st (cost c.dispatch_per_req);
          if sf_done.(node.id).(cid) then spec_resolve node req.id d_t
          else sf_wait.(node.id).(cid) <- d_t
        end
        else begin
          spec_abort_frame node.id cid;
          Cpu.work node.cpu st (cost c.dispatch_per_req);
          incr pending;
          (* Fixed routing: hot clients convoy on executor 0, as they
             do on the live hash-sharded pool. skew = 0 leaves this
             byte-for-byte the original path. The ordered re-execution
             shares the speculation's route, so mailbox FIFO keeps
             rollback before re-execution. *)
          Mailbox.push exec_mbs.(route cid) (E_exec (req, d_t))
        end
      end
    in
    let spec_admit (req : Client_msg.request) =
      let cid = req.id.client_id in
      if ((not chaos) || (up.(node.id) && not (chaos_executed node req.id)))
         && sf_seq.(node.id).(cid) < 0 then begin
        incr spec_dispatched;
        sf_seq.(node.id).(cid) <- req.id.seq;
        Cpu.work node.cpu st (cost c.dispatch_per_req);
        incr pending;
        Mailbox.push exec_mbs.(route cid) (E_spec req)
      end
    in
    let rec loop () =
      (match Squeue.take node.decision_q st with
       | Dread { r_id } -> sm_read node st r_id
       | Dspec { s_req } -> spec_admit s_req
       | Dec d -> (
           match d.d_value with
           | Value.Noop | Value.Reconfig _ -> ()
           | Value.Batch batch -> List.iter (dispatch d.d_t) batch.requests));
      loop ()
    in
    loop ()
  in
  (* Lease renewal driver: polls [ping_due] on the local drifted clock
     and, while this node leads, broadcasts the renewal ping down the
     ordinary send queues (so pings share TCP segments — and chaos
     drops — with protocol traffic; grants come back through the
     Protocol thread). One process per node: leadership moves under
     chaos. *)
  let lease_proc node () =
    let st = Sstats.make_thread eng ~name:"Lease" in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    let rec loop () =
      let leading =
        if chaos then up.(node.id) && Paxos.is_leader node.engine
        else node == leader
      in
      if leading && Lease.ping_due leases.(node.id) ~now_ns:(clock_ns node.id)
      then begin
        Cpu.work node.cpu st (cost c.protocol_per_event);
        let ping = Lease.make_ping leases.(node.id) ~now_ns:(clock_ns node.id) in
        for d = 0 to p.n - 1 do
          if d <> node.id then Squeue.put node.send_qs.(d) st ping
        done
      end;
      Engine.delay eng (p.lease_duration /. 12.);
      loop ()
    in
    loop ()
  in
  (* ---------------- reconfig driver ---------------- *)
  (* The sim's stand-in for an operator driving Cluster.join /
     decommission: walk the voter set to each scheduled target one
     consensus-ordered step at a time — add missing nodes as learners,
     promote a learner once its log has caught up to within a few
     windows of the leader's, then remove surplus members. Every step
     is submitted to whichever node currently claims leadership (so the
     driver survives crashes and view changes mid-reconfig) and simply
     retried on a fixed cadence until the target epoch is adopted. *)
  let reconfig_driver () =
    let st = Sstats.make_thread eng ~name:"ReconfigDriver" in
    let caught_up q ld_engine =
      Log.first_undecided (Paxos.log ld_engine)
      - Log.first_undecided (Paxos.log nodes.(q).engine)
      <= 4 * cfg.Config.window
    in
    List.iter
      (fun (at, target) ->
        let target = List.sort_uniq compare target in
        Sstats.set st Sstats.Waiting;
        let wait = at -. Engine.now eng in
        if wait > 0. then Engine.delay eng wait;
        let rec step () =
          Sstats.set st Sstats.Busy;
          let ld = !leader_hint in
          let engine = nodes.(ld).engine in
          let m = Paxos.membership engine in
          if m.Membership.voters = target && m.Membership.learners = []
          then ()
          else begin
            (if
               up.(ld)
               && Paxos.is_leader engine
               && not (Paxos.reconfig_in_flight engine)
             then
               let next =
                 match
                   List.filter
                     (fun q -> not (Membership.is_member m q))
                     target
                 with
                 | q :: _ -> Membership.add_learner m q
                 | [] -> (
                   match List.filter (Membership.is_learner m) target with
                   | q :: _ ->
                     if caught_up q engine then Membership.promote m q
                     else None
                   | [] -> (
                     match
                       List.filter
                         (fun q -> not (List.mem q target))
                         (Membership.members m)
                     with
                     | q :: _ -> Membership.remove m q
                     | [] -> None))
               in
               match next with
               | Some m' ->
                 Squeue.put nodes.(ld).dispatcher_q st (Reconfig_cmd m')
               | None -> ());
            Sstats.set st Sstats.Waiting;
            Engine.delay eng 0.02;
            step ()
          end
        in
        step ())
      p.reconfig_at;
    Sstats.set st Sstats.Other
  in
  if p.reconfig_at <> [] then
    Engine.spawn eng ~name:"reconfig-driver" reconfig_driver;
  (* ---------------- spawn everything ---------------- *)
  Array.iter
    (fun node ->
       (* Under chaos every node runs ClientIO: after a view change the
          new leader has to serve redirected clients. With the read fast
          path on, every node runs it too — bounded-staleness reads land
          on followers. *)
       if node == leader || chaos || reads_on then begin
         for i = 0 to p.client_io_threads - 1 do
           Engine.spawn eng ~name:(Printf.sprintf "cio-%d" i) (cio_proc node i)
         done
       end;
       for b = 0 to p.n_batchers - 1 do
         Engine.spawn eng ~name:"batcher" (batcher_proc node b)
       done;
       Engine.spawn eng ~name:"protocol" (protocol_proc node);
       if node.ss_q <> None then Engine.spawn eng ~name:"ss" (ss_proc node);
       if chaos then Engine.spawn eng ~name:"fd" (fd_proc node);
       if p.lease then Engine.spawn eng ~name:"lease" (lease_proc node);
       Engine.spawn eng ~name:"sm"
         (if p.exec_threads > 1 then sm_parallel node else sm_proc node);
       for peer = 0 to p.n - 1 do
         if peer <> node.id then begin
           Engine.spawn eng ~name:"snd" (sender_proc node peer);
           Engine.spawn eng ~name:"rcv" (receiver_proc node peer)
         end
       done)
    nodes;
  Array.iter
    (fun cl ->
       Engine.spawn eng ~name:"client"
         (if chaos then client_proc_chaos cl else client_proc cl))
    clients;
  (* Autotune controller process (leader, simulated time). The policy is
     the same pure Autotune module the live Protocol thread ticks; the
     epoch cadence is the engine clock, so the tuned trajectory is a
     deterministic function of the parameters. *)
  let final_bsz = ref p.bsz and final_wnd = ref p.wnd in
  if p.auto_tune then
    Engine.spawn eng ~name:"autotune" (fun () ->
        let at =
          Autotune.create
            ~params:Autotune.{ default_params with
                               latency_bound_s = 0.05;
                               queue_high = 512 }
            ~bsz0:p.bsz ~wnd0:p.wnd ()
        in
        let last_completed = ref !tune_completed in
        let last_seals =
          ref Batcher.{ seals_size = 0; seals_delay = 0; sealed_bytes = 0;
                        limit_bytes = 0 }
        in
        let rec loop () =
          Engine.delay eng p.tune_epoch;
          let seals =
            Array.fold_left
              (fun acc b ->
                 let s = Batcher.seal_stats b in
                 Batcher.{
                   seals_size = acc.seals_size + s.seals_size;
                   seals_delay = acc.seals_delay + s.seals_delay;
                   sealed_bytes = acc.sealed_bytes + s.sealed_bytes;
                   limit_bytes = acc.limit_bytes + s.limit_bytes })
              Batcher.{ seals_size = 0; seals_delay = 0; sealed_bytes = 0;
                        limit_bytes = 0 }
              batcher_policies.(leader.id)
          in
          let prev = !last_seals in
          let d_bytes = seals.Batcher.sealed_bytes - prev.Batcher.sealed_bytes in
          let d_limit = seals.Batcher.limit_bytes - prev.Batcher.limit_bytes in
          let now_completed = !tune_completed in
          let signals =
            Autotune.{
              s_window_in_use = Paxos.window_in_use leader.engine;
              s_proposal_queue = Squeue.length leader.proposal_q;
              s_log_queue =
                (match leader.ss_q with
                 | Some q -> Squeue.length q
                 | None -> 0);
              s_seals_size =
                seals.Batcher.seals_size - prev.Batcher.seals_size;
              s_seals_delay =
                seals.Batcher.seals_delay - prev.Batcher.seals_delay;
              s_batch_fill =
                (if d_limit = 0 then 0.
                 else float_of_int d_bytes /. float_of_int d_limit);
              s_throughput =
                float_of_int (now_completed - !last_completed)
                /. p.tune_epoch;
              s_commit_latency_s =
                (if !tune_lat_n = 0 then 0.
                 else !tune_lat_sum /. float_of_int !tune_lat_n);
            }
          in
          Autotune.tick at signals;
          (match tuned_bsz with
           | Some a -> Atomic.set a (Autotune.bsz at)
           | None -> ());
          Paxos.set_window leader.engine (Autotune.wnd at);
          final_bsz := Autotune.bsz at;
          final_wnd := Autotune.wnd at;
          last_completed := now_completed;
          last_seals := seals;
          tune_lat_sum := 0.;
          tune_lat_n := 0;
          loop ()
        in
        loop ());
  (* Sampler: window occupancy each millisecond; RTT probes each 20 ms. *)
  Engine.spawn eng ~name:"sampler" (fun () ->
      let rec loop () =
        Engine.delay eng 0.001;
        Sstats.Gauge.update window_gauge
          (float_of_int (Paxos.window_in_use leader.engine));
        (match queues_trk with
         | Some trk ->
           let open Msmr_obs.Trace in
           counter trk ~name:"window"
             (float_of_int (Paxos.window_in_use leader.engine));
           counter trk ~name:"DispatcherQueue"
             (float_of_int (Squeue.length leader.dispatcher_q));
           counter trk ~name:"DecisionQueue"
             (float_of_int (Squeue.length leader.decision_q));
           counter trk ~name:"RequestQueue"
             (Array.fold_left
                (fun acc q -> acc +. float_of_int (Squeue.length q))
                0. leader.request_qs)
         | None -> ());
        loop ()
      in
      loop ());
  Engine.spawn eng ~name:"prober" (fun () ->
      let rec loop () =
        Engine.delay eng 0.02;
        if !measuring && p.n >= 2 then begin
          Nic.rtt_probe leader.nic ~dst:nodes.(1).nic (fun rtt ->
              rtt_leader := rtt :: !rtt_leader);
          if p.n >= 3 then
            Nic.rtt_probe nodes.(1).nic ~dst:nodes.(2).nic (fun rtt ->
                rtt_follow := rtt :: !rtt_follow);
          Nic.rtt_probe idle_a ~dst:idle_b (fun rtt ->
              rtt_idle := rtt :: !rtt_idle)
        end;
        loop ()
      in
      loop ());
  (* ---------------- run: warm-up, reset, measure ---------------- *)
  Engine.run eng ~until:p.warmup;
  measuring := true;
  completed := 0;
  lat_sum := 0.; lat_n := 0;
  inst_sum := 0.; inst_n := 0;
  batch_reqs := 0; batch_bytes := 0; batches := 0;
  reads_completed := 0; read_rejects := 0;
  if chaos then begin last_commit := p.warmup; max_gap := 0. end;
  Sstats.Gauge.reset window_gauge;
  Array.iter
    (fun node ->
       List.iter Sstats.reset node.threads;
       Cpu.reset_consumed node.cpu;
       Nic.reset_counters node.nic;
       Array.iter Squeue.reset_stats node.request_qs;
       Squeue.reset_stats node.proposal_q;
       Squeue.reset_stats node.dispatcher_q;
       Squeue.reset_stats node.decision_q;
       (match node.ss_q with Some q -> Squeue.reset_stats q | None -> ());
       (match node.disk with Some d -> Sdisk.reset_counters d | None -> ()))
    nodes;
  (* Drop warm-up events: [Sstats.reset] already restarted the open
     spans, so the retained trace covers exactly the measured window and
     its span totals match the Sstats integrals. *)
  (match tracer with Some t -> Msmr_obs.Trace.clear t | None -> ());
  Engine.run eng ~until:(p.warmup +. p.duration);
  (* Close the still-open state spans so they appear in the export. *)
  Array.iter
    (fun node -> List.iter Sstats.flush_tracer node.threads)
    nodes;
  (* ---------------- collect ---------------- *)
  let dur = p.duration in
  let mean = function [] -> 0. | l ->
    List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
  in
  let throughput = float_of_int !completed /. dur in
  let client_latency =
    if !lat_n = 0 then 0. else !lat_sum /. float_of_int !lat_n
  in
  let wal_syncs, wal_group_avg =
    publish_headline eng
      ~labels:
        [ ("mode", "sim");
          ("n", string_of_int p.n);
          ("cores", string_of_int p.cores);
          ("wnd", string_of_int p.wnd);
          ("bsz", string_of_int p.bsz) ]
      ~throughput ~client_latency
      ~leader_cpu_pct:(100. *. Cpu.consumed leader.cpu /. dur)
      leader.disk
  in
  let safety_ok, (executed_min, executed_max) =
    if not chaos then (true, (0, 0))
    else
      ( logs_consistent exec_logs,
        executed_range (Array.map List.length exec_logs) )
  in
  { throughput;
    client_latency;
    instance_latency = (if !inst_n = 0 then 0. else !inst_sum /. float_of_int !inst_n);
    avg_batch_reqs =
      (if !batches = 0 then 0. else float_of_int !batch_reqs /. float_of_int !batches);
    avg_batch_bytes =
      (if !batches = 0 then 0. else float_of_int !batch_bytes /. float_of_int !batches);
    avg_window = Sstats.Gauge.avg window_gauge;
    avg_request_queue =
      Array.fold_left (fun acc q -> acc +. Squeue.avg_length q) 0.
        leader.request_qs;
    avg_proposal_queue = Squeue.avg_length leader.proposal_q;
    avg_dispatcher_queue = Squeue.avg_length leader.dispatcher_q;
    replicas = Array.map (fun nd -> report ~dur nd.cpu nd.threads) nodes;
    leader_tx_pps = float_of_int (Nic.tx_packets leader.nic) /. dur;
    leader_rx_pps = float_of_int (Nic.rx_packets leader.nic) /. dur;
    leader_tx_mbps = float_of_int (Nic.tx_bytes leader.nic) /. dur /. 1e6;
    leader_rx_mbps = float_of_int (Nic.rx_bytes leader.nic) /. dur /. 1e6;
    rtt_leader = mean !rtt_leader;
    rtt_followers = mean !rtt_follow;
    rtt_idle = mean !rtt_idle;
    wal_syncs;
    wal_group_avg;
    tuned_bsz_final = !final_bsz;
    tuned_wnd_final = !final_wnd;
    view_changes = Hashtbl.length views_seen;
    unavailable_s =
      (if chaos then
         Float.max !max_gap (p.warmup +. p.duration -. !last_commit)
       else 0.);
    recovery_s = List.fold_left Float.max 0. !recovery_times;
    completed = !completed;
    (* Reads are checked always (chaos or not): a fast-path answer that
       travels back in time w.r.t. the client's own acked writes is a
       safety violation wherever it happens. *)
    safety_ok = safety_ok && rb.stale = 0;
    executed_min;
    executed_max;
    client_retries = !client_retries;
    reads_completed = !reads_completed;
    read_rejects = !read_rejects;
    stale_answers = rb.stale;
    timeline =
      Array.mapi
        (fun i n -> (p.warmup +. (float_of_int i *. p.chaos_bucket), n))
        timeline;
    events = Engine.events_processed eng;
    group_throughputs = [| throughput |];
    globals_executed = 0;
    spec_dispatched = !spec_dispatched;
    spec_confirmed = !spec_confirmed;
    spec_aborted = !spec_aborted;
    commit_exec_latency =
      (if !ce_n = 0 then 0. else !ce_sum /. float_of_int !ce_n);
    reconfigs_applied = !reconfigs_applied;
    final_epoch =
      Array.fold_left
        (fun acc nd -> max acc (Paxos.membership nd.engine).Membership.epoch)
        0 nodes;
    trace = tracer }

(* ================================================================== *)
(* Multi-group Paxos (compartmentalized ordering path).                *)
(*                                                                     *)
(* [p.groups] independent consensus groups run side by side: each has  *)
(* its own Paxos engine, log, Batcher and decide stream on every node, *)
(* all sharing the node's physical CPU and NIC. Group [g] bootstraps   *)
(* with node [g mod n] as its leader (its Paxos starts in view [g]),   *)
(* so leadership -- and the leader's NIC load, the single-group        *)
(* throughput ceiling -- spreads round-robin over the cluster. The     *)
(* ordering pipeline is itself compartmentalized: ClientIO feeds a     *)
(* Router process that hash-partitions requests to groups; each        *)
(* group's Protocol hands multi-destination fan-outs to a ProxyLeader  *)
(* process that serialises them into the shared per-peer send queues   *)
(* (ack counting stays inside the pure engine). Cross-group Global     *)
(* commands, classified deterministically on group 0's decide stream,  *)
(* barrier every group on the executing node through a quiescence      *)
(* gate before running serially.                                       *)
(*                                                                     *)
(* The [groups <= 1] path never reaches this function: [run] keeps     *)
(* the single-group model byte-for-byte identical (golden-pinned).     *)
(* Chaos support is crash-only; [auto_tune] and [n_batchers] > 1 are   *)
(* single-group features and are ignored here.                         *)
(* ================================================================== *)

type gnode = {
  mg_id : int;
  mg_cpu : Cpu.t;
  mg_nic : Nic.t;
  mg_engines : Paxos.t array;                       (* per group; swapped on restart *)
  mg_disp_qs : disp_ev Squeue.t array;              (* per group *)
  mg_prop_qs : Batch.t Squeue.t array;              (* per group *)
  mg_req_qs : Client_msg.request Squeue.t array;    (* per group (one Batcher each) *)
  mg_dec_qs : decision_ev Squeue.t array;           (* per group *)
  mg_proxy_qs : (Types.node_id list * Msg.t) Squeue.t array;  (* per group *)
  mg_router_q : route_ev Squeue.t;
  mg_send_qs : (int * Msg.t) Squeue.t array;        (* per peer; (gid, msg) *)
  mg_rcv_mbs : (int * Types.node_id * Msg.t) Mailbox.t array; (* per peer *)
  mg_cio_mbs : cio_ev Mailbox.t array;
  mg_disk : Sdisk.t option;
  mg_ss_q : (int * ss_ev) Squeue.t option;
  mutable mg_threads : Sstats.thread list;
}

let run_multi ?(trace = false) (p : Params.t) =
  let g_count = p.groups in
  List.iter
    (function
      | Sfault.Crash _ -> ()
      | _ ->
        invalid_arg "Jpaxos_model.run: groups > 1 supports Crash faults only")
    p.faults;
  let eng = Engine.create () in
  let tracer = make_tracer ~trace eng in
  let c = p.costs in
  let cost = cost p in
  let chaos = p.faults <> [] in
  let cfg = config_of p ~chaos in
  let reads_on = reads_on p in
  (* Speculation gate, same golden-pin discipline. The per-group SMs are
     serial, so the multi-group mirror speculates inline on each group's
     SM thread: the optimistic execution runs off the Router's early
     [Dspec] (during the consensus window), and the decide then promotes
     the staged effect for the cost of a confirm. *)
  let spec_on = p.speculate in
  (* The Router's partition function: in the live runtime the conflict
     key hashes to a group; the simulated workload's stand-in for the
     key is the client id (one client = one key), so the hash is a mod. *)
  let group_of_client cid = cid mod g_count in
  let home_of_group g = Config.initial_leader_of_group cfg ~gid:g in
  let node_clock, clock_ns = node_clocks eng p in
  (* One lease per (node, group): each group's leader holds its own
     lease, so read capacity scales with groups x replicas. Group [g]
     bootstraps in view [g]. *)
  let leases_mg =
    Array.init p.n (fun i ->
        Array.init g_count (fun g -> Lease.create cfg ~me:i ~view:g))
  in
  let lease_quorum = (p.n / 2) + 1 in
  (* Executed registers (client ids are globally unique, so one array
     per node) and per-(node, group) apply recency. *)
  let n_cl = max 1 p.n_clients in
  let ver = Array.init p.n (fun _ -> Array.make n_cl 0) in
  let last_apply_mg = Array.init p.n (fun _ -> Array.make g_count 0.) in
  let note_exec_mg node g (id : Client_msg.request_id) =
    if reads_on || spec_on then begin
      ver.(node.mg_id).(id.client_id) <- id.seq;
      last_apply_mg.(node.mg_id).(g) <- node_clock node.mg_id
    end
  in
  (* Speculation frames (see run_single): at most one per closed-loop
     client. No confirm-wait slot here — the optimistic execution is
     inline on the SM thread, so a frame is always complete ([sf_done])
     by the time its decide can look at it. *)
  let sf_seq = Array.init p.n (fun _ -> Array.make n_cl (-1)) in
  let sf_done = Array.init p.n (fun _ -> Array.make n_cl false) in
  let sf_undo = Array.init p.n (fun _ -> Array.make n_cl 0) in
  let spec_dispatched = ref 0 in
  let spec_confirmed = ref 0 in
  let spec_aborted = ref 0 in
  let ce_sum = ref 0. and ce_n = ref 0 in
  let spec_abort_frame nid cid =
    if spec_on && sf_seq.(nid).(cid) >= 0 then begin
      if sf_done.(nid).(cid) then ver.(nid).(cid) <- sf_undo.(nid).(cid);
      sf_seq.(nid).(cid) <- -1;
      sf_done.(nid).(cid) <- false;
      incr spec_aborted
    end
  in
  let spec_abort_group nid g =
    if spec_on then
      for cid = 0 to n_cl - 1 do
        if group_of_client cid = g then spec_abort_frame nid cid
      done
  in
  let spec_abort_all nid =
    if spec_on then
      for cid = 0 to n_cl - 1 do
        spec_abort_frame nid cid
      done
  in
  let force_mispredict = mispredictor p in
  let rb = read_book n_cl in
  let reads_completed = ref 0 in
  let read_rejects = ref 0 in
  (* ---------------- nodes ---------------- *)
  let mk_node id =
    let cpu =
      Cpu.create eng ~cores:p.cores ~switch_cost:(cost c.switch_cost) ()
    in
    let nic =
      Nic.create eng ~pkt_rate:(pkt_rate p) ~bandwidth:p.profile.bandwidth
        ~name:(Printf.sprintf "nic-%d" id) ()
    in
    { mg_id = id; mg_cpu = cpu; mg_nic = nic;
      mg_engines =
        Array.init g_count (fun g -> Paxos.create ~view0:g cfg ~me:id);
      mg_disp_qs =
        Array.init g_count (fun _ ->
            Squeue.create eng ~cpu ~capacity:100_000 ~name:"DispatcherQueue" ());
      mg_prop_qs =
        Array.init g_count (fun _ ->
            Squeue.create eng ~cpu ~capacity:20 ~name:"ProposalQueue" ());
      mg_req_qs =
        Array.init g_count (fun _ ->
            Squeue.create eng ~cpu ~capacity:1000 ~name:"RequestQueue" ());
      mg_dec_qs =
        Array.init g_count (fun _ ->
            Squeue.create eng ~cpu ~capacity:4096 ~name:"DecisionQueue" ());
      mg_proxy_qs =
        Array.init g_count (fun _ ->
            Squeue.create eng ~cpu ~capacity:4096 ~name:"ProxyQueue" ());
      mg_router_q = Squeue.create eng ~cpu ~capacity:2000 ~name:"RouterQueue" ();
      mg_send_qs =
        Array.init p.n (fun _ ->
            Squeue.create eng ~cpu ~capacity:100_000 ~name:"SendQueue" ());
      mg_rcv_mbs = Array.init p.n (fun _ -> Mailbox.create eng ());
      mg_cio_mbs =
        Array.init p.client_io_threads (fun _ -> Mailbox.create eng ());
      mg_disk =
        (if p.sync_policy = Params.Sync_none then None
         else Some (Sdisk.create eng ~fsync_latency:p.fsync_latency));
      mg_ss_q =
        (if p.sync_policy = Params.Sync_group then
           Some (Squeue.create eng ~cpu ~capacity:8192 ~name:"LogQueue" ())
         else None);
      mg_threads = [] }
  in
  let nodes = Array.init p.n mk_node in
  let register node st =
    node.mg_threads <- node.mg_threads @ [ st ];
    trace_thread tracer ~pid:node.mg_id st
  in
  (* ---------------- fault injection state (crash-only chaos) -------- *)
  let net = Sfault.make_net ~seed:p.chaos_seed ~n:p.n p.faults in
  let up = Array.make p.n true in
  let crash_time = Array.make p.n 0. in
  let awaiting_recovery = Array.make p.n false in
  let recovery_times = ref [] in
  let rtx_tbls :
    (Paxos.rtx_key, Types.node_id list * Msg.t) Hashtbl.t array array =
    Array.init p.n (fun _ -> Array.init g_count (fun _ -> Hashtbl.create 64))
  in
  let leader_hint_g = Array.init g_count home_of_group in
  let views_seen_g : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let client_retries = ref 0 in
  let awaiting_seq = Array.make (max 1 p.n_clients) 0 in
  let last_commit_g = Array.make g_count 0. in
  let max_gap_g = Array.make g_count 0. in
  (* At-most-once frontier per node (client ids are globally unique) and
     per-(node, group) executed-request logs for the per-group
     linearizability check. *)
  let frontier : (int, int) Hashtbl.t array =
    Array.init p.n (fun _ -> Hashtbl.create 1024)
  in
  let exec_logs_mg : (int * int) list array array =
    Array.init p.n (fun _ -> Array.make g_count [])
  in
  let timeline =
    Array.make
      (if chaos then 1 + int_of_float (ceil (p.duration /. p.chaos_bucket))
       else 0)
      0
  in
  let chaos_admit_mg node g (id : Client_msg.request_id) =
    let tbl = frontier.(node.mg_id) in
    match Hashtbl.find_opt tbl id.client_id with
    | Some s when id.seq <= s -> false
    | _ ->
      Hashtbl.replace tbl id.client_id id.seq;
      exec_logs_mg.(node.mg_id).(g) <-
        (id.client_id, id.seq) :: exec_logs_mg.(node.mg_id).(g);
      true
  in
  let chaos_executed_mg node (id : Client_msg.request_id) =
    match Hashtbl.find_opt frontier.(node.mg_id) id.client_id with
    | Some s -> id.seq <= s
    | None -> false
  in
  let chaos_deliver_mg node g dst msg size =
    transmit eng ~chaos:true net up ~src:node.mg_id ~dst ~src_nic:node.mg_nic
      ~dst_nic:nodes.(dst).mg_nic ~size (fun () ->
        Mailbox.push nodes.(dst).mg_rcv_mbs.(node.mg_id) (g, node.mg_id, msg))
  in
  let rec rtx_fire id g key () =
    match Hashtbl.find_opt rtx_tbls.(id).(g) key with
    | Some (dests, msg) when up.(id) ->
      List.iter
        (fun d ->
           if d <> id then chaos_deliver_mg nodes.(id) g d msg (approx_size msg))
        dests;
      Engine.schedule_at eng
        (Engine.now eng +. p.chaos_rtx_interval)
        (rtx_fire id g key)
    | _ -> ()
  in
  let arm_rtx id g key dests msg =
    Hashtbl.replace rtx_tbls.(id).(g) key (dests, msg);
    Engine.schedule_at eng
      (Engine.now eng +. p.chaos_rtx_interval)
      (rtx_fire id g key)
  in
  let do_crash id =
    if up.(id) then begin
      up.(id) <- false;
      crash_time.(id) <- Engine.now eng;
      Array.iter Hashtbl.reset rtx_tbls.(id);
      spec_abort_all id
    end
  in
  let do_restart id =
    if not up.(id) then begin
      up.(id) <- true;
      awaiting_recovery.(id) <- true;
      Hashtbl.reset frontier.(id);
      Array.fill exec_logs_mg.(id) 0 g_count [];
      for g = 0 to g_count - 1 do
        let old = nodes.(id).mg_engines.(g) in
        let old_log = Paxos.log old in
        let entries = Log.entries_from old_log (Log.low_mark old_log) in
        let decided, accepted =
          List.partition (fun (e : Msg.log_entry) -> e.e_decided) entries
        in
        let conv =
          List.map (fun (e : Msg.log_entry) -> (e.e_iid, e.e_view, e.e_value))
        in
        let engine, replays =
          Paxos.recover cfg ~me:id ~view:(Paxos.view old)
            ~accepted:(conv accepted) ~decided:(conv decided) ~snapshot:None
        in
        nodes.(id).mg_engines.(g) <- engine;
        if p.lease then
          leases_mg.(id).(g) <-
            Lease.create cfg ~me:id ~view:(Paxos.view engine);
        List.iter
          (fun action ->
             match action with
             | Paxos.Execute { value; _ } -> (
                 match value with
                 | Value.Noop | Value.Reconfig _ -> ()
                 | Value.Batch b ->
                   List.iter
                     (fun (r : Client_msg.request) ->
                        ignore (chaos_admit_mg nodes.(id) g r.id))
                     b.requests)
             | Paxos.Send { dest; msg } ->
               List.iter
                 (fun d ->
                    if d <> id then
                      chaos_deliver_mg nodes.(id) g d msg (approx_size msg))
                 dest
             | Paxos.Schedule_rtx { key; dest; msg } -> arm_rtx id g key dest msg
             | Paxos.Cancel_rtx key -> Hashtbl.remove rtx_tbls.(id).(g) key
             | Paxos.View_changed { view; i_am_leader; _ } ->
               if view <> g then Hashtbl.replace views_seen_g (g, view) ();
               if i_am_leader then leader_hint_g.(g) <- id
             (* Multi-group chaos is crash-only; membership is static
                here (reconfig is a run_single feature). *)
             | Paxos.Membership_changed _ -> ()
             | Paxos.Install_snapshot _ -> ())
          replays
      done
    end
  in
  if chaos then
    arm_faults eng net p ~crash:do_crash ~restart:do_restart
      ~disk:(fun id -> nodes.(id).mg_disk);
  (* ---------------- measurement state ---------------- *)
  let measuring = ref false in
  let ce_record d_t =
    if !measuring then begin
      ce_sum := !ce_sum +. (Engine.now eng -. d_t);
      incr ce_n
    end
  in
  let completed = ref 0 in
  let completed_g = Array.make g_count 0 in
  let lat_sum = ref 0. and lat_n = ref 0 in
  let inst_sum = ref 0. and inst_n = ref 0 in
  let batch_reqs = ref 0 and batch_bytes = ref 0 and batches = ref 0 in
  let window_gauge = Sstats.Gauge.create eng in
  let router_routed = Array.make p.n 0 in
  let router_reads = Array.make p.n 0 in
  let proxy_fanout = Array.make g_count 0 in
  let globals_executed = ref 0 in
  (* ---------------- clients ---------------- *)
  let payload = Bytes.make (max 0 (p.request_size - 16)) 'x' in
  let clients =
    Array.init p.n_clients (fun i -> { cid = i; next_seq = 0; sent_at = 0. })
  in
  let client_resume : (unit -> unit) option array =
    Array.make p.n_clients None
  in
  let cio_of_client cid = cid mod p.client_io_threads in
  let client_proc_mg cl () =
    let g = group_of_client cl.cid in
    let target = nodes.(home_of_group g) in
    Engine.delay eng (1e-6 *. float_of_int cl.cid);
    let do_write () =
      let req =
        { Client_msg.id = { client_id = cl.cid; seq = cl.next_seq }; payload }
      in
      cl.sent_at <- Engine.now eng;
      Engine.suspend eng (fun resume ->
          client_resume.(cl.cid) <- Some resume;
          Engine.schedule_at eng (Engine.now eng +. 30e-6) (fun () ->
              Nic.rx_inject target.mg_nic ~size:p.request_size (fun () ->
                  Mailbox.push target.mg_cio_mbs.(cio_of_client cl.cid)
                    (Req req))));
      if reads_on then note_acked eng rb cl.cid cl.next_seq
    in
    (* Linearizable reads aim at the group's leaseholder;
       bounded-staleness reads spread over all replicas (the Router on
       any node partitions them home). Rejections fall back to the
       leaseholder after a deterministic pause. *)
    let do_read () =
      let id = { Client_msg.client_id = cl.cid; seq = cl.next_seq } in
      cl.sent_at <- Engine.now eng;
      rb.read_floor.(cl.cid) <- rb.last_write_acked.(cl.cid);
      let rec attempt tgt =
        rb.read_result.(cl.cid) <- -1;
        Engine.suspend eng (fun resume ->
            client_resume.(cl.cid) <- Some resume;
            Engine.schedule_at eng (Engine.now eng +. 30e-6) (fun () ->
                Nic.rx_inject tgt.mg_nic ~size:p.request_size (fun () ->
                    Mailbox.push tgt.mg_cio_mbs.(cio_of_client cl.cid)
                      (Rd id))));
        if rb.read_result.(cl.cid) < 0 then begin
          if !measuring then incr read_rejects;
          Engine.delay eng (p.lease_duration /. 8.);
          attempt target
        end
      in
      (* [cid / n] decorrelates the read home from the cio-thread choice;
         see the single-group client for why [cid mod n] convoys. *)
      attempt (if p.stale_reads then nodes.(cl.cid / p.n mod p.n) else target);
      check_read p rb cl.cid
    in
    let rec loop () =
      cl.next_seq <- cl.next_seq + 1;
      let is_read = is_read_op p cl.next_seq in
      if is_read then do_read () else do_write ();
      if !measuring then begin
        incr completed;
        completed_g.(g) <- completed_g.(g) + 1;
        if is_read then incr reads_completed;
        lat_sum := !lat_sum +. (Engine.now eng -. cl.sent_at);
        incr lat_n
      end;
      loop ()
    in
    loop ()
  in
  let client_proc_chaos_mg cl () =
    let g = group_of_client cl.cid in
    Engine.delay eng (1e-6 *. float_of_int cl.cid);
    let do_write_chaos () =
      let req =
        { Client_msg.id = { client_id = cl.cid; seq = cl.next_seq }; payload }
      in
      cl.sent_at <- Engine.now eng;
      let rec attempt () =
        let target = nodes.(leader_hint_g.(g)) in
        match
          Engine.suspend_timeout eng ~timeout:p.chaos_client_timeout
            (fun resume ->
               client_resume.(cl.cid) <- Some resume;
               Engine.schedule_at eng (Engine.now eng +. 30e-6) (fun () ->
                   if up.(target.mg_id) then
                     Nic.rx_inject target.mg_nic ~size:p.request_size
                       (fun () ->
                          if up.(target.mg_id) then
                            Mailbox.push
                              target.mg_cio_mbs.(cio_of_client cl.cid)
                              (Req req))))
        with
        | Engine.Value () -> ()
        | Engine.Timed_out ->
          client_resume.(cl.cid) <- None;
          incr client_retries;
          attempt ()
      in
      attempt ();
      if reads_on then note_acked eng rb cl.cid cl.next_seq
    in
    let do_read_chaos () =
      let id = { Client_msg.client_id = cl.cid; seq = cl.next_seq } in
      cl.sent_at <- Engine.now eng;
      rb.read_floor.(cl.cid) <- rb.last_write_acked.(cl.cid);
      let rec attempt n_try =
        let target =
          if p.stale_reads && n_try = 0 then nodes.(cl.cid / p.n mod p.n)
          else nodes.(leader_hint_g.(g))
        in
        rb.read_result.(cl.cid) <- -1;
        match
          Engine.suspend_timeout eng ~timeout:p.chaos_client_timeout
            (fun resume ->
               client_resume.(cl.cid) <- Some resume;
               Engine.schedule_at eng (Engine.now eng +. 30e-6) (fun () ->
                   if up.(target.mg_id) then
                     Nic.rx_inject target.mg_nic ~size:p.request_size
                       (fun () ->
                          if up.(target.mg_id) then
                            Mailbox.push
                              target.mg_cio_mbs.(cio_of_client cl.cid)
                              (Rd id))))
        with
        | Engine.Value () ->
          if rb.read_result.(cl.cid) < 0 then begin
            if !measuring then incr read_rejects;
            Engine.delay eng (p.lease_duration /. 8.);
            attempt (n_try + 1)
          end
        | Engine.Timed_out ->
          client_resume.(cl.cid) <- None;
          incr client_retries;
          attempt (n_try + 1)
      in
      attempt 0;
      check_read p rb cl.cid
    in
    let rec loop () =
      cl.next_seq <- cl.next_seq + 1;
      awaiting_seq.(cl.cid) <- cl.next_seq;
      let is_read = is_read_op p cl.next_seq in
      if is_read then do_read_chaos () else do_write_chaos ();
      if !measuring then begin
        incr completed;
        completed_g.(g) <- completed_g.(g) + 1;
        if is_read then incr reads_completed;
        lat_sum := !lat_sum +. (Engine.now eng -. cl.sent_at);
        incr lat_n;
        let b =
          int_of_float ((Engine.now eng -. p.warmup) /. p.chaos_bucket)
        in
        if b >= 0 && b < Array.length timeline then
          timeline.(b) <- timeline.(b) + 1
      end;
      loop ()
    in
    loop ()
  in
  (* ---------------- ClientIO (every node may lead some group) ------- *)
  let cio_proc node idx () =
    let st =
      Sstats.make_thread eng ~name:(Printf.sprintf "ClientIO-%d" idx)
    in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    let mb = node.mg_cio_mbs.(idx) in
    let handle = function
      | Rep id ->
        Cpu.work node.mg_cpu st (cost c.client_write);
        Nic.send_to_wire node.mg_nic ~size:p.reply_size (fun () ->
            if (not chaos) || awaiting_seq.(id.client_id) = id.seq then
              match client_resume.(id.client_id) with
              | Some resume ->
                client_resume.(id.client_id) <- None;
                resume ()
              | None -> ())
      | Req req ->
        Cpu.work node.mg_cpu st (cost c.client_read);
        if chaos && chaos_executed_mg node req.id then
          Mailbox.push node.mg_cio_mbs.(idx) (Rep req.id)
        else Squeue.put node.mg_router_q st (Route_req req)
      | Rd id ->
        Cpu.work node.mg_cpu st (cost c.client_read);
        Squeue.put node.mg_router_q st (Route_read id)
    in
    let rec loop () =
      let ev = Mailbox.take mb st in
      if (not chaos) || up.(node.mg_id) then handle ev;
      loop ()
    in
    loop ()
  in
  (* ---------------- Router ---------------- *)
  let router_proc node () =
    let st = Sstats.make_thread eng ~name:"Router" in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    let rec loop () =
      (match Squeue.take node.mg_router_q st with
       | Route_req req ->
         Cpu.work node.mg_cpu st (cost c.dispatch_per_req);
         let g = group_of_client req.Client_msg.id.client_id in
         router_routed.(node.mg_id) <- router_routed.(node.mg_id) + 1;
         (* Early scheduling: on the group's leader the Router drops a
            [Dspec] onto the group's DecisionQueue before forwarding to
            the Batcher — FIFO keeps it ahead of its own decide. *)
         if spec_on
            && ((not chaos && node.mg_id = home_of_group g)
                || (chaos && Paxos.is_leader node.mg_engines.(g))) then
           Squeue.put node.mg_dec_qs.(g) st (Dspec { s_req = req });
         Squeue.put node.mg_req_qs.(g) st req
       | Route_read id ->
         (* Reads partition by the same conflict key but skip the
            Batcher/Protocol leg entirely: straight to the group's
            DecisionQueue, FIFO behind its decided instances. *)
         Cpu.work node.mg_cpu st (cost c.dispatch_per_req);
         let g = group_of_client id.Client_msg.client_id in
         router_reads.(node.mg_id) <- router_reads.(node.mg_id) + 1;
         Squeue.put node.mg_dec_qs.(g) st (Dread { r_id = id }));
      loop ()
    in
    loop ()
  in
  (* ---------------- Batcher (one per group) ---------------- *)
  let batcher_policies =
    Array.init p.n (fun id ->
        Array.init g_count (fun g -> Batcher.create cfg ~src:(id + (g * 64))))
  in
  let batcher_proc node g () =
    let st =
      Sstats.make_thread eng ~name:(Printf.sprintf "Batcher-g%d" g)
    in
    let trk = register node st in
    batcher_loop eng p node.mg_cpu st trk batcher_policies.(node.mg_id).(g)
      node.mg_req_qs.(g) ~on_seal:(fun batch ->
        if !measuring then begin
          incr batches;
          batch_reqs := !batch_reqs + Batch.request_count batch;
          batch_bytes := !batch_bytes + Batch.size_bytes batch
        end;
        Squeue.put node.mg_prop_qs.(g) st batch;
        Squeue.put node.mg_disp_qs.(g) st Poke)
  in
  (* ---------------- Protocol (one per group) ---------------- *)
  let inst_t0s : (int, float) Hashtbl.t array =
    Array.init g_count (fun _ -> Hashtbl.create 1024)
  in
  let protocol_proc node g () =
    let st = Sstats.make_thread eng ~name:(Printf.sprintf "Protocol-g%d" g) in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    let engine () = node.mg_engines.(g) in
    let persist nrec =
      if nrec > 0 then
        match p.sync_policy, node.mg_disk, node.mg_ss_q with
        | Params.Sync_serial, Some d, _ ->
          Sdisk.append d nrec;
          Sstats.set st Sstats.Blocked;
          Engine.suspend eng (fun resume -> Sdisk.fsync d resume);
          Sstats.set st Sstats.Busy
        | Params.Sync_group, _, Some q -> Squeue.put q st (g, Sl_log nrec)
        | _ -> ()
    in
    let send_direct d msg =
      match node.mg_ss_q with
      | Some q when durability_gated msg -> Squeue.put q st (g, Sl_rel (d, msg))
      | _ -> Squeue.put node.mg_send_qs.(d) st (g, msg)
    in
    let apply actions =
      persist (records_for_actions actions);
      List.iter
        (fun action ->
           match action with
           | Paxos.Send { dest; msg } -> (
               match List.filter (fun d -> d <> node.mg_id) dest with
               | [] -> ()
               | [ d ] -> send_direct d msg
               | dests ->
                 (* Multi-destination fan-out is the ProxyLeader's job:
                    the Protocol stage stays a pure ordering loop. *)
                 Squeue.put node.mg_proxy_qs.(g) st (dests, msg))
           | Paxos.Execute { iid = _; value } ->
             if chaos then begin
               if awaiting_recovery.(node.mg_id) then begin
                 awaiting_recovery.(node.mg_id) <- false;
                 recovery_times :=
                   (Engine.now eng -. crash_time.(node.mg_id))
                   :: !recovery_times
               end;
               if Paxos.is_leader (engine ()) then begin
                 let nw = Engine.now eng in
                 if !measuring then begin
                   let gap = nw -. last_commit_g.(g) in
                   if gap > max_gap_g.(g) then max_gap_g.(g) <- gap
                 end;
                 last_commit_g.(g) <- nw
               end
             end;
             Squeue.put node.mg_dec_qs.(g) st
               (Dec { d_iid = 0; d_value = value; d_t = Engine.now eng })
           | Paxos.Schedule_rtx { key; dest; msg } ->
             (match key with
              | Paxos.Rtx_accept (_, iid) when node.mg_id = home_of_group g ->
                Hashtbl.replace inst_t0s.(g) iid (Engine.now eng)
              | _ -> ());
             if chaos then arm_rtx node.mg_id g key dest msg
           | Paxos.Cancel_rtx key ->
             if chaos then Hashtbl.remove rtx_tbls.(node.mg_id).(g) key;
             (match key with
              | Paxos.Rtx_accept (_, iid) when node.mg_id = home_of_group g ->
                (match Hashtbl.find_opt inst_t0s.(g) iid with
                 | Some t0 ->
                   if !measuring then begin
                     inst_sum := !inst_sum +. (Engine.now eng -. t0);
                     incr inst_n
                   end
                 | None -> ());
                Hashtbl.remove inst_t0s.(g) iid
              | _ -> ())
           | Paxos.View_changed { view; i_am_leader; _ } ->
             if p.lease then Lease.set_view leases_mg.(node.mg_id).(g) ~view;
             (* The group's predicted order died with its leader: roll
                back this group's open frames on this node. *)
             spec_abort_group node.mg_id g;
             if chaos then begin
               if view <> g then Hashtbl.replace views_seen_g (g, view) ();
               if i_am_leader then leader_hint_g.(g) <- node.mg_id
             end
           (* Multi-group membership is static (reconfig is a
              run_single feature). *)
           | Paxos.Membership_changed _ -> ()
           | Paxos.Install_snapshot _ -> ())
        actions
    in
    apply (Paxos.bootstrap (engine ()));
    let rec loop () =
      (match Squeue.take node.mg_disp_qs.(g) st with
       | PMsg (from, msg) ->
         if (not chaos) || up.(node.mg_id) then begin
           Cpu.work node.mg_cpu st (cost c.protocol_per_event);
           match msg with
           | Msg.Lease_ping { view; t0_ns } when p.lease ->
             (match
                Lease.on_ping leases_mg.(node.mg_id).(g) ~from ~view ~t0_ns
                  ~now_ns:(clock_ns node.mg_id)
              with
              | Some grant -> Squeue.put node.mg_send_qs.(from) st (g, grant)
              | None -> ())
           | Msg.Lease_grant { view; t0_ns } when p.lease ->
             ignore
               (Lease.on_grant leases_mg.(node.mg_id).(g) ~from ~view ~t0_ns
                  ~quorum:lease_quorum)
           | Msg.Prepare { view; _ }
             when p.lease
                  && Lease.promise_blocks leases_mg.(node.mg_id).(g)
                       ~candidate:(Types.leader_of_view ~n:p.n view)
                       ~now_ns:(clock_ns node.mg_id) ->
             ()
           | _ ->
             persist (records_for_msg msg);
             apply (Paxos.receive (engine ()) ~from msg)
         end
       | Poke -> ()
       | Suspect_ev ->
         if chaos && up.(node.mg_id) then
           if
             p.lease
             && Lease.promise_blocks leases_mg.(node.mg_id).(g)
                  ~candidate:node.mg_id ~now_ns:(clock_ns node.mg_id)
           then ()  (* deferred while promised; the FD re-fires *)
           else apply (Paxos.suspect_leader (engine ()))
       | Tick ->
         if chaos && up.(node.mg_id) then
           apply (Paxos.tick_catchup (engine ()))
       | Reconfig_cmd _ ->
         (* Multi-group membership is static; the driver never targets
            this model. *)
         ());
      let rec feed () =
        if Paxos.can_propose (engine ()) then
          match Squeue.try_take node.mg_prop_qs.(g) st with
          | Some batch ->
            Cpu.work node.mg_cpu st (cost c.protocol_per_event);
            apply (Paxos.propose (engine ()) batch);
            feed ()
          | None -> ()
      in
      if (not chaos) || up.(node.mg_id) then feed ();
      loop ()
    in
    loop ()
  in
  (* ---------------- ProxyLeader (one per group) ---------------- *)
  let proxy_proc node g () =
    let st =
      Sstats.make_thread eng ~name:(Printf.sprintf "ProxyLeader-g%d" g)
    in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    let rec loop () =
      let dests, msg = Squeue.take node.mg_proxy_qs.(g) st in
      List.iter
        (fun d ->
           (* One queue hop per destination: the fan-out work the
              single-group Protocol thread pays inline. *)
           Cpu.work node.mg_cpu st (cost c.dispatch_per_req);
           if !measuring then proxy_fanout.(g) <- proxy_fanout.(g) + 1;
           match node.mg_ss_q with
           | Some q when durability_gated msg ->
             Squeue.put q st (g, Sl_rel (d, msg))
           | _ -> Squeue.put node.mg_send_qs.(d) st (g, msg))
        dests;
      loop ()
    in
    loop ()
  in
  (* ---------------- ReplicaIO (shared; frames carry the group id) --- *)
  let sender_proc node peer () =
    let st =
      Sstats.make_thread eng ~name:(Printf.sprintf "ReplicaIOSnd-%d" peer)
    in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    sender_loop p node.mg_cpu st node.mg_send_qs.(peer) ~msg_of:snd
      ~ship:(fun size msgs ->
          transmit eng ~chaos net up ~src:node.mg_id ~dst:peer
            ~src_nic:node.mg_nic ~dst_nic:nodes.(peer).mg_nic ~size (fun () ->
              List.iter
                (fun (g, m) ->
                   Mailbox.push nodes.(peer).mg_rcv_mbs.(node.mg_id)
                     (g, node.mg_id, m))
                msgs))
  in
  let receiver_proc node peer () =
    let st =
      Sstats.make_thread eng ~name:(Printf.sprintf "ReplicaIORcv-%d" peer)
    in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    let mb = node.mg_rcv_mbs.(peer) in
    let rec loop () =
      let g, from, msg = Mailbox.take mb st in
      Cpu.work node.mg_cpu st
        (cost
           (c.io_deser_per_msg
            +. (c.io_deser_per_byte *. float_of_int (approx_size msg))));
      Squeue.put node.mg_disp_qs.(g) st (PMsg (from, msg));
      loop ()
    in
    loop ()
  in
  (* ---------------- StableStorage (per node, streams keyed by gid) -- *)
  let ss_proc node () =
    let st = Sstats.make_thread eng ~name:"StableStorage" in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    stable_storage_loop eng st (Option.get node.mg_ss_q) (Option.get node.mg_disk)
      ~ev:snd ~release:(fun (g, _) dest msg ->
          Squeue.put node.mg_send_qs.(dest) st (g, msg))
  in
  (* ---------------- FailureDetector (crash-only chaos) -------------- *)
  (* Deterministic direct-check detector: under a crash-only schedule
     there is no message loss, so leader silence is equivalent to the
     leader being down past the timeout. This keeps the multi-group
     chaos path free of per-group heartbeat traffic. *)
  let fd_proc node g () =
    let st =
      Sstats.make_thread eng ~name:(Printf.sprintf "FailureDetector-g%d" g)
    in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    let rec loop () =
      Engine.delay eng (p.chaos_fd_interval /. 2.);
      if up.(node.mg_id) then begin
        let engine = node.mg_engines.(g) in
        let ldr = Paxos.leader engine in
        if ldr <> node.mg_id && (not up.(ldr))
           && Engine.now eng -. crash_time.(ldr) > p.chaos_fd_timeout then
          Squeue.put node.mg_disp_qs.(g) st Suspect_ev;
        Squeue.put node.mg_disp_qs.(g) st Tick
      end;
      loop ()
    in
    loop ()
  in
  (* ---------------- ServiceManager (per group + cross-group gate) --- *)
  let sm_active = Array.make p.n 0 in
  let sm_barrier = Array.make p.n false in
  let sm_barrier_waiter : (unit -> unit) option array = Array.make p.n None in
  let sm_blocked : (unit -> unit) list ref array =
    Array.init p.n (fun _ -> ref [])
  in
  let globals_total = Array.make p.n 0 in
  (* Classified on group 0's decide stream — the group that sequences
     cross-group commands. *)
  let classify_global id =
    globals_total.(id) <- globals_total.(id) + 1;
    floor_crosses p.conflict_ratio globals_total.(id)
  in
  let sm_proc node g () =
    let st = Sstats.make_thread eng ~name:(Printf.sprintf "Replica-g%d" g) in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    let id = node.mg_id in
    let leads () =
      if chaos then Paxos.is_leader node.mg_engines.(g)
      else id = home_of_group g
    in
    let reply (req_id : Client_msg.request_id) =
      if leads () then
        Mailbox.push node.mg_cio_mbs.(cio_of_client req_id.client_id)
          (Rep req_id)
    in
    let rec wait_barrier () =
      if sm_barrier.(id) then begin
        Sstats.set st Sstats.Waiting;
        Engine.suspend eng (fun resume ->
            sm_blocked.(id) := resume :: !(sm_blocked.(id)));
        Sstats.set st Sstats.Busy;
        wait_barrier ()
      end
    in
    let release_if_quiet () =
      if sm_active.(id) = 0 then
        match sm_barrier_waiter.(id) with
        | Some resume ->
          sm_barrier_waiter.(id) <- None;
          resume ()
        | None -> ()
    in
    let exec_one d_t (req : Client_msg.request) =
      if chaos && not (up.(id) && chaos_admit_mg node g req.id) then ()
      else begin
        wait_barrier ();
        if g = 0 && classify_global id then begin
          (* Cross-group Global command: roll back open speculation
             (all of it — a Global conflicts with everything), close the
             gate, quiesce every group's in-flight execution on this
             node, run serially. *)
          spec_abort_all id;
          sm_barrier.(id) <- true;
          if sm_active.(id) > 0 then begin
            Sstats.set st Sstats.Waiting;
            Engine.suspend eng (fun resume ->
                sm_barrier_waiter.(id) <- Some resume);
            Sstats.set st Sstats.Busy
          end;
          Cpu.work node.mg_cpu st (cost c.exec_per_req);
          note_exec_mg node g req.id;
          incr globals_executed;
          reply req.id;
          if leads () then ce_record d_t;
          sm_barrier.(id) <- false;
          let blocked = !(sm_blocked.(id)) in
          sm_blocked.(id) := [];
          List.iter (fun r -> r ()) blocked
        end
        else begin
          let cid = req.id.client_id in
          if spec_on && sf_seq.(id).(cid) = req.id.seq
             && sf_done.(id).(cid) && not (force_mispredict ()) then begin
            (* Prediction held: the optimistic execution already ran
               during the consensus window — promote it for the cost of
               a confirm. *)
            sm_active.(id) <- sm_active.(id) + 1;
            Cpu.work node.mg_cpu st (cost c.dispatch_per_req);
            note_exec_mg node g req.id;
            sf_seq.(id).(cid) <- -1;
            sf_done.(id).(cid) <- false;
            incr spec_confirmed;
            reply req.id;
            if leads () then ce_record d_t;
            sm_active.(id) <- sm_active.(id) - 1;
            release_if_quiet ()
          end
          else begin
            spec_abort_frame id cid;
            sm_active.(id) <- sm_active.(id) + 1;
            Cpu.work node.mg_cpu st (cost c.exec_per_req);
            note_exec_mg node g req.id;
            reply req.id;
            if leads () then ce_record d_t;
            sm_active.(id) <- sm_active.(id) - 1;
            release_if_quiet ()
          end
        end
      end
    in
    (* Optimistic inline execution off the Router's early dispatch: runs
       while the decide is still in flight. Skipped when a frame is
       already open, the request already executed, or a Global holds the
       barrier. *)
    let spec_exec (req : Client_msg.request) =
      let cid = req.id.client_id in
      if ((not chaos) || (up.(id) && not (chaos_executed_mg node req.id)))
         && sf_seq.(id).(cid) < 0
         && not sm_barrier.(id) then begin
        incr spec_dispatched;
        sf_seq.(id).(cid) <- req.id.seq;
        sm_active.(id) <- sm_active.(id) + 1;
        Cpu.work node.mg_cpu st (cost c.exec_per_req);
        (* The frame can be aborted while the execution pays its CPU
           cost (view change, crash) — then write nothing. *)
        if sf_seq.(id).(cid) = req.id.seq then begin
          sf_undo.(id).(cid) <- ver.(id).(cid);
          ver.(id).(cid) <- req.id.seq;
          sf_done.(id).(cid) <- true
        end;
        sm_active.(id) <- sm_active.(id) - 1;
        release_if_quiet ()
      end
    in
    (* Fast-path read against this group's lease and apply recency
       (same serve rule as run_single's [sm_read]). *)
    let serve_read (r_id : Client_msg.request_id) =
      Cpu.work node.mg_cpu st (cost c.exec_per_req);
      if (not chaos) || up.(id) then begin
        (* Reads never observe unconfirmed optimistic effects: roll the
           reader's own frame back (its register is the only one a read
           of this key could see). *)
        spec_abort_frame id r_id.client_id;
        let serve =
          Lease.held leases_mg.(id).(g) ~now_ns:(clock_ns id)
          || (p.stale_reads
              && node_clock id -. last_apply_mg.(id).(g) <= p.staleness_bound)
        in
        if serve then begin
          rb.read_result.(r_id.client_id) <- ver.(id).(r_id.client_id);
          rb.read_serve_t.(r_id.client_id) <- Engine.now eng
        end;
        Mailbox.push node.mg_cio_mbs.(cio_of_client r_id.client_id)
          (Rep r_id)
      end
    in
    let rec loop () =
      (match Squeue.take node.mg_dec_qs.(g) st with
       | Dread { r_id } -> serve_read r_id
       | Dspec { s_req } -> spec_exec s_req
       | Dec d -> (
           match d.d_value with
           | Value.Noop | Value.Reconfig _ -> ()
           | Value.Batch batch -> List.iter (exec_one d.d_t) batch.requests));
      loop ()
    in
    loop ()
  in
  (* Lease renewal driver, one per (node, group): while this node leads
     the group, broadcast renewal pings down the shared send queues. *)
  let lease_proc node g () =
    let st =
      Sstats.make_thread eng ~name:(Printf.sprintf "Lease-g%d" g)
    in
    let (_ : Msmr_obs.Trace.track option) = register node st in
    let rec loop () =
      let leading =
        if chaos then
          up.(node.mg_id) && Paxos.is_leader node.mg_engines.(g)
        else node.mg_id = home_of_group g
      in
      if leading
         && Lease.ping_due leases_mg.(node.mg_id).(g)
              ~now_ns:(clock_ns node.mg_id)
      then begin
        Cpu.work node.mg_cpu st (cost c.protocol_per_event);
        let ping =
          Lease.make_ping leases_mg.(node.mg_id).(g)
            ~now_ns:(clock_ns node.mg_id)
        in
        for d = 0 to p.n - 1 do
          if d <> node.mg_id then Squeue.put node.mg_send_qs.(d) st (g, ping)
        done
      end;
      Engine.delay eng (p.lease_duration /. 12.);
      loop ()
    in
    loop ()
  in
  (* ---------------- spawn everything ---------------- *)
  Array.iter
    (fun node ->
       for i = 0 to p.client_io_threads - 1 do
         Engine.spawn eng
           ~name:(Printf.sprintf "cio-%d-%d" node.mg_id i)
           (cio_proc node i)
       done;
       Engine.spawn eng ~name:"router" (router_proc node);
       if node.mg_ss_q <> None then Engine.spawn eng ~name:"ss" (ss_proc node);
       for g = 0 to g_count - 1 do
         Engine.spawn eng ~name:"batcher" (batcher_proc node g);
         Engine.spawn eng ~name:"protocol" (protocol_proc node g);
         Engine.spawn eng ~name:"proxy" (proxy_proc node g);
         Engine.spawn eng ~name:"sm" (sm_proc node g);
         if chaos then Engine.spawn eng ~name:"fd" (fd_proc node g);
         if p.lease then Engine.spawn eng ~name:"lease" (lease_proc node g)
       done;
       for peer = 0 to p.n - 1 do
         if peer <> node.mg_id then begin
           Engine.spawn eng ~name:"snd" (sender_proc node peer);
           Engine.spawn eng ~name:"rcv" (receiver_proc node peer)
         end
       done)
    nodes;
  Array.iter
    (fun cl ->
       Engine.spawn eng ~name:"client"
         (if chaos then client_proc_chaos_mg cl else client_proc_mg cl))
    clients;
  (* Sampler: aggregate in-flight instances across the group leaders. *)
  Engine.spawn eng ~name:"sampler" (fun () ->
      let rec loop () =
        Engine.delay eng 0.001;
        let w = ref 0 in
        for g = 0 to g_count - 1 do
          w :=
            !w
            + Paxos.window_in_use nodes.(home_of_group g).mg_engines.(g)
        done;
        Sstats.Gauge.update window_gauge (float_of_int !w);
        loop ()
      in
      loop ());
  (* ---------------- run: warm-up, reset, measure ---------------- *)
  Engine.run eng ~until:p.warmup;
  measuring := true;
  completed := 0;
  Array.fill completed_g 0 g_count 0;
  lat_sum := 0.; lat_n := 0;
  inst_sum := 0.; inst_n := 0;
  batch_reqs := 0; batch_bytes := 0; batches := 0;
  reads_completed := 0; read_rejects := 0;
  Array.fill router_routed 0 p.n 0;
  Array.fill router_reads 0 p.n 0;
  Array.fill proxy_fanout 0 g_count 0;
  globals_executed := 0;
  if chaos then begin
    Array.fill last_commit_g 0 g_count p.warmup;
    Array.fill max_gap_g 0 g_count 0.
  end;
  Sstats.Gauge.reset window_gauge;
  Array.iter
    (fun node ->
       List.iter Sstats.reset node.mg_threads;
       Cpu.reset_consumed node.mg_cpu;
       Nic.reset_counters node.mg_nic;
       Array.iter Squeue.reset_stats node.mg_req_qs;
       Array.iter Squeue.reset_stats node.mg_prop_qs;
       Array.iter Squeue.reset_stats node.mg_disp_qs;
       Array.iter Squeue.reset_stats node.mg_dec_qs;
       Array.iter Squeue.reset_stats node.mg_proxy_qs;
       Squeue.reset_stats node.mg_router_q;
       (match node.mg_ss_q with Some q -> Squeue.reset_stats q | None -> ());
       (match node.mg_disk with Some d -> Sdisk.reset_counters d | None -> ()))
    nodes;
  (match tracer with Some t -> Msmr_obs.Trace.clear t | None -> ());
  Engine.run eng ~until:(p.warmup +. p.duration);
  Array.iter
    (fun node -> List.iter Sstats.flush_tracer node.mg_threads)
    nodes;
  (* ---------------- collect ---------------- *)
  let dur = p.duration in
  let throughput = float_of_int !completed /. dur in
  let client_latency =
    if !lat_n = 0 then 0. else !lat_sum /. float_of_int !lat_n
  in
  let m_labels =
    [ ("mode", "sim");
      ("n", string_of_int p.n);
      ("groups", string_of_int g_count);
      ("cores", string_of_int p.cores);
      ("wnd", string_of_int p.wnd);
      ("bsz", string_of_int p.bsz) ]
  in
  let wal_syncs, wal_group_avg =
    publish_headline eng ~labels:m_labels ~throughput ~client_latency
      ~leader_cpu_pct:(100. *. Cpu.consumed nodes.(0).mg_cpu /. dur)
      nodes.(0).mg_disk
  in
  Array.iteri
    (fun i cnt ->
       Msmr_obs.Metrics.set_gauge
         ~labels:(("replica", string_of_int i) :: m_labels)
         "msmr_replica_router_routed_total" (float_of_int cnt))
    router_routed;
  if reads_on then
    Array.iteri
      (fun i cnt ->
         Msmr_obs.Metrics.set_gauge
           ~labels:(("replica", string_of_int i) :: m_labels)
           "msmr_replica_router_reads_total" (float_of_int cnt))
      router_reads;
  for g = 0 to g_count - 1 do
    let g_labels = ("group", string_of_int g) :: m_labels in
    Msmr_obs.Metrics.set_gauge ~labels:g_labels
      "msmr_replica_proxy_fanout_total"
      (float_of_int proxy_fanout.(g));
    (* Store-level commit watermark of the group's log, per group id —
       the per-group LSN namespace made visible. *)
    Msmr_obs.Metrics.set_gauge ~labels:g_labels
      "msmr_replica_group_commit_lsn"
      (float_of_int
         (Paxos.stats nodes.(home_of_group g).mg_engines.(g)).decided)
  done;
  (* Per-group linearizability: no node executed a request twice, and
     every pair of nodes agrees on the common prefix of each group's
     execution order. *)
  let safety_ok, (executed_min, executed_max) =
    if not chaos then (true, (0, 0))
    else
      ( List.for_all
          (fun g ->
             logs_consistent (Array.map (fun logs -> logs.(g)) exec_logs_mg))
          (List.init g_count Fun.id),
        executed_range
          (Array.map
             (Array.fold_left (fun acc l -> acc + List.length l) 0)
             exec_logs_mg) )
  in
  let sum_over_homes f =
    let acc = ref 0. in
    for g = 0 to g_count - 1 do
      acc := !acc +. f nodes.(home_of_group g) g
    done;
    !acc
  in
  { throughput;
    client_latency;
    instance_latency =
      (if !inst_n = 0 then 0. else !inst_sum /. float_of_int !inst_n);
    avg_batch_reqs =
      (if !batches = 0 then 0.
       else float_of_int !batch_reqs /. float_of_int !batches);
    avg_batch_bytes =
      (if !batches = 0 then 0.
       else float_of_int !batch_bytes /. float_of_int !batches);
    avg_window = Sstats.Gauge.avg window_gauge;
    avg_request_queue =
      sum_over_homes (fun node g -> Squeue.avg_length node.mg_req_qs.(g));
    avg_proposal_queue =
      sum_over_homes (fun node g -> Squeue.avg_length node.mg_prop_qs.(g));
    avg_dispatcher_queue =
      sum_over_homes (fun node g -> Squeue.avg_length node.mg_disp_qs.(g));
    replicas = Array.map (fun nd -> report ~dur nd.mg_cpu nd.mg_threads) nodes;
    leader_tx_pps = float_of_int (Nic.tx_packets nodes.(0).mg_nic) /. dur;
    leader_rx_pps = float_of_int (Nic.rx_packets nodes.(0).mg_nic) /. dur;
    leader_tx_mbps = float_of_int (Nic.tx_bytes nodes.(0).mg_nic) /. dur /. 1e6;
    leader_rx_mbps = float_of_int (Nic.rx_bytes nodes.(0).mg_nic) /. dur /. 1e6;
    rtt_leader = 0.;
    rtt_followers = 0.;
    rtt_idle = 0.;
    wal_syncs;
    wal_group_avg;
    tuned_bsz_final = p.bsz;
    tuned_wnd_final = p.wnd;
    view_changes = Hashtbl.length views_seen_g;
    unavailable_s =
      (if chaos then begin
         let worst = ref 0. in
         for g = 0 to g_count - 1 do
           let tail = p.warmup +. p.duration -. last_commit_g.(g) in
           worst := Float.max !worst (Float.max max_gap_g.(g) tail)
         done;
         !worst
       end
       else 0.);
    recovery_s = List.fold_left Float.max 0. !recovery_times;
    completed = !completed;
    safety_ok = safety_ok && rb.stale = 0;
    executed_min;
    executed_max;
    client_retries = !client_retries;
    reads_completed = !reads_completed;
    read_rejects = !read_rejects;
    stale_answers = rb.stale;
    timeline =
      Array.mapi
        (fun i n -> (p.warmup +. (float_of_int i *. p.chaos_bucket), n))
        timeline;
    events = Engine.events_processed eng;
    group_throughputs =
      Array.map (fun cg -> float_of_int cg /. dur) completed_g;
    globals_executed = !globals_executed;
    spec_dispatched = !spec_dispatched;
    spec_confirmed = !spec_confirmed;
    spec_aborted = !spec_aborted;
    commit_exec_latency =
      (if !ce_n = 0 then 0. else !ce_sum /. float_of_int !ce_n);
    (* Online reconfiguration is a single-group (run_single) feature:
       the multi-group model keeps static membership. *)
    reconfigs_applied = 0;
    final_epoch = 0;
    trace = tracer }

(* [groups <= 1] takes the original single-group path untouched — the
   determinism goldens pin its event stream byte-for-byte. *)
let run ?trace (p : Params.t) =
  if p.groups <= 1 then run_single ?trace p else run_multi ?trace p
