(* The load generator: one process, [conns] connections, one domain per
   connection. Many logical clients share a connection; each client has
   at most one request outstanding, which is what the replicas' reply
   cache expects. Every request is logged and written out at the end;
   run.py turns the log into metrics and checks it. *)

open Common
module Client_msg = Msmr_wire.Client_msg
module Frame = Msmr_wire.Frame
module Kv = Msmr_kv.Kv_service

type workload = {
  ports : int array;
  target0 : int;
  closed : bool;
  clients : int;          (* closed loop: logical clients *)
  rate : float;           (* open loop: Poisson arrivals per second *)
  read_frac : float;
  keys : int;
  value_size : int;
  seed : int;
  start_ns : int;         (* load starts (warm-up included) *)
  t0_ns : int;            (* measurement window starts *)
  end_ns : int;           (* no request is due or issued after this *)
  drain_ns : int;         (* wait this long for stragglers *)
  resend_ns : int;
  conns : int;
}

(* One request's record, one slot per vector. [due] is when the request
   became ready to send: its arrival time (open loop) or the moment the
   client's previous reply was read (closed loop). *)
type log = {
  kind : Vec.t;    (* 0 = Put, 1 = linearizable read *)
  tag : Vec.t;
  key : Vec.t;
  cid : Vec.t;
  seq : Vec.t;
  due : Vec.t;
  send : Vec.t;    (* first send *)
  ack : Vec.t;     (* 0 = never answered *)
  rtag : Vec.t;    (* reads: tag of the value seen, -1 = none *)
  resends : Vec.t;
}

let new_log () =
  { kind = Vec.create (); tag = Vec.create (); key = Vec.create ();
    cid = Vec.create (); seq = Vec.create (); due = Vec.create ();
    send = Vec.create (); ack = Vec.create (); rtag = Vec.create ();
    resends = Vec.create () }

type slot = {
  idx : int;
  raw : bytes;
  mutable last_send : int;   (* 0 = send as soon as connected *)
  mutable queued : bool;     (* already in the pending list *)
}

type conn_result = {
  log : log;
  violations : string list;
  n_violations : int;
  duplicates : int;
  read_rejects : int;
  reads_syscalls : int;
  frames_read : int;
  reconnects : int;
  cpu_window : float;   (* process CPU s over the window; conn 0 only *)
}

let open_schedule w =
  let rng = Random.State.make [| w.seed; 0x6f70656e |] in
  let due = Vec.create () and key = Vec.create () in
  let t = ref (float_of_int w.start_ns) in
  let continue = ref true in
  while !continue do
    let u = Random.State.float rng 1.0 in
    t := !t +. (-.log (1. -. u) /. w.rate *. 1e9);
    if int_of_float !t >= w.end_ns then continue := false
    else begin
      Vec.push due (int_of_float !t);
      Vec.push key (Random.State.int rng w.keys)
    end
  done;
  (due, key)

let run_conn w ~ci ~(sched : (Vec.t * Vec.t) option) =
  let log = new_log () in
  let n = Array.length w.ports in
  let target = ref w.target0 in
  let fd = ref None in
  let rbuf = ref (Bytes.create 65536) and rlen = ref 0 in
  let outstanding : (int, slot) Hashtbl.t = Hashtbl.create 256 in
  let last_done : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let violations = ref [] and n_viol = ref 0 in
  let violation s =
    incr n_viol;
    if !n_viol <= 10 then violations := s :: !violations
  in
  let duplicates = ref 0 and read_rejects = ref 0 in
  let reads_sys = ref 0 and frames_read = ref 0 and reconnects = ref 0 in
  let pending = ref [] in
  let last_reply = ref (now_ns ()) and last_rotate = ref 0 in
  let cpu_t0 = ref None and cpu_window = ref 0. in
  let seqs : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let next_seq cid =
    let s = 1 + Option.value (Hashtbl.find_opt seqs cid) ~default:0 in
    Hashtbl.replace seqs cid s;
    s
  in
  let issue ~cid ~kind ~key ~tag_of_seq ~due =
    let seq = next_seq cid in
    let tag = tag_of_seq seq in
    let id = { Client_msg.client_id = cid; seq } in
    let k = key_name key in
    let raw =
      if kind = 0 then
        Client_msg.request_to_bytes
          { id;
            payload =
              Kv.encode_command
                (Kv.Put
                   { key = k; value = value_of ~key ~tag ~size:w.value_size;
                     ephemeral = false }) }
      else
        Client_msg.read_to_bytes
          { id; staleness_ns = Client_msg.linearizable;
            payload = Kv.encode_command (Kv.Get k) }
    in
    let idx = Vec.length log.kind in
    Vec.push log.kind kind; Vec.push log.tag tag; Vec.push log.key key;
    Vec.push log.cid cid; Vec.push log.seq seq; Vec.push log.due due;
    Vec.push log.send 0; Vec.push log.ack 0; Vec.push log.rtag (-1);
    Vec.push log.resends 0;
    let s = { idx; raw; last_send = 0; queued = true } in
    Hashtbl.replace outstanding cid s;
    pending := s :: !pending
  in
  (* Closed loop: clients [ci + 1 + conns * j] belong to this connection;
     client c draws its ops from its own stream of the seed. *)
  let my_clients =
    if w.closed then
      List.filter (fun c -> (c - 1) mod w.conns = ci)
        (List.init w.clients (fun i -> i + 1))
    else []
  in
  let rngs = Hashtbl.create 64 in
  List.iter
    (fun c -> Hashtbl.replace rngs c (Random.State.make [| w.seed; c |]))
    my_clients;
  let closed_next cid ~due =
    let rng = Hashtbl.find rngs cid in
    let kind = if Random.State.float rng 1.0 < w.read_frac then 1 else 0 in
    let key = Random.State.int rng w.keys in
    issue ~cid ~kind ~key ~tag_of_seq:(fun seq -> (cid * 1_000_000_000) + seq)
      ~due
  in
  (* Open loop: arrival i is this connection's when i mod conns = ci; it
     takes any client of this connection with nothing outstanding. *)
  let free = Stack.create () and next_cid = ref (ci + 1) in
  let take_cid () =
    match Stack.pop_opt free with
    | Some c -> c
    | None ->
      let c = !next_cid in
      next_cid := c + w.conns;
      c
  in
  let next_arrival = ref ci in
  let disconnect () =
    match !fd with
    | Some f ->
      fd := None;
      rlen := 0;
      (try Unix.close f with Unix.Unix_error _ -> ())
    | None -> ()
  in
  let last_check = ref 0 in
  let rotate () =
    disconnect ();
    target := (!target + 1) mod n;
    last_rotate := now_ns ();
    (* Everything outstanding goes again on the next connection. *)
    pending := [];
    last_check := 0;
    Hashtbl.iter (fun _ s -> s.last_send <- 0; s.queued <- false) outstanding
  in
  let connect () =
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match
      Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, w.ports.(!target)))
    with
    | () ->
      Unix.setsockopt s Unix.TCP_NODELAY true;
      incr reconnects;
      fd := Some s
    | exception Unix.Unix_error _ ->
      Unix.close s;
      rotate ();
      Unix.sleepf 0.005
  in
  let handle_frame raw now =
    incr frames_read;
    let is_read =
      Bytes.length raw >= 4
      && Int32.to_int (Bytes.get_int32_be raw 0) = Client_msg.read_reply_magic
    in
    let id, outcome =
      if is_read then
        let rr = Client_msg.read_reply_of_bytes raw in
        (rr.rid, `Read rr.status)
      else
        let r = Client_msg.reply_of_bytes raw in
        (r.id, `Write r.result)
    in
    match Hashtbl.find_opt outstanding id.client_id with
    | Some s when Vec.get log.seq s.idx = id.seq -> (
        let i = s.idx in
        let complete () =
          Vec.set log.ack i now;
          Hashtbl.remove outstanding id.client_id;
          Hashtbl.replace last_done id.client_id id.seq;
          if w.closed then begin
            if now < w.end_ns then closed_next id.client_id ~due:now
          end
          else Stack.push id.client_id free
        in
        match (outcome, Vec.get log.kind i) with
        | `Write result, 0 -> (
            match Kv.decode_reply result with
            | Kv.Ok_unit -> complete ()
            | _ -> violation "put answered with something else than Ok_unit"
            | exception _ -> violation "undecodable put reply")
        | `Read (Client_msg.Read_ok result), 1 -> (
            match Kv.decode_reply result with
            | Kv.Ok_value None -> complete ()
            | Kv.Ok_value (Some v) -> (
                match parse_value v with
                | Some (k, tag) when k = Vec.get log.key i ->
                  Vec.set log.rtag i tag;
                  complete ()
                | _ -> violation "read returned a value of another key")
            | _ -> violation "read answered with something else than Ok_value"
            | exception _ -> violation "undecodable read reply")
        | `Read (Client_msg.Not_leaseholder _), 1 ->
          (* The lease is being renewed or moved: retry shortly with the
             same id, as Tcp_client does. *)
          incr read_rejects;
          s.last_send <- now - w.resend_ns + 2_000_000;
          last_check := 0
        | `Read _, _ -> violation "unexpected read status"
        | `Write _, _ -> violation "write reply to a read")
    | _ -> (
        match Hashtbl.find_opt last_done id.client_id with
        | Some d when id.seq <= d -> incr duplicates
        | _ ->
          violation
            (Printf.sprintf "reply for (%d,%d) matches no request sent"
               id.client_id id.seq))
  in
  let read_available f =
    let buf = !rbuf in
    let got =
      try Unix.read f buf !rlen (Bytes.length buf - !rlen)
      with Unix.Unix_error _ -> 0
    in
    if got = 0 then rotate ()
    else begin
      incr reads_sys;
      let now = now_ns () in
      last_reply := now;
      rlen := !rlen + got;
      let pos = ref 0 in
      let continue = ref true in
      while !continue && !rlen - !pos >= 4 do
        let len = Int32.to_int (Bytes.get_int32_be !rbuf !pos) in
        if !rlen - !pos - 4 >= len then begin
          let raw = Bytes.sub !rbuf (!pos + 4) len in
          pos := !pos + 4 + len;
          (match handle_frame raw now with
           | () -> ()
           | exception (Msmr_wire.Codec.Malformed _ | Msmr_wire.Codec.Underflow)
             ->
             violation "undecodable reply frame")
        end
        else begin
          if 4 + len > Bytes.length !rbuf then begin
            let b = Bytes.create (2 * (4 + len)) in
            Bytes.blit !rbuf !pos b 0 (!rlen - !pos);
            rbuf := b;
            rlen := !rlen - !pos;
            pos := 0
          end;
          continue := false
        end
      done;
      if !pos > 0 then begin
        Bytes.blit !rbuf !pos !rbuf 0 (!rlen - !pos);
        rlen := !rlen - !pos
      end
    end
  in
  let flush () =
    match (!pending, !fd) with
    | [], _ | _, None -> ()
    | slots, Some f -> (
        pending := [];
        let slots = List.rev slots in
        let now = now_ns () in
        List.iter
          (fun s ->
             s.queued <- false;
             s.last_send <- now;
             if Vec.get log.send s.idx = 0 then Vec.set log.send s.idx now
             else Vec.set log.resends s.idx (Vec.get log.resends s.idx + 1))
          slots;
        try Frame.write_many f (List.map (fun s -> s.raw) slots)
        with Unix.Unix_error _ | Sys_error _ -> rotate ())
  in
  let resend_due now =
    if now - !last_check >= 10_000_000 then begin
      last_check := now;
      if
        Hashtbl.length outstanding > 0
        && now - !last_reply > w.resend_ns
        && now - !last_rotate > w.resend_ns
      then
        (* Nothing answered for a while: this replica does not lead. *)
        rotate ();
      Hashtbl.iter
        (fun _ s ->
           if (not s.queued) && now - s.last_send > w.resend_ns then begin
             s.queued <- true;
             pending := s :: !pending
           end)
        outstanding
    end
  in
  sleep_until w.start_ns;
  if w.closed then
    List.iter (fun c -> closed_next c ~due:w.start_ns) my_clients;
  let hard_end = w.end_ns + w.drain_ns in
  let running = ref true in
  while !running do
    let now = now_ns () in
    if ci = 0 then begin
      (match !cpu_t0 with
       | None when now >= w.t0_ns -> cpu_t0 := Some (cpu_s ())
       | _ -> ());
      match !cpu_t0 with
      | Some c when now >= w.end_ns && !cpu_window = 0. ->
        cpu_window := cpu_s () -. c
      | _ -> ()
    end;
    if now >= hard_end || (now >= w.end_ns && Hashtbl.length outstanding = 0)
    then running := false
    else begin
      if !fd = None then connect ();
      let next_due =
        match sched with
        | None -> max_int
        | Some (due, key) ->
          let len = Vec.length due in
          while !next_arrival < len && Vec.get due !next_arrival <= now do
            let i = !next_arrival in
            issue ~cid:(take_cid ()) ~kind:0 ~key:(Vec.get key i)
              ~tag_of_seq:(fun _ -> i) ~due:(Vec.get due i);
            next_arrival := i + w.conns
          done;
          if !next_arrival < len then Vec.get due !next_arrival else max_int
      in
      resend_due now;
      flush ();
      match !fd with
      | None -> ()
      | Some f -> (
          let wait_ns = min (next_due - now) 5_000_000 in
          let wait_s = float_of_int (max 0 wait_ns) /. 1e9 in
          match Unix.select [ f ] [] [] wait_s with
          | [], _, _ -> ()
          | _ ->
            read_available f;
            flush ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    end
  done;
  disconnect ();
  { log; violations = List.rev !violations; n_violations = !n_viol;
    duplicates = !duplicates; read_rejects = !read_rejects;
    reads_syscalls = !reads_sys; frames_read = !frames_read;
    reconnects = !reconnects; cpu_window = !cpu_window }

let write_log oc (r : conn_result) ~ci =
  let l = r.log in
  for i = 0 to Vec.length l.kind - 1 do
    Printf.fprintf oc "%d %d %d %d %d %d %d %d %d %d %d\n" (Vec.get l.kind i)
      (Vec.get l.tag i) (Vec.get l.key i) (Vec.get l.cid i) (Vec.get l.seq i)
      (Vec.get l.due i) (Vec.get l.send i) (Vec.get l.ack i)
      (Vec.get l.rtag i) (Vec.get l.resends i) ci
  done

let main () =
  let get, _ = parse_args Sys.argv in
  let i k = int_of_string (get k) and f k = float_of_string (get k) in
  let ns_of s = int_of_float (s *. 1e9) in
  let t0 = i "t0-ns" in
  let w =
    { ports = Array.of_list (List.map int_of_string
                               (String.split_on_char ',' (get "ports")));
      target0 = i "target"; closed = get "mode" = "closed";
      clients = i "clients"; rate = f "rate"; read_frac = f "read-frac";
      keys = i "keys"; value_size = i "value-size"; seed = i "seed";
      start_ns = t0 - ns_of (f "warmup-s"); t0_ns = t0;
      end_ns = t0 + ns_of (f "seconds"); drain_ns = ns_of (f "drain-s");
      resend_ns = ns_of (f "resend-s"); conns = i "conns" }
  in
  let out = get "out" in
  let sched = if w.closed then None else Some (open_schedule w) in
  let others =
    List.init (w.conns - 1) (fun k ->
        Domain.spawn (fun () -> run_conn w ~ci:(k + 1) ~sched))
  in
  let r0 = run_conn w ~ci:0 ~sched in
  let results = r0 :: List.map Domain.join others in
  let oc = open_out_bin (Filename.concat out "gen_ops.txt") in
  List.iteri (fun ci r -> write_log oc r ~ci) results;
  close_out oc;
  let sum g = List.fold_left (fun a r -> a + g r) 0 results in
  let module J = Msmr_obs.Json in
  let summary =
    J.Obj
      [ ("cpu_window_s", J.Float r0.cpu_window);
        ("conns", J.Int w.conns);
        ("violations", J.Int (sum (fun r -> r.n_violations)));
        ("violation_examples",
         J.List
           (List.concat_map
              (fun r -> List.map (fun s -> J.String s) r.violations)
              results));
        ("duplicates", J.Int (sum (fun r -> r.duplicates)));
        ("read_rejects", J.Int (sum (fun r -> r.read_rejects)));
        ("read_syscalls", J.Int (sum (fun r -> r.reads_syscalls)));
        ("frames_read", J.Int (sum (fun r -> r.frames_read)));
        ("connects", J.Int (sum (fun r -> r.reconnects))) ]
  in
  write_file (Filename.concat out "gen.json") (J.to_string summary)
