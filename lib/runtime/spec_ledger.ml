module Client_msg = Msmr_wire.Client_msg

type frame = {
  f_id : Client_msg.request_id;
  f_key : string;
  f_lane : int;
  f_dispatch_ns : int64;
  (* Written by the speculative execution, read by a later abort. Both
     run on the frame's lane, whose FIFO orders them, but the frame is
     allocated on the scheduler thread and shared with an executor: the
     Atomic makes that cross-thread hand-off explicit instead of leaning
     on the lane queue's mutex for the memory ordering. *)
  f_undo : (unit -> unit) option Atomic.t;
}

type t = {
  (* Unresolved frames by client id — scheduler-thread only. Clients are
     sequential, so one unresolved frame per client suffices. *)
  frames : (int, frame) Hashtbl.t;
  (* Unresolved frames per conflict key in admit (= lane FIFO = predicted
     decide) order — scheduler-thread only. *)
  by_key : (string, frame Queue.t) Hashtbl.t;
  (* Frames whose speculative effects may be applied but are not yet
     confirmed-or-undone. Incremented at admit (scheduler), decremented
     by the executor after the confirm or the undo has been applied —
     only then is the service state clean for readers. *)
  effects : int Atomic.t;
}

type verdict =
  | Confirm of frame
  | Mispredict of frame list
  | No_frame

let create () =
  { frames = Hashtbl.create 256;
    by_key = Hashtbl.create 256;
    effects = Atomic.make 0 }

let unresolved t = Hashtbl.length t.frames
let effects_pending t = Atomic.get t.effects > 0

let admit t (id : Client_msg.request_id) ~key ~lane ~now_ns =
  if Hashtbl.mem t.frames id.client_id then None
  else begin
    let frame =
      { f_id = id; f_key = key; f_lane = lane; f_dispatch_ns = now_ns;
        f_undo = Atomic.make None }
    in
    Hashtbl.replace t.frames id.client_id frame;
    let q =
      match Hashtbl.find_opt t.by_key key with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.replace t.by_key key q;
        q
    in
    Queue.push frame q;
    Atomic.incr t.effects;
    Some frame
  end

(* Remove every unresolved frame on [key], newest first — the order their
   undos must apply in (each undo restores the state its execution
   observed, so a suffix unwinds LIFO). *)
let drop_key t key =
  match Hashtbl.find_opt t.by_key key with
  | None -> []
  | Some q ->
    let frames = Queue.fold (fun acc f -> f :: acc) [] q in
    Queue.clear q;
    Hashtbl.remove t.by_key key;
    List.iter (fun f -> Hashtbl.remove t.frames f.f_id.client_id) frames;
    frames

let on_decide t (id : Client_msg.request_id) ~key =
  match Hashtbl.find_opt t.by_key key with
  | None -> No_frame
  | Some q when Queue.is_empty q -> No_frame
  | Some q ->
    let head = Queue.peek q in
    if head.f_id.client_id = id.client_id && head.f_id.seq = id.seq then begin
      ignore (Queue.pop q);
      if Queue.is_empty q then Hashtbl.remove t.by_key key;
      Hashtbl.remove t.frames id.client_id;
      Confirm head
    end
    else
      (* Predicted order diverged from decide order on this key: every
         frame speculated on it ran against a now-wrong prefix. *)
      Mispredict (drop_key t key)

let abort_all t =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.by_key [] in
  List.concat_map (fun k -> drop_key t k) keys

let settled t frame =
  ignore frame;
  Atomic.decr t.effects
