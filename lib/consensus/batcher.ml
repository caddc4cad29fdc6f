module Client_msg = Msmr_wire.Client_msg
module Mclock = Msmr_platform.Mclock

type seal_stats = {
  seals_size : int;
  seals_delay : int;
  sealed_bytes : int;
  limit_bytes : int;
}

type t = {
  cfg : Config.t;
  src : Types.node_id;
  tuned_bsz : int Atomic.t option;
  mutable next_num : int;
  mutable open_reqs : Client_msg.request list;  (* newest first *)
  mutable open_count : int;                     (* = length open_reqs *)
  mutable open_bytes : int;
  mutable oldest_ns : int64;                    (* arrival of oldest request *)
  (* Monotone seal accounting, written by the Batcher thread (front
     domain) and read by the Protocol thread's autotune tick and the
     metrics gauges (main domain). Each counter is atomic; a reader may
     see a seal in some counters and not yet in others, which moves that
     seal into the next controller epoch. *)
  seals_size : int Atomic.t;
  seals_delay : int Atomic.t;
  sealed_bytes : int Atomic.t;
  limit_bytes : int Atomic.t;
}

let create ?tuned_bsz cfg ~src =
  {
    cfg;
    src;
    tuned_bsz;
    next_num = 0;
    open_reqs = [];
    open_count = 0;
    open_bytes = 0;
    oldest_ns = 0L;
    seals_size = Atomic.make 0;
    seals_delay = Atomic.make 0;
    sealed_bytes = Atomic.make 0;
    limit_bytes = Atomic.make 0;
  }

let bsz_limit t =
  match t.tuned_bsz with
  | None -> t.cfg.max_batch_bytes
  | Some a -> Atomic.get a

let pending_requests t = t.open_count
let pending_bytes t = t.open_bytes

(* [seal] adds to [limit_bytes] before [sealed_bytes] and this reads
   them the other way round, so a snapshot's limit covers every byte it
   counts: a controller epoch's fill never exceeds 1. *)
let seal_stats t =
  let sealed_bytes = Atomic.get t.sealed_bytes in
  let limit_bytes = Atomic.get t.limit_bytes in
  {
    seals_size = Atomic.get t.seals_size;
    seals_delay = Atomic.get t.seals_delay;
    sealed_bytes;
    limit_bytes;
  }

let seal t ~limit ~on_size =
  Atomic.incr (if on_size then t.seals_size else t.seals_delay);
  ignore (Atomic.fetch_and_add t.limit_bytes limit);
  ignore (Atomic.fetch_and_add t.sealed_bytes t.open_bytes);
  let batch =
    { Batch.bid = { src = t.src; num = t.next_num };
      requests = List.rev t.open_reqs }
  in
  t.next_num <- t.next_num + 1;
  t.open_reqs <- [];
  t.open_count <- 0;
  t.open_bytes <- 0;
  batch

let add t req ~now_ns =
  let limit = bsz_limit t in
  let sz = Client_msg.request_wire_size req in
  if t.open_reqs = [] then begin
    t.oldest_ns <- now_ns;
    t.open_reqs <- [ req ];
    t.open_count <- 1;
    t.open_bytes <- sz;
    if sz >= limit then Some (seal t ~limit ~on_size:true) else None
  end
  else if t.open_bytes + sz > limit then begin
    (* The new request does not fit: seal what we have, start afresh. *)
    let sealed = seal t ~limit ~on_size:true in
    t.oldest_ns <- now_ns;
    t.open_reqs <- [ req ];
    t.open_count <- 1;
    t.open_bytes <- sz;
    Some sealed
  end
  else begin
    t.open_reqs <- req :: t.open_reqs;
    t.open_count <- t.open_count + 1;
    t.open_bytes <- t.open_bytes + sz;
    if t.open_bytes >= limit then Some (seal t ~limit ~on_size:true) else None
  end

let deadline_ns t =
  if t.open_reqs = [] then None
  else Some (Int64.add t.oldest_ns (Mclock.ns_of_s t.cfg.max_batch_delay_s))

let flush_due t ~now_ns =
  match deadline_ns t with
  | Some d when Int64.compare now_ns d >= 0 ->
      Some (seal t ~limit:(bsz_limit t) ~on_size:false)
  | Some _ | None -> None

let force_flush t =
  if t.open_reqs = [] then None
  else Some (seal t ~limit:(bsz_limit t) ~on_size:false)
