type profile = {
  profile_name : string;
  max_cores : int;
  cpu_speed : float;
  pkt_rate : float;
  bandwidth : float;
}

let parapluie =
  { profile_name = "parapluie"; max_cores = 24; cpu_speed = 1.0;
    pkt_rate = 150e3; bandwidth = 114e6 }

let edel =
  (* Slightly slower single-thread throughput in the paper's results
     (~11.4 K vs ~15.4 K requests/s on one core). *)
  { profile_name = "edel"; max_cores = 8; cpu_speed = 0.75;
    pkt_rate = 150e3; bandwidth = 114e6 }

type costs = {
  client_read : float;
  client_write : float;
  batcher_per_req : float;
  batcher_per_batch : float;
  protocol_per_event : float;
  exec_per_req : float;
  io_ser_per_msg : float;
  io_ser_per_byte : float;
  io_deser_per_msg : float;
  io_deser_per_byte : float;
  switch_cost : float;
  dispatch_per_req : float;
}

let default_costs =
  { client_read = 18e-6;
    client_write = 8e-6;
    batcher_per_req = 5e-6;
    batcher_per_batch = 8e-6;
    protocol_per_event = 7e-6;
    exec_per_req = 6e-6;
    io_ser_per_msg = 4e-6;
    io_ser_per_byte = 4e-9;
    io_deser_per_msg = 5e-6;
    io_deser_per_byte = 4e-9;
    switch_cost = 2e-6;
    dispatch_per_req = 1e-6 }

type sync_policy =
  | Sync_none
  | Sync_serial
  | Sync_group

type t = {
  profile : profile;
  costs : costs;
  n : int;
  groups : int;
  cores : int;
  client_io_threads : int;
  wnd : int;
  bsz : int;
  n_clients : int;
  request_size : int;
  reply_size : int;
  warmup : float;
  duration : float;
  net_contention_per_io_thread : float;
  n_batchers : int;
  rss : bool;
  exec_threads : int;
  speculate : bool;
  mispredict_ratio : float;
  skew : float;
  conflict_ratio : float;
  sync_policy : sync_policy;
  fsync_latency : float;
  auto_tune : bool;
  tune_epoch : float;
  read_ratio : float;
  lease : bool;
  stale_reads : bool;
  clock_skew : float;
  lease_duration : float;
  staleness_bound : float;
  faults : Sfault.event list;
  members0 : int list;
  reconfig_at : (float * int list) list;
  chaos_seed : int;
  chaos_fd_interval : float;
  chaos_fd_timeout : float;
  chaos_rtx_interval : float;
  chaos_client_timeout : float;
  chaos_bucket : float;
}

let auto_io_threads ~cores = max 1 (min 5 (cores - 1))

let default ?(profile = parapluie) ~n ~cores () =
  { profile;
    costs = default_costs;
    n;
    groups = 1;
    cores;
    client_io_threads = auto_io_threads ~cores;
    wnd = 10;
    bsz = 1300;
    n_clients = 1800;
    request_size = 128;
    reply_size = 8;
    warmup = 0.5;
    duration = 2.0;
    net_contention_per_io_thread = 0.016;
    n_batchers = 1;
    rss = false;
    exec_threads = 1;
    speculate = false;
    mispredict_ratio = 0.0;
    skew = 0.0;
    conflict_ratio = 0.0;
    sync_policy = Sync_none;
    fsync_latency = 5e-3;
    auto_tune = false;
    tune_epoch = 0.01;
    read_ratio = 0.0;
    lease = false;
    stale_reads = false;
    clock_skew = 0.0;
    lease_duration = 0.5;
    staleness_bound = 0.1;
    faults = [];
    members0 = [];
    reconfig_at = [];
    chaos_seed = 1;
    chaos_fd_interval = 0.02;
    chaos_fd_timeout = 0.1;
    chaos_rtx_interval = 0.05;
    chaos_client_timeout = 0.25;
    chaos_bucket = 0.05 }
