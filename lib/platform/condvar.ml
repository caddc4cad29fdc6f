external wait_ns : Condition.t -> Mutex.t -> int64 -> unit
  = "platform_condvar_wait_ns"

let wait ?st ?deadline cond mu =
  let wait () =
    match deadline with
    | None -> Condition.wait cond mu
    | Some d ->
      let ns = Int64.sub d (Mclock.now_ns ()) in
      if Int64.compare ns 0L > 0 then wait_ns cond mu ns
  in
  match st with
  | None -> wait ()
  | Some st -> Thread_state.enter st Thread_state.Waiting wait
