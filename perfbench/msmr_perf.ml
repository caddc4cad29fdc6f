(* Entry point: [msmr_perf cluster ...] or [msmr_perf gen ...]; see
   run.py for how the two processes are driven. *)
let () =
  (* Both processes write to TCP peers that may have gone (a stopped
     replica, a client that gave up on a connection): a write must fail
     with EPIPE, not kill the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Sys.argv with
  | [||] | [| _ |] -> prerr_endline "usage: msmr_perf (cluster|gen) --opt value ..."; exit 2
  | argv -> (
      match argv.(1) with
      | "cluster" -> Cluster.main ()
      | "gen" -> Gen.main ()
      | c -> prerr_endline ("unknown sub-command " ^ c); exit 2)
