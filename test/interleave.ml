(* DSCheck-style bounded exhaustive interleaving checker.

   It checks {!Msmr_runtime.Spec_ledger}: the test_runtime.ml cases
   [spec ledger: model-checked confirm] and [... rollback] run the
   scheduler / executor / reader hand-off of a speculative frame under
   every schedule. Their shared register is a {!Traced_atomic}, so every
   access to it is a scheduling point. {!explore} enumerates thread
   interleavings by depth-first search: each run follows a replayed
   prefix of scheduling choices and default-schedules the rest,
   recording every choice point; backtracking picks the deepest point
   with an untried runnable thread. Scenarios are deterministic apart
   from scheduling, so replaying a prefix reproduces the same state —
   the exploration is exhaustive up to [max_runs].

   Threads are effect-handler coroutines, not system threads: a
   [Yield] effect is performed before each atomic access and the
   scheduler decides who proceeds. Scenario code must therefore be pure
   compute + traced atomics (no mutexes, no real blocking). *)

type _ Effect.t += Yield : unit Effect.t

module Traced_atomic = struct
  type 'a t = 'a Atomic.t

  let make = Atomic.make

  let get a =
    Effect.perform Yield;
    Atomic.get a

  let set a v =
    Effect.perform Yield;
    Atomic.set a v

  let compare_and_set a old_v new_v =
    Effect.perform Yield;
    Atomic.compare_and_set a old_v new_v

  let fetch_and_add a k =
    Effect.perform Yield;
    Atomic.fetch_and_add a k
end

(* Pass-through handler: lets scenario construction and final checks use
   traced operations outside the scheduled threads (their yields are
   serial, so they create no choice points). *)
let passthrough (f : unit -> 'a) : 'a =
  Effect.Deep.match_with f ()
    {
      Effect.Deep.retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Yield ->
            Some
              (fun (k : (b, _) Effect.Deep.continuation) ->
                Effect.Deep.continue k ())
          | _ -> None);
    }

(* [explore ~max_runs scenario] runs [scenario] under every interleaving
   (up to [max_runs] schedules). [scenario ()] must build fresh state
   and return [(threads, check)]; [check] runs after all threads
   finish and should raise (e.g. [Alcotest.fail]) on an invariant
   violation. Returns [(runs, exhausted)]: the number of schedules
   explored and whether the space was fully covered. *)
let explore ?(max_runs = 200_000) scenario =
  let runs = ref 0 in
  let complete = ref true in
  let rec attempt prefix =
    if !runs >= max_runs then complete := false
    else begin
      incr runs;
      let threads, check = passthrough scenario in
      let bodies = Array.of_list threads in
      let n = Array.length bodies in
      let conts : (unit, unit) Effect.Deep.continuation option array =
        Array.make n None
      in
      let started = Array.make n false in
      let finished = Array.make n false in
      let handler i =
        {
          Effect.Deep.retc = (fun () -> finished.(i) <- true);
          exnc = raise;
          effc =
            (fun (type b) (eff : b Effect.t) ->
              match eff with
              | Yield ->
                Some
                  (fun (k : (b, _) Effect.Deep.continuation) ->
                    conts.(i) <- Some k)
              | _ -> None);
        }
      in
      let step i =
        if not started.(i) then begin
          started.(i) <- true;
          Effect.Deep.match_with bodies.(i) () (handler i)
        end
        else
          match conts.(i) with
          | Some k ->
            conts.(i) <- None;
            Effect.Deep.continue k ()
          | None -> ()
      in
      (* (chosen, runnable-at-that-point), newest first. *)
      let points = ref [] in
      let rec drive sched =
        let runnable =
          List.filter (fun i -> not finished.(i)) (List.init n Fun.id)
        in
        match runnable with
        | [] -> ()
        | _ ->
          let choice, rest =
            match sched with c :: tl -> (c, tl) | [] -> (List.hd runnable, [])
          in
          points := (choice, runnable) :: !points;
          step choice;
          drive rest
      in
      drive prefix;
      passthrough check;
      (* Deepest choice point with an untried alternative; runnable sets
         are ascending and the default choice is the smallest, so the
         next alternative is the next-larger runnable index. *)
      let rec next_prefix = function
        | [] -> None
        | (chosen, runnable) :: older -> (
          match List.find_opt (fun i -> i > chosen) runnable with
          | Some alt -> Some (List.rev_map fst older @ [ alt ])
          | None -> next_prefix older)
      in
      match next_prefix !points with
      | Some p -> attempt p
      | None -> ()
    end
  in
  attempt [];
  (!runs, !complete)
