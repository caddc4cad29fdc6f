(* Pieces shared by the cluster process and the load generator. *)

external now_ns : unit -> int = "perf_mono_now_ns" [@@noalloc]
(** CLOCK_MONOTONIC in nanoseconds; comparable across processes. *)

let sleep_until ns =
  let d = ns - now_ns () in
  if d > 0 then Unix.sleepf (float_of_int d /. 1e9)

(* A request is traced when this holds; every process applies the same
   rule, so the spans of one request are all kept or all dropped. *)
let sampled ~client_id ~seq = ((client_id * 31) + seq) mod 10 = 0

let key_name k = "k" ^ string_of_int k

(* A Put's value names the key and the op that wrote it, padded to the
   workload's value size, so a read can be traced to the write it saw. *)
let value_of ~key ~tag ~size =
  let s = Printf.sprintf "%d:%d:" key tag in
  if String.length s >= size then s
  else s ^ String.make (size - String.length s) 'v'

let parse_value v =
  match String.split_on_char ':' v with
  | k :: tag :: _ -> (
      match (int_of_string_opt k, int_of_string_opt tag) with
      | Some k, Some tag -> Some (k, tag)
      | _ -> None)
  | _ -> None

(* Growable int vector: the per-request records live in a few of these
   instead of a list of records, so recording allocates almost nothing. *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let get v i = v.a.(i)
  let set v i x = v.a.(i) <- x
  let length v = v.n
end

(* "--name value" pairs after the sub-command. *)
let parse_args argv =
  let tbl = Hashtbl.create 16 in
  let rec go i =
    if i < Array.length argv then begin
      let a = argv.(i) in
      if String.length a > 2 && String.sub a 0 2 = "--" then begin
        let k = String.sub a 2 (String.length a - 2) in
        if i + 1 < Array.length argv then begin
          Hashtbl.replace tbl k argv.(i + 1);
          go (i + 2)
        end
        else failwith ("missing value for " ^ a)
      end
      else failwith ("unexpected argument " ^ a)
    end
  in
  go 2;
  let get k =
    match Hashtbl.find_opt tbl k with
    | Some v -> v
    | None -> failwith ("missing --" ^ k)
  in
  let get_opt k = Hashtbl.find_opt tbl k in
  (get, get_opt)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* User + system CPU seconds of this process. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
