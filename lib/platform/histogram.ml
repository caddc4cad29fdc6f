(* Buckets cover [1 ns, ~100 s) with 16 buckets per power of two of
   nanoseconds: bucket = 16*log2(ns) rounded down, giving ~4.5% relative
   error. 16 * 37 = 592 buckets suffice. *)

let buckets_per_octave = 16
let n_buckets = 600

(* The buckets are kept in chunks small enough for the minor heap. One
   600-slot array is a major-heap block, and filling it with freshly
   made atomics makes [Array.init] force a minor collection: a
   stop-the-world pause per histogram created once a second domain
   runs (DESIGN.md, "Domains: front and core"). *)
let chunk = 200

type t = {
  counts : int Atomic.t array array;   (* bucket b = counts.(b / chunk).(b mod chunk) *)
  total : int Atomic.t;
  sum_ns : int Atomic.t;          (* total nanoseconds, for the mean *)
}

let create () =
  { counts =
      Array.init (n_buckets / chunk) (fun _ ->
          Array.init chunk (fun _ -> Atomic.make 0));
    total = Atomic.make 0;
    sum_ns = Atomic.make 0 }

let bucket t b = t.counts.(b / chunk).(b mod chunk)

let bucket_of_ns ns =
  if ns <= 1. then 0
  else
    let b =
      int_of_float (Float.of_int buckets_per_octave *. Float.log2 ns)
    in
    if b < 0 then 0 else if b >= n_buckets then n_buckets - 1 else b

let ns_of_bucket b =
  (* Upper bound of the bucket. *)
  Float.pow 2. (Float.of_int (b + 1) /. Float.of_int buckets_per_octave)

let record t seconds =
  let ns = Float.max 0. (seconds *. 1e9) in
  let b = bucket_of_ns ns in
  ignore (Atomic.fetch_and_add (bucket t b) 1);
  ignore (Atomic.fetch_and_add t.total 1);
  ignore (Atomic.fetch_and_add t.sum_ns (int_of_float ns))

let count t = Atomic.get t.total

let mean t =
  let n = Atomic.get t.total in
  if n = 0 then 0. else Float.of_int (Atomic.get t.sum_ns) /. Float.of_int n /. 1e9

let percentile t p =
  let n = Atomic.get t.total in
  if n = 0 then 0.
  else begin
    let p = Float.max 0. (Float.min 1. p) in
    (* Nearest-rank: the smallest bucket whose cumulative count reaches
       ceil(n * p) samples. *)
    let target = max 1 (int_of_float (Float.ceil (Float.of_int n *. p))) in
    let rec go b acc =
      if b >= n_buckets then ns_of_bucket (n_buckets - 1) /. 1e9
      else begin
        let acc = acc + Atomic.get (bucket t b) in
        if acc >= target then ns_of_bucket b /. 1e9 else go (b + 1) acc
      end
    in
    go 0 0
  end

let merge_into ~src ~dst =
  for b = 0 to n_buckets - 1 do
    let v = Atomic.get (bucket src b) in
    if v > 0 then ignore (Atomic.fetch_and_add (bucket dst b) v)
  done;
  ignore (Atomic.fetch_and_add dst.total (Atomic.get src.total));
  ignore (Atomic.fetch_and_add dst.sum_ns (Atomic.get src.sum_ns))

let reset t =
  Array.iter (Array.iter (fun c -> Atomic.set c 0)) t.counts;
  Atomic.set t.total 0;
  Atomic.set t.sum_ns 0

let pp_summary ppf t =
  Format.fprintf ppf "n=%d mean=%.2fms p50=%.2fms p95=%.2fms p99=%.2fms"
    (count t) (1e3 *. mean t)
    (1e3 *. percentile t 0.50)
    (1e3 *. percentile t 0.95)
    (1e3 *. percentile t 0.99)
