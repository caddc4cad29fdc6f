(* Tests for msmr_wire: codec primitives, framing, client messages. *)

open Msmr_wire

let test_codec_roundtrip_ints () =
  let w = Codec.W.create () in
  Codec.W.u8 w 0xab;
  Codec.W.i32 w (-123456);
  Codec.W.i64 w 0x1122334455667788L;
  Codec.W.int_as_i64 w max_int;
  Codec.W.bool w true;
  Codec.W.bool w false;
  let r = Codec.R.of_bytes (Codec.W.contents w) in
  Alcotest.(check int) "u8" 0xab (Codec.R.u8 r);
  Alcotest.(check int) "i32" (-123456) (Codec.R.i32 r);
  Alcotest.(check int64) "i64" 0x1122334455667788L (Codec.R.i64 r);
  Alcotest.(check int) "int64->int" max_int (Codec.R.int_from_i64 r);
  Alcotest.(check bool) "true" true (Codec.R.bool r);
  Alcotest.(check bool) "false" false (Codec.R.bool r);
  Codec.R.expect_end r

let test_codec_strings () =
  let w = Codec.W.create () in
  Codec.W.string w "";
  Codec.W.string w "hello";
  Codec.W.bytes w (Bytes.of_string "\x00\xff\x01");
  let r = Codec.R.of_bytes (Codec.W.contents w) in
  Alcotest.(check string) "empty" "" (Codec.R.string r);
  Alcotest.(check string) "hello" "hello" (Codec.R.string r);
  Alcotest.(check string) "binary" "\x00\xff\x01"
    (Bytes.to_string (Codec.R.bytes r));
  Codec.R.expect_end r

let test_codec_underflow () =
  let r = Codec.R.of_string "\x01" in
  Alcotest.check_raises "i32 underflows" Codec.Underflow (fun () ->
      ignore (Codec.R.i32 r))

let test_codec_trailing () =
  let r = Codec.R.of_string "\x01\x02" in
  ignore (Codec.R.u8 r);
  Alcotest.check_raises "trailing" (Codec.Malformed "1 trailing bytes")
    (fun () -> Codec.R.expect_end r)

let test_codec_bad_bool () =
  let r = Codec.R.of_string "\x07" in
  Alcotest.check_raises "bad bool" (Codec.Malformed "bool byte 7") (fun () ->
      ignore (Codec.R.bool r))

let test_codec_i32_range () =
  let w = Codec.W.create () in
  Alcotest.check_raises "too big" (Invalid_argument "Codec.W.i32: out of range")
    (fun () -> Codec.W.i32 w (0x7fffffff + 1));
  Codec.W.i32 w 0x7fffffff;
  Codec.W.i32 w (-0x80000000);
  let r = Codec.R.of_bytes (Codec.W.contents w) in
  Alcotest.(check int) "max" 0x7fffffff (Codec.R.i32 r);
  Alcotest.(check int) "min" (-0x80000000) (Codec.R.i32 r)

let prop_codec_string_roundtrip =
  QCheck.Test.make ~name:"codec string round-trip" ~count:300
    QCheck.(list string)
    (fun ss ->
       let w = Codec.W.create () in
       List.iter (Codec.W.string w) ss;
       let r = Codec.R.of_bytes (Codec.W.contents w) in
       let back = List.map (fun _ -> Codec.R.string r) ss in
       Codec.R.expect_end r;
       back = ss)

let mk_req client_id seq payload =
  { Client_msg.id = { client_id; seq }; payload = Bytes.of_string payload }

let test_request_roundtrip () =
  let r = mk_req 42 1001 "some payload" in
  let r' = Client_msg.request_of_bytes (Client_msg.request_to_bytes r) in
  Alcotest.(check bool) "equal" true (Client_msg.equal_request r r')

let test_request_wire_size () =
  let r = mk_req 1 2 "abcd" in
  Alcotest.(check int) "16 + payload" 20 (Client_msg.request_wire_size r);
  Alcotest.(check int) "encoding matches"
    (Client_msg.request_wire_size r)
    (Bytes.length (Client_msg.request_to_bytes r))

let test_reply_roundtrip () =
  let rep =
    { Client_msg.id = { client_id = 7; seq = 9 }; result = Bytes.of_string "ok" }
  in
  let rep' = Client_msg.reply_of_bytes (Client_msg.reply_to_bytes rep) in
  Alcotest.(check int) "client" 7 rep'.Client_msg.id.client_id;
  Alcotest.(check int) "seq" 9 rep'.Client_msg.id.seq;
  Alcotest.(check string) "result" "ok" (Bytes.to_string rep'.Client_msg.result)

let prop_request_roundtrip =
  QCheck.Test.make ~name:"client request codec round-trip" ~count:300
    QCheck.(triple small_nat small_nat string)
    (fun (cid, seq, payload) ->
       let r = mk_req cid seq payload in
       Client_msg.equal_request r
         (Client_msg.request_of_bytes (Client_msg.request_to_bytes r)))

let test_frame_roundtrip () =
  let rd, wr = Unix.pipe () in
  (* The large frame exceeds the pipe buffer, so write from a thread. *)
  let writer =
    Thread.create
      (fun () ->
         Frame.write wr (Bytes.of_string "alpha");
         Frame.write wr (Bytes.of_string "");
         Frame.write wr (Bytes.of_string (String.make 70_000 'x')))
      ()
  in
  (match Frame.read rd with
   | Some b -> Alcotest.(check string) "first" "alpha" (Bytes.to_string b)
   | None -> Alcotest.fail "eof");
  (match Frame.read rd with
   | Some b -> Alcotest.(check int) "empty" 0 (Bytes.length b)
   | None -> Alcotest.fail "eof");
  (match Frame.read rd with
   | Some b -> Alcotest.(check int) "large" 70_000 (Bytes.length b)
   | None -> Alcotest.fail "eof");
  Thread.join writer;
  Unix.close wr;
  Alcotest.(check bool) "clean eof" true (Frame.read rd = None);
  Unix.close rd

let test_frame_eof_mid_frame () =
  let rd, wr = Unix.pipe () in
  (* A 4-byte header announcing 10 bytes, then only 3. *)
  let partial = Bytes.create 7 in
  Bytes.set_int32_be partial 0 10l;
  ignore (Unix.write wr partial 0 7);
  Unix.close wr;
  Alcotest.check_raises "mid-frame eof" End_of_file (fun () ->
      ignore (Frame.read rd));
  Unix.close rd

let test_frame_oversized () =
  let rd, wr = Unix.pipe () in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (Frame.max_frame + 1));
  ignore (Unix.write wr hdr 0 4);
  (try
     ignore (Frame.read rd);
     Alcotest.fail "expected Oversized"
   with Frame.Oversized n ->
     Alcotest.(check int) "announced" (Frame.max_frame + 1) n);
  Unix.close wr;
  Unix.close rd

let test_codec_to_bytes_and_blit () =
  let w = Codec.W.create () in
  Codec.W.string w "abc";
  let copy = Bytes.create 16 in
  Bytes.fill copy 0 16 '.';
  Codec.W.blit_into w copy 2;
  Alcotest.(check string) "blitted at offset" "..\x00\x00\x00\x03abc"
    (Bytes.sub_string copy 0 9);
  Alcotest.check_raises "blit range checked"
    (Invalid_argument "Codec.W.blit_into: destination range out of bounds")
    (fun () -> Codec.W.blit_into w copy 10);
  let b = Codec.W.to_bytes w in
  Alcotest.(check string) "to_bytes" "\x00\x00\x00\x03abc" (Bytes.to_string b);
  (* The writer stays usable after [to_bytes] (buffer may be handed off). *)
  Codec.W.reset w;
  Codec.W.u8 w 7;
  Alcotest.(check string) "reusable" "\x07" (Bytes.to_string (Codec.W.to_bytes w))

let test_codec_writer_pool () =
  let b1 =
    Codec.W.with_pool (fun w ->
        Codec.W.string w "pooled";
        Codec.W.to_bytes w)
  in
  Alcotest.(check string) "first use" "\x00\x00\x00\x06pooled"
    (Bytes.to_string b1);
  (* A reused writer starts empty: no residue from the previous user. *)
  let b2 = Codec.W.with_pool (fun w -> Codec.W.to_bytes w) in
  Alcotest.(check int) "reused writer empty" 0 (Bytes.length b2)

let test_frame_write_many () =
  let rd, wr = Unix.pipe () in
  let payloads =
    [ Bytes.of_string "alpha"; Bytes.empty; Bytes.of_string "bb" ]
  in
  let writer = Thread.create (fun () -> Frame.write_many wr payloads) () in
  let got = List.map (fun _ -> Option.get (Frame.read rd)) payloads in
  Thread.join writer;
  Alcotest.(check (list string)) "frames preserved"
    (List.map Bytes.to_string payloads)
    (List.map Bytes.to_string got);
  Unix.close wr;
  Unix.close rd

(* Read fast-path frames. *)

let mk_read ?(staleness_ns = Client_msg.linearizable) cid seq payload =
  { Client_msg.id = { client_id = cid; seq }; staleness_ns;
    payload = Bytes.of_string payload }

let test_read_roundtrip () =
  let r = mk_read 42 1001 "key" in
  let b = Client_msg.read_to_bytes r in
  Alcotest.(check int) "wire size matches" (Client_msg.read_wire_size r)
    (Bytes.length b);
  Alcotest.(check bool) "equal" true
    (Client_msg.equal_read r (Client_msg.read_of_bytes b));
  let stale = mk_read ~staleness_ns:5_000_000 3 4 "" in
  Alcotest.(check bool) "stale bound survives" true
    (Client_msg.equal_read stale
       (Client_msg.read_of_bytes (Client_msg.read_to_bytes stale)))

let test_read_magic_discriminates () =
  (* [Replica.submit] peeks one i32 to route a frame: reads are marked
     negative, writes always start with a non-negative client id. *)
  let read = Client_msg.read_to_bytes (mk_read 42 1 "k") in
  let write = Client_msg.request_to_bytes (mk_req 42 1 "k") in
  Alcotest.(check bool) "read frame marked" true
    (Client_msg.is_read_raw read);
  Alcotest.(check bool) "write frame unmarked" false
    (Client_msg.is_read_raw write);
  (* A read frame must not decode as a write request. *)
  Alcotest.(check bool) "encodings disjoint" true
    (try
       ignore (Client_msg.request_of_bytes read);
       false
     with Codec.Malformed _ | Codec.Underflow -> true)

let test_read_reply_roundtrip () =
  let rid = { Client_msg.client_id = 7; seq = 9 } in
  let statuses =
    [ Client_msg.Read_ok (Bytes.of_string "value");
      Client_msg.Read_ok Bytes.empty;
      Client_msg.Not_leaseholder 2;
      Client_msg.Not_leaseholder (-1);
      Client_msg.Too_stale 0;
      Client_msg.Read_unsupported ]
  in
  List.iter
    (fun status ->
       let rep = { Client_msg.rid; status } in
       let b = Client_msg.read_reply_to_bytes rep in
       Alcotest.(check bool) "reply frame marked" true
         (Bytes.get_int32_be b 0 = Int32.of_int Client_msg.read_reply_magic);
       Alcotest.(check bool) "round-trips" true
         (Client_msg.equal_read_reply rep (Client_msg.read_reply_of_bytes b)))
    statuses

let prop_read_roundtrip =
  QCheck.Test.make ~name:"client read codec round-trip" ~count:300
    QCheck.(quad small_nat small_nat (int_range (-1) 1_000_000) string)
    (fun (cid, seq, bound, payload) ->
       let r = mk_read ~staleness_ns:bound cid seq payload in
       Client_msg.equal_read r
         (Client_msg.read_of_bytes (Client_msg.read_to_bytes r)))

(* Decoder fuzzing: every decoder either returns or rejects its input
   with [Codec.Malformed] / [Codec.Underflow] — never another exception —
   on random bytes and on bit-flipped or truncated valid encodings. The
   MSMR_QCHECK_COUNT environment variable raises the iteration count. *)

let fuzz_count =
  match Sys.getenv_opt "MSMR_QCHECK_COUNT" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 10000)
  | None -> 10000

let valid_encodings =
  let module Msg = Msmr_consensus.Msg in
  let module Value = Msmr_consensus.Value in
  let batch =
    Value.Batch
      { Msmr_consensus.Batch.bid = { src = 1; num = 7 };
        requests = [ mk_req 3 4 "put k v"; mk_req 5 6 "" ] }
  in
  let reconfig =
    Value.Reconfig
      (Msmr_consensus.Membership.make ~epoch:2 ~voters:[ 0; 1; 2 ]
         ~learners:[ 3 ])
  in
  let entry e_iid e_value =
    { Msg.e_iid; e_view = 1; e_value; e_decided = e_iid mod 2 = 0 }
  in
  let entries = [ entry 4 batch; entry 5 Value.Noop; entry 6 reconfig ] in
  List.map Msg.encode
    [ Msg.Prepare { view = 3; from_iid = 10 };
      Msg.Prepare_ok { view = 3; first_undecided = 4; entries };
      Msg.Accept { view = 3; iid = 11; value = batch };
      Msg.Accept { view = 3; iid = 12; value = reconfig };
      Msg.Accepted { view = 3; iid = 11 };
      Msg.Decide { view = 3; iid = 11 };
      Msg.Catchup_query { from_iid = 1; to_iid = 9 };
      Msg.Catchup_reply
        { entries; snapshot = Some (7, Bytes.of_string "state") };
      Msg.Heartbeat { view = 3; first_undecided = 12 };
      Msg.Lease_ping { view = 3; t0_ns = 123_456 };
      Msg.Lease_grant { view = 3; t0_ns = 123_456 } ]
  @ [ Client_msg.request_to_bytes (mk_req 42 1001 "payload");
      Client_msg.reply_to_bytes
        { Client_msg.id = { client_id = 7; seq = 9 };
          result = Bytes.of_string "ok" };
      Client_msg.read_to_bytes (mk_read ~staleness_ns:5_000_000 3 4 "key");
      Client_msg.read_reply_to_bytes
        { Client_msg.rid = { client_id = 3; seq = 4 };
          status = Client_msg.Read_ok (Bytes.of_string "v") };
      Client_msg.read_reply_to_bytes
        { Client_msg.rid = { client_id = 3; seq = 4 };
          status = Client_msg.Not_leaseholder 2 } ]

(* Random bytes, or a valid encoding with a few mutations — a bit
   flipped, a byte overwritten, or an extreme 32-bit value (the shape of
   a corrupt length or count field) written in place — possibly cut
   short. *)
let fuzz_input =
  let extremes = [| -1l; Int32.min_int; Int32.max_int; 0l; 0x1_0000l |] in
  let mutate b (pos, v, kind) =
    let len = Bytes.length b in
    let pos = pos mod len in
    match kind with
    | 0 -> Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor (1 lsl (v mod 8)))
    | 1 -> Bytes.set_uint8 b pos v
    | _ ->
      if pos + 4 <= len then
        Bytes.set_int32_be b pos extremes.(v mod Array.length extremes)
  in
  let mutated =
    QCheck.Gen.(
      map
        (fun (i, muts, cut) ->
           let b = Bytes.copy (List.nth valid_encodings i) in
           List.iter (mutate b) muts;
           match cut with
           | Some k -> Bytes.sub b 0 (k mod (Bytes.length b + 1))
           | None -> b)
        (triple
           (int_bound (List.length valid_encodings - 1))
           (list_size (int_range 1 3)
              (triple (int_bound 1_000_000) (int_bound 255) (int_bound 2)))
           (opt (int_bound 1_000_000))))
  in
  QCheck.make
    ~print:(fun b -> String.escaped (Bytes.to_string b))
    QCheck.Gen.(
      oneof [ map Bytes.of_string (string_size (int_bound 64)); mutated ])

let decoders =
  [ (fun b -> ignore (Msmr_consensus.Msg.decode b));
    (fun b -> ignore (Client_msg.request_of_bytes b));
    (fun b -> ignore (Client_msg.reply_of_bytes b));
    (fun b -> ignore (Client_msg.read_of_bytes b));
    (fun b -> ignore (Client_msg.read_reply_of_bytes b)) ]

let prop_decoders_reject_cleanly =
  QCheck.Test.make ~name:"decoders return or raise Malformed/Underflow"
    ~count:fuzz_count fuzz_input (fun b ->
      List.iter
        (fun decode ->
           try decode b with Codec.Malformed _ | Codec.Underflow -> ())
        decoders;
      true)

(* Arbitrary bytes on a pipe: [Frame.read] yields frames until a clean
   [None], or gives up with [End_of_file] / [Frame.Oversized]. The input
   stays below the pipe buffer, so the write never blocks. *)
let prop_frame_read_rejects_cleanly =
  QCheck.Test.make ~name:"frame read: frames, None, End_of_file or Oversized"
    ~count:fuzz_count fuzz_input (fun b ->
      let rd, wr = Unix.pipe () in
      Fun.protect
        ~finally:(fun () -> Unix.close rd)
        (fun () ->
           ignore (Unix.write wr b 0 (Bytes.length b));
           Unix.close wr;
           let rec drain () =
             match Frame.read rd with
             | Some _ -> drain ()
             | None -> ()
             | exception (End_of_file | Frame.Oversized _) -> ()
           in
           drain ();
           true))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_codec_string_roundtrip; prop_request_roundtrip; prop_read_roundtrip;
      prop_decoders_reject_cleanly; prop_frame_read_rejects_cleanly ]

let suite =
  [
    Alcotest.test_case "codec: int round-trip" `Quick test_codec_roundtrip_ints;
    Alcotest.test_case "codec: strings" `Quick test_codec_strings;
    Alcotest.test_case "codec: underflow" `Quick test_codec_underflow;
    Alcotest.test_case "codec: trailing bytes" `Quick test_codec_trailing;
    Alcotest.test_case "codec: bad bool" `Quick test_codec_bad_bool;
    Alcotest.test_case "codec: i32 range" `Quick test_codec_i32_range;
    Alcotest.test_case "client: request round-trip" `Quick test_request_roundtrip;
    Alcotest.test_case "client: request wire size" `Quick test_request_wire_size;
    Alcotest.test_case "client: reply round-trip" `Quick test_reply_roundtrip;
    Alcotest.test_case "frame: round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame: eof mid-frame" `Quick test_frame_eof_mid_frame;
    Alcotest.test_case "frame: oversized" `Quick test_frame_oversized;
    Alcotest.test_case "codec: to_bytes/blit_into" `Quick
      test_codec_to_bytes_and_blit;
    Alcotest.test_case "codec: writer pool" `Quick test_codec_writer_pool;
    Alcotest.test_case "frame: write_many" `Quick test_frame_write_many;
    Alcotest.test_case "client: read round-trip" `Quick test_read_roundtrip;
    Alcotest.test_case "client: read magic discriminates" `Quick
      test_read_magic_discriminates;
    Alcotest.test_case "client: read reply round-trip" `Quick
      test_read_reply_roundtrip;
  ]
  @ qsuite
