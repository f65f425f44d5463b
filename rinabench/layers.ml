(* Benchmark-timed calls into single layers, at the workload's own
   sizes: CRC sealing, frame encode/decode and SPF on the trial's own
   link-state database.  Each figure is the median of five timed
   batches. *)

module Pdu = Rina_core.Pdu
module Sdu_protection = Rina_core.Sdu_protection
module Routing = Rina_core.Routing
module Ipcp = Rina_core.Ipcp
module Dif = Rina_core.Dif

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* ns per call of [f], median of five batches of [iters] calls *)
let ns_per_call ~iters f =
  median
    (List.init 5 (fun _ ->
         let t0 = Span.monotonic_ns () in
         for _ = 1 to iters do
           f ()
         done;
         float_of_int (Span.monotonic_ns () - t0) /. float_of_int iters))

let frame size =
  Pdu.encode_frame
    (Pdu.make ~pdu_type:Pdu.Dtp ~dst_addr:2 ~src_addr:1 ~dst_cep:1 ~src_cep:1 ~seq:7
       (Bytes.make size 'x'))

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let iters_for bytes = max 200 (400_000 / max 1 bytes)

let seal_ns_per_byte sizes =
  mean
    (List.map
       (fun size ->
         let f = frame size in
         let n = Bytes.length f in
         ns_per_call ~iters:(iters_for n) (fun () -> Sdu_protection.seal f) /. float_of_int n)
       sizes)

let encode_frame_ns sizes =
  mean
    (List.map
       (fun size ->
         let pdu =
           Pdu.make ~pdu_type:Pdu.Dtp ~dst_addr:2 ~src_addr:1 ~seq:7 (Bytes.make size 'x')
         in
         ns_per_call ~iters:(iters_for size) (fun () -> ignore (Pdu.encode_frame pdu)))
       sizes)

let decode_header_ns sizes =
  mean
    (List.map
       (fun size ->
         let f = frame size in
         let len = Bytes.length f - Sdu_protection.overhead in
         ns_per_call ~iters:(iters_for 64) (fun () -> ignore (Pdu.decode_header f ~len)))
       sizes)

(* The DIF's link-state database as its members see it now, rebuilt
   from each member's address and live adjacencies; one SPF from the
   first member, in microseconds. *)
let spf_us dif =
  let db = Routing.create () in
  let members = List.filter Ipcp.is_enrolled (Dif.members dif) in
  List.iter
    (fun m ->
      ignore
        (Routing.install db
           {
             Routing.Lsa.origin = Ipcp.address m;
             seq = 1;
             neighbors = List.map (fun (a, _) -> (a, 1.0)) (Ipcp.neighbors m);
           }))
    members;
  match members with
  | [] -> 0.
  | m :: _ ->
    let source = Ipcp.address m in
    ns_per_call ~iters:50 (fun () -> ignore (Routing.spf db ~source)) /. 1000.
