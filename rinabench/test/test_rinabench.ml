(* The benchmark's own arithmetic and its tracing transparency. *)

open Rinabench

(* A recorder on a hand-driven clock: [at t] sets the time the next
   enter/leave reads. *)
let fake () =
  let now = ref 0 in
  (Span.create ~clock:(fun () -> !now) (), fun t -> now := t)

let self r ?rank l = Span.self_ns r ?rank l

let test_relay_inside_receive () =
  let r, at = fake () in
  (* a frame arrives (rank 0), is relayed onto the next link, and its
     SDU is also handed up to a rank-1 receiver that answers with an
     ack send on its lower flow *)
  at 0;
  let rx = Span.enter r Span.Rx_dtp ~rank:0 ~id:7 in
  at 20;
  let tx = Span.enter r Span.Link_tx ~rank:0 ~id:7 in
  at 50;
  Span.leave r tx;
  at 60;
  let up = Span.enter r Span.Rx_dtp ~rank:1 ~id:9 in
  at 70;
  let ack = Span.enter r Span.Efcp_send ~rank:0 ~id:0 in
  at 85;
  Span.leave r ack;
  at 90;
  Span.leave r up;
  at 100;
  Span.leave r rx;
  Alcotest.(check int) "rank-0 receive self" 40 (self r ~rank:0 Span.Rx_dtp);
  Alcotest.(check int) "rank-1 receive self" 15 (self r ~rank:1 Span.Rx_dtp);
  Alcotest.(check int) "receive self, all ranks" 55 (self r Span.Rx_dtp);
  Alcotest.(check int) "relay send self" 30 (self r Span.Link_tx);
  Alcotest.(check int) "ack send self" 15 (self r Span.Efcp_send);
  Alcotest.(check int) "root covers the receive" 100 (Span.root_ns r);
  Alcotest.(check int) "receive count" 2 (Span.count r Span.Rx_dtp)

let test_send_inside_timer () =
  let r, at = fake () in
  (* an EFCP timer is not a span: its retransmission is a root send
     whose link transmission nests inside it; engine time around the
     two roots belongs to no layer *)
  at 1000;
  let s = Span.enter r Span.Efcp_send ~rank:0 ~id:0 in
  at 1010;
  let l = Span.enter r Span.Link_tx ~rank:0 ~id:3 in
  at 1040;
  Span.leave r l;
  at 1050;
  Span.leave r s;
  at 2000;
  let c = Span.enter r Span.Carrier ~rank:0 ~id:0 in
  at 2005;
  Span.leave r c;
  Alcotest.(check int) "send self" 20 (self r Span.Efcp_send);
  Alcotest.(check int) "link self" 30 (self r Span.Link_tx);
  Alcotest.(check int) "carrier self" 5 (self r Span.Carrier);
  Alcotest.(check int) "roots" 55 (Span.root_ns r);
  let sum = List.fold_left (fun acc l -> acc + self r l) 0 Span.layers in
  Alcotest.(check int) "self times add up to the roots" (Span.root_ns r) sum

let test_span_closes_on_exception () =
  let r, at = fake () in
  at 0;
  (try
     Span.span r Span.App_rx ~rank:0 ~id:0
       (fun () ->
         at 10;
         failwith "boom")
       ()
   with Failure _ -> ());
  Alcotest.(check int) "closed" 10 (self r Span.App_rx);
  at 20;
  Span.span r Span.Link_tx ~rank:0 ~id:0 (fun () -> at 25) ();
  Alcotest.(check int) "next span is a root" 15 (Span.root_ns r)

let test_span_log () =
  let r, at = fake () in
  at 0;
  let a = Span.enter r Span.Rx_dtp ~rank:1 ~id:42 in
  at 3;
  Span.span r Span.Link_tx ~rank:0 ~id:42 (fun () -> at 4) ();
  Span.leave r a;
  let file = "span_log_test.tsv" in
  Out_channel.with_open_text file (Span.write r);
  let lines = In_channel.with_open_text file In_channel.input_all in
  Sys.remove file;
  Alcotest.(check string) "log"
    "index\tname\trank\tspan\tparent\tstart_ns\tend_ns\n\
     0\tipcp.rx_dtp\t1\t42\t-1\t0\t4\n\
     1\tlink.tx\t0\t42\t0\t3\t4\n"
    lines

(* ---------- tracing must not change what is simulated ---------- *)

let tiny =
  [
    Workloads.relay_stream
      {
        Workloads.relay_lan with
        Workloads.hops = 2;
        small_rate = 100e3;
        big_rate = 1e6;
        upper_rate = 200e3;
        relay_window = 0.5;
        relay_drain = 0.5;
      };
    Workloads.mobility_churn
      { Workloads.mobility_default with Workloads.handsets = 3; kill_at = 0.5; mob_window = 1.; mob_drain = 1. };
    Workloads.lossy_incast
      {
        Workloads.incast_default with
        Workloads.senders = 3;
        arrivals = 20.;
        incast_window = 1.;
        incast_drain = 2.;
      };
  ]

let test_traced_equals_untraced (w : Workloads.t) () =
  let plain = Run_trial.run w ~seed:5 ~spans:None in
  let spans = Span.create () in
  let traced = Run_trial.run w ~seed:5 ~spans:(Some spans) in
  Alcotest.(check (list string)) "no violations" [] plain.Run_trial.violations;
  Alcotest.(check (list string)) "no violations traced" [] traced.Run_trial.violations;
  Alcotest.(check string) "same simulated results" plain.Run_trial.digest traced.Run_trial.digest;
  let delivered r = List.assoc "sim_sdus_delivered" r.Run_trial.e2e in
  Alcotest.(check bool) "traffic flowed" true (delivered plain > 0.);
  Alcotest.(check bool) "spans recorded" true (Span.length spans > 0);
  let sum = List.fold_left (fun acc l -> acc + Span.self_ns spans l) 0 Span.layers in
  Alcotest.(check int) "self times add up to the roots" (Span.root_ns spans) sum

let () =
  Alcotest.run "rinabench"
    [
      ( "span",
        [
          Alcotest.test_case "relay inside receive" `Quick test_relay_inside_receive;
          Alcotest.test_case "send inside timer" `Quick test_send_inside_timer;
          Alcotest.test_case "exception closes span" `Quick test_span_closes_on_exception;
          Alcotest.test_case "span log" `Quick test_span_log;
        ] );
      ( "transparency",
        List.map
          (fun (w : Workloads.t) ->
            Alcotest.test_case w.Workloads.name `Quick (test_traced_equals_untraced w))
          tiny );
    ]
