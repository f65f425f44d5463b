(* M1 — bechamel micro-benchmarks of the core data structures and
   codecs: per-operation costs underneath every experiment. *)

open Bechamel
open Toolkit

let pdu =
  Rina_core.Pdu.make ~pdu_type:Rina_core.Pdu.Dtp ~dst_addr:42 ~src_addr:7
    ~dst_cep:3 ~src_cep:9 ~qos_id:1 ~seq:12345 (Bytes.make 1200 'x')

(* The data-path calls: a sender's one-allocation encode, a full reseal,
   the relay's ingress check, the relay's one-byte TTL patch (which
   flips the byte every call, so it never takes the no-op shortcut) and
   the destination's decode. *)
let bench_encode_frame =
  Test.make ~name:"pdu_encode_frame_1200B"
    (Staged.stage (fun () -> Rina_core.Pdu.encode_frame pdu))

let sealed_frame = Rina_core.Pdu.encode_frame pdu

let body_len = Bytes.length sealed_frame - Rina_core.Sdu_protection.overhead

let bench_crc32 =
  Test.make ~name:"crc32_1200B"
    (Staged.stage (fun () ->
         Rina_core.Sdu_protection.crc32_sub sealed_frame ~pos:0 ~len:body_len))

let bench_decode_sub =
  Test.make ~name:"pdu_decode_sub_1200B"
    (Staged.stage (fun () -> Rina_core.Pdu.decode_sub sealed_frame ~len:body_len))

let bench_seal =
  Test.make ~name:"sdu_seal_1200B"
    (Staged.stage (fun () -> Rina_core.Sdu_protection.seal sealed_frame))

let bench_verify_len =
  Test.make ~name:"sdu_verify_len_1200B"
    (Staged.stage (fun () -> Rina_core.Sdu_protection.verify_len sealed_frame))

let bench_set_byte =
  let pos = Rina_core.Pdu.ttl_offset in
  Test.make ~name:"sdu_set_byte_1200B"
    (Staged.stage (fun () ->
         Rina_core.Sdu_protection.set_byte sealed_frame ~pos
           (Bytes.get_uint8 sealed_frame pos lxor 1)))

let lsdb =
  let db = Rina_core.Routing.create () in
  let n = 100 in
  for origin = 1 to n do
    let neighbors =
      List.filter_map
        (fun d ->
          let peer = origin + d in
          if peer >= 1 && peer <= n && peer <> origin then Some (peer, 1.0) else None)
        [ -2; -1; 1; 2 ]
    in
    ignore
      (Rina_core.Routing.install db { Rina_core.Routing.Lsa.origin; seq = 1; neighbors })
  done;
  db

let bench_spf_100 =
  Test.make ~name:"dijkstra_spf_100_nodes"
    (Staged.stage (fun () -> Rina_core.Routing.spf lsdb ~source:1))

(* The mobility_churn cell: a hub, two base stations and 60 handsets
   homed on both, so each base station's LSA lists 61 neighbours.  SPF
   runs from a handset, as it does on most members of the cell. *)
let cell_lsdb, cell_source =
  let db = Rina_core.Routing.create () in
  let install origin peers =
    let neighbors = List.map (fun a -> (a, 1.0)) peers in
    ignore (Rina_core.Routing.install db { Rina_core.Routing.Lsa.origin; seq = 1; neighbors })
  in
  let hub = 1 and bs1 = 2 and bs2 = 3 in
  let handsets = List.init 60 (fun i -> 4 + i) in
  install hub [ bs1; bs2 ];
  install bs1 (hub :: handsets);
  install bs2 (hub :: handsets);
  List.iter (fun h -> install h [ bs1; bs2 ]) handsets;
  (db, List.hd handsets)

let bench_spf_cell =
  Test.make ~name:"spf_cell_63_nodes"
    (Staged.stage (fun () -> Rina_core.Routing.spf cell_lsdb ~source:cell_source))

let bench_spf_cell_ecmp =
  Test.make ~name:"spf_ecmp_cell_63_nodes"
    (Staged.stage (fun () ->
         Rina_core.Routing.shortest_paths cell_lsdb ~source:cell_source ~ecmp:true))

let lpm =
  let t = Tcpip.Lpm.create () in
  for i = 0 to 255 do
    Tcpip.Lpm.insert t (Tcpip.Ip.prefix (Tcpip.Ip.addr_of_octets 10 i 0 0) 16) i
  done;
  t

let bench_lpm_lookup =
  let addr = Tcpip.Ip.addr_of_string "10.77.1.2" in
  Test.make ~name:"lpm_lookup_256_routes"
    (Staged.stage (fun () -> Tcpip.Lpm.lookup lpm addr))

let bench_heap =
  Test.make ~name:"heap_push_pop_x100"
    (Staged.stage (fun () ->
         let h = Rina_util.Heap.create () in
         for i = 0 to 99 do
           Rina_util.Heap.push h (float_of_int ((i * 37) mod 100)) i
         done;
         while not (Rina_util.Heap.is_empty h) do
           ignore (Rina_util.Heap.pop h)
         done))

(* The event queue as the engine sees it: ~300 pending events (the
   mobility_churn mean), each step pops the earliest and schedules a
   successor a little later. *)
let bench_heap_depth300 =
  let h = Rina_util.Heap.create () in
  for i = 0 to 299 do
    Rina_util.Heap.push h (float_of_int ((i * 37) mod 300)) i
  done;
  Test.make ~name:"heap_push_pop_x100_depth300"
    (Staged.stage (fun () ->
         for i = 0 to 99 do
           let now = Rina_util.Heap.top_key h and v = Rina_util.Heap.top_value h in
           Rina_util.Heap.drop_min h;
           Rina_util.Heap.push h (now +. float_of_int (1 + ((i * 37) mod 300))) v
         done))

(* One per-PDU counter bump in a registry holding an RMT's dozen
   names: by string name (hash + lookup) and through a handle. *)
let metrics_registry =
  let m = Rina_util.Metrics.create () in
  List.iter (Rina_util.Metrics.incr m)
    [ "sent"; "sent_port1"; "sent_port2"; "relayed"; "delivered_up"; "queue_dropped";
      "ecn_marked"; "no_route"; "ttl_expired"; "crc_dropped"; "decode_dropped";
      "ingress_dropped" ];
  m

let bench_metrics_by_name =
  Test.make ~name:"metrics_incr_by_name"
    (Staged.stage (fun () -> Rina_util.Metrics.incr metrics_registry "relayed"))

let bench_metrics_handle =
  let c = Rina_util.Metrics.counter metrics_registry "relayed" in
  Test.make ~name:"metrics_bump_handle"
    (Staged.stage (fun () -> Rina_util.Metrics.bump c))

(* Per-flow setup: one EFCP instance under the default policy and under
   R3's (= lossy_incast's) policy, whose 1024-slot dup cache only an
   unreliable unordered flow builds. *)
let bench_efcp_create name config =
  let engine = Rina_sim.Engine.create () in
  Test.make ~name
    (Staged.stage (fun () ->
         Rina_core.Efcp.create engine ~config ~in_order:true ~local_cep:1
           ~remote_cep:2 ~qos_id:1
           ~send_pdu:(fun _ -> 0)
           ~deliver:(fun _ -> ())
           ~on_error:(fun _ -> ())
           ()))

let bench_efcp_create_default =
  bench_efcp_create "efcp_create_default" Rina_core.Policy.default_efcp

let bench_efcp_create_incast =
  bench_efcp_create "efcp_create_incast_policy"
    Exp_r3.congestion_policy.Rina_core.Policy.efcp

let bench_engine =
  Test.make ~name:"engine_schedule_run_x100"
    (Staged.stage (fun () ->
         let e = Rina_sim.Engine.create () in
         for i = 0 to 99 do
           ignore
             (Rina_sim.Engine.schedule e ~delay:(float_of_int i *. 0.001) (fun () -> ()))
         done;
         Rina_sim.Engine.run e))

let bench_rib =
  Test.make ~name:"rib_write_read_x100"
    (Staged.stage (fun () ->
         let rib = Rina_core.Rib.create () in
         for i = 0 to 99 do
           Rina_core.Rib.write rib
             (Printf.sprintf "/dir/app-%d" i)
             (Rina_core.Rib.V_int i)
         done;
         for i = 0 to 99 do
           ignore (Rina_core.Rib.read rib (Printf.sprintf "/dir/app-%d" i))
         done))

let benchmarks =
  Test.make_grouped ~name:"micro"
    [
      bench_crc32;
      bench_encode_frame;
      bench_seal;
      bench_verify_len;
      bench_set_byte;
      bench_decode_sub;
      bench_metrics_by_name;
      bench_metrics_handle;
      bench_spf_100;
      bench_spf_cell;
      bench_spf_cell_ecmp;
      bench_lpm_lookup;
      bench_heap;
      bench_heap_depth300;
      bench_engine;
      bench_efcp_create_default;
      bench_efcp_create_incast;
      bench_rib;
    ]

let run () =
  print_endline "== M1: micro-benchmarks (bechamel; monotonic clock ns/op) ==";
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let raw =
    Benchmark.all cfg Instance.[ monotonic_clock ] benchmarks
  in
  let results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "%-32s %12.1f ns/op\n" name est
      | Some _ | None -> Printf.printf "%-32s (no estimate)\n" name)
    results;
  print_newline ()
