(* Drive one trial of a workload through its phases and collect every
   metric that one trial yields.  The set-up phase ends when traffic
   starts; the traffic phase advances virtual time in fixed slices,
   timing each, through the sending window and the drain. *)

module Engine = Rina_sim.Engine
module Link = Rina_sim.Link
module Metrics = Rina_util.Metrics
module Stats = Rina_util.Stats
module Prng = Rina_util.Prng
module Ipcp = Rina_core.Ipcp

type result = {
  e2e : (string * float) list;
  layer : (string * float) list;
  slices_ms : float array;
  digest : string;  (* of the simulated results only *)
  violations : string list;
}

let ms s = 1000. *. s

let pct stats p = if Stats.count stats = 0 then nan else Stats.percentile stats p

(* Counter sums over the whole trial; traffic-phase figures are the
   difference of two of these. *)
let counters (t : Trial.t) =
  let ipcp = List.map Ipcp.metrics t.Trial.members in
  let rmt = List.map Ipcp.rmt_metrics t.Trial.members in
  let links = List.concat_map (fun l -> [ Link.stats_a l; Link.stats_b l ]) t.Trial.links in
  let flows = t.Trial.efcp in
  let sum ms name = List.fold_left (fun acc m -> acc + Metrics.get m name) 0 ms in
  [
    ("routing.spf_runs", sum ipcp "spf_runs");
    ("routing.lsa_tx", sum ipcp "lsa_tx");
    ("routing.lsa_rx_new", sum ipcp "lsa_rx_new");
    ("riep.mgmt_tx", sum ipcp "mgmt_tx");
    ("riep.mgmt_rx", sum ipcp "mgmt_rx");
    ("rmt.relayed", sum rmt "relayed");
    ("rmt.queue_dropped", sum rmt "queue_dropped");
    ("rmt.ecn_marked", sum rmt "ecn_marked");
    ("link.tx_frames", sum links "tx");
    ("link.tx_bytes", sum links "tx_bytes");
    ( "link.drops",
      sum links "dropped_loss" + sum links "dropped_queue" + sum links "dropped_down" );
    ("efcp.pdus_sent", sum flows "pdus_sent");
    ("efcp.pdus_rtx", sum flows "pdus_rtx");
    ("efcp.fast_rtx", sum flows "fast_rtx");
    ("efcp.rto_fired", sum flows "rto_fired");
    ("efcp.delivered", sum flows "delivered");
  ]

let delta before after =
  List.map2 (fun (k, a) (_, b) -> (k, float_of_int (b - a))) before after

(* The simulated outcome, from the receivers' books. *)
let sim_metrics (w : Workloads.t) (t : Trial.t) =
  let sent = ref 0 and delivered = ref 0 in
  let fct = Stats.create () and gaps = Stats.create () in
  Hashtbl.iter
    (fun _ (f : Trial.flow) ->
      sent := !sent + f.Trial.f_sent;
      delivered := !delivered + f.Trial.f_next;
      if f.Trial.f_next > 1 then Stats.add gaps f.Trial.f_max_gap;
      if not (Float.is_nan f.Trial.f_done) then
        Stats.add fct (f.Trial.f_done -. f.Trial.f_start))
    t.Trial.flows;
  let failed = !sent - !delivered + t.Trial.alloc_failed in
  let attempted = max 1 (!sent + t.Trial.alloc_attempted) in
  let fail_ratio = float_of_int failed /. float_of_int attempted in
  [
    ("sim_goodput_mbps", 8. *. float_of_int t.Trial.bytes /. w.Workloads.window /. 1e6);
    ("sim_latency_p50_ms", ms (pct t.Trial.latency 50.));
    ("sim_latency_p99_ms", ms (pct t.Trial.latency 99.));
    ("sim_fct_p99_ms", ms (pct fct 99.));
    ("sim_blackout_ms", ms (Stats.mean gaps));
    ("sim_delivered_ratio", 1. -. fail_ratio);
    ("fail_ratio", fail_ratio);
    ("sim_sdus_sent", float_of_int !sent);
    ("sim_sdus_delivered", float_of_int !delivered);
  ]

let digest (t : Trial.t) sim counters_end =
  let b = Buffer.create 4096 in
  let flows = Hashtbl.fold (fun id f acc -> (id, f) :: acc) t.Trial.flows [] in
  List.iter
    (fun (id, (f : Trial.flow)) ->
      Printf.bprintf b "%d:%d:%d:%h:%h;" id f.Trial.f_sent f.Trial.f_next f.Trial.f_max_gap
        f.Trial.f_done)
    (List.sort compare flows);
  List.iter (fun (k, v) -> Printf.bprintf b "%s=%h;" k v) sim;
  List.iter (fun (k, v) -> Printf.bprintf b "%s=%d;" k v) counters_end;
  Printf.bprintf b "events=%d;now=%h;lat=%h" (Engine.executed t.Trial.engine)
    (Engine.now t.Trial.engine) (Stats.total t.Trial.latency);
  Digest.to_hex (Digest.string (Buffer.contents b))

let span_metrics spans ~traffic_ns =
  let self l = float_of_int (Span.self_ns spans l) in
  let count l = float_of_int (Span.count spans l) in
  let per l = if count l = 0. then 0. else self l /. count l in
  List.concat_map
    (fun l ->
      let n = Span.layer_name l in
      [
        (n ^ "_self_ms", self l /. 1e6);
        (n ^ "_self_share", self l /. float_of_int traffic_ns);
        (n ^ "_count", count l);
      ])
    Span.layers
  @ [
      ("ipcp.rx_dtp_ns_per_frame", per Span.Rx_dtp);
      ("efcp.send_ns_per_sdu", per Span.Efcp_send);
      ("engine.self_ms", float_of_int (traffic_ns - Span.root_ns spans) /. 1e6);
      ("trace.spans", float_of_int (Span.length spans));
    ]

(* Set-up is repeated (fresh engine, same seed, so the same work) until
   [setup_floor_ns] of wall time is spent or [max_setups] are done, and
   its median is reported: a set-up of a few milliseconds is otherwise
   at the mercy of the host.  The last repeat carries the traffic. *)
let setup_floor_ns = 200_000_000

let max_setups = 25

let median_int xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let rec set_up (w : Workloads.t) ~seed ~spans times =
  let start_ns = Span.monotonic_ns () in
  let engine = Engine.create () in
  let t = Trial.create ?spans engine in
  let start = w.Workloads.setup t (Prng.create seed) in
  let times = (Span.monotonic_ns () - start_ns) :: times in
  if List.fold_left ( + ) 0 times >= setup_floor_ns || List.length times >= max_setups then
    (engine, t, start, times)
  else set_up w ~seed ~spans times

let run (w : Workloads.t) ~seed ~spans =
  let engine, t, start, setups = set_up w ~seed ~spans [] in
  let setup_ns = median_int setups in
  (* traffic phase *)
  Option.iter Span.reset spans;
  let c0 = counters t in
  let gc0 = Gc.quick_stat () and alloc0 = Gc.allocated_bytes () in
  let ev0 = Engine.executed engine and delivered0 = t.Trial.delivered in
  let traffic_start = Span.monotonic_ns () in
  let t0 = Engine.now engine in
  start ~t0;
  let n = int_of_float (Float.round ((w.Workloads.window +. w.Workloads.drain) /. w.Workloads.slice)) in
  let slices_ms = Array.make n 0. in
  let queue_max = ref 0 in
  for k = 1 to n do
    let s0 = Span.monotonic_ns () in
    Engine.run ~until:(t0 +. (float_of_int k *. w.Workloads.slice)) engine;
    slices_ms.(k - 1) <- float_of_int (Span.monotonic_ns () - s0) /. 1e6;
    List.iter
      (fun l -> queue_max := max !queue_max (max (Link.queue_depth_a l) (Link.queue_depth_b l)))
      t.Trial.links
  done;
  let traffic_ns = Span.monotonic_ns () - traffic_start in
  let gc1 = Gc.quick_stat () and alloc1 = Gc.allocated_bytes () in
  let peak_heap_mb = float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  let c1 = counters t in
  let d = delta c0 c1 in
  let get k = List.assoc k d in
  let events = Engine.executed engine - ev0 in
  let traffic_s = float_of_int traffic_ns /. 1e9 in
  let sdus = t.Trial.delivered - delivered0 in
  let sim = sim_metrics w t in
  let e2e =
    [
      ("setup_s", float_of_int setup_ns /. 1e9);
      ("setup_repeats", float_of_int (List.length setups));
      ("traffic_s", traffic_s);
      ("sdu_per_s", float_of_int sdus /. traffic_s);
      ("peak_heap_mb", peak_heap_mb);
    ]
    @ sim
  in
  let rmt_hwm =
    List.fold_left
      (fun acc m -> Float.max acc (Metrics.gauge (Ipcp.rmt_metrics m) "queue_hwm"))
      0. t.Trial.members
  in
  let useful =
    let tried = get "efcp.pdus_sent" +. get "efcp.pdus_rtx" in
    if tried = 0. then 0. else get "efcp.delivered" /. tried
  in
  let setup_count k = float_of_int (List.assoc k c0) in
  let layer =
    d
    @ [
        ("routing.spf_runs_setup", setup_count "routing.spf_runs");
        ("riep.mgmt_tx_setup", setup_count "riep.mgmt_tx");
        ("efcp.useful_ratio", useful);
        ("link.queue_max", float_of_int !queue_max);
        ("rmt.queue_hwm", rmt_hwm);
        ("ipcp.converge_ms", ms t.Trial.converge_s);
        ("ipcp.alloc_setup_share", t.Trial.alloc_s *. 1e9 /. float_of_int (List.hd setups));
        ("ipcp.alloc_latency_p99_ms", ms (pct t.Trial.alloc_latency 99.));
        ("ipcp.alloc_failed", float_of_int t.Trial.alloc_failed);
        ("engine.events", float_of_int events);
        ("engine.ns_per_event", float_of_int traffic_ns /. float_of_int (max 1 events));
        ("gc.alloc_B_per_sdu", (alloc1 -. alloc0) /. float_of_int (max 1 sdus));
        ( "gc.minor_collections",
          float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections) );
        ( "gc.major_collections",
          float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
      ]
    @
    match spans with
    | None -> []
    | Some s ->
      let sizes = t.Trial.sdu_sizes in
      let seal = Layers.seal_ns_per_byte sizes in
      let spf_us = match t.Trial.dif with Some dif -> Layers.spf_us dif | None -> 0. in
      span_metrics s ~traffic_ns
      @ [
          ("sdu_protection.seal_ns_per_B", seal);
          ("sdu_protection.est_ms", seal *. get "link.tx_bytes" /. 1e6);
          ("pdu.encode_frame_ns", Layers.encode_frame_ns sizes);
          ("pdu.decode_header_ns", Layers.decode_header_ns sizes);
          ("routing.spf_us", spf_us);
          ("routing.spf_est_ms", spf_us *. get "routing.spf_runs" /. 1000.);
        ]
  in
  {
    e2e;
    layer;
    slices_ms;
    digest = digest t sim c1;
    violations = List.rev t.Trial.violations;
  }
