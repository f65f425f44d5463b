(* The three workloads.  Each builds its topology through the public
   API only ([Engine], [Link], [Chan], [Dif], [Ipcp], [Workload]),
   hands every channel to [Dif.connect] through [Trial.connect] (so a
   traced run can wrap it), and is open-loop in virtual time: CBR
   ticks and Poisson arrivals fire on schedule whatever the backlog. *)

module Engine = Rina_sim.Engine
module Link = Rina_sim.Link
module Loss = Rina_sim.Loss
module Prng = Rina_util.Prng
module Ipcp = Rina_core.Ipcp
module Dif = Rina_core.Dif
module Types = Rina_core.Types
module Policy = Rina_core.Policy
module Workload = Rina_exp.Workload

type t = {
  name : string;
  window : float;  (* virtual seconds of offered traffic *)
  drain : float;  (* virtual seconds after it for stragglers *)
  slice : float;  (* virtual seconds per wall-time sample *)
  setup : Trial.t -> Prng.t -> t0:float -> unit;
      (* topology, enrollment, convergence, up-front allocations; the
         result schedules the load from virtual time [t0] *)
}

let register node name on_flow = Ipcp.register_app node (Types.apn name) ~on_flow

let some = function Some x -> x | None -> failwith "flow not allocated"

(* ---------- relay_stream: the data path ---------- *)

type relay = {
  relay_name : string;
  hops : int;
  link_rate : float;
  delay : float;
  small_rate : float;  (* 64 B SDUs: per-PDU cost dominates *)
  big_rate : float;  (* 1200 B SDUs: per-byte CRC dominates *)
  upper_rate : float;  (* the rank-1 flow, 1000 B SDUs *)
  relay_window : float;
  relay_drain : float;
}

(* 2 ms links put the 5-hop round trip (about 20.5 ms) right at
   EFCP's 20 ms minimum RTO: the known-defect configuration. *)
let relay_default =
  {
    relay_name = "relay_stream";
    hops = 5;
    link_rate = 100e6;
    delay = 0.002;
    small_rate = 800e3;
    big_rate = 12e6;
    upper_rate = 2e6;
    relay_window = 10.;
    relay_drain = 5.;
  }

(* The same line at LAN scale: a 5 ms round trip, far below the
   minimum RTO, so the data path runs clean and steady. *)
let relay_lan = { relay_default with relay_name = "relay_lan"; delay = 0.0005 }

(* Propagation delay of one link: nominal within +-2%, seeded. *)
let jitter rng d = d *. (0.98 +. Prng.float rng 0.04)

let small_sdu = 64
let big_sdu = 1200
let upper_sdu = 1000

let relay_stream p =
  let setup (t : Trial.t) rng =
    let streams = ref [] in
    let dif = Dif.create t.Trial.engine "line" in
    t.Trial.dif <- Some dif;
    t.Trial.sdu_sizes <- [ small_sdu; big_sdu; upper_sdu ];
    let nodes =
      Array.init (p.hops + 1) (fun i -> Trial.member t dif (Printf.sprintf "n%d" i))
    in
    for i = 0 to p.hops - 1 do
      Trial.connect t dif nodes.(i) nodes.(i + 1)
        (Trial.link t rng ~bit_rate:p.link_rate ~delay:(jitter rng p.delay) ())
    done;
    Trial.converge t dif ~max_time:60.;
    let a = nodes.(0) and b = nodes.(p.hops) in
    register a "sink-a" (Trial.sink t ~rank:0);
    register b "sink-b" (Trial.sink t ~rank:0);
    (* The rank-1 DIF, by hand: one reliable rank-0 flow end to end,
       each end repackaged as the (N-1) channel of an upper member. *)
    let upper = Dif.create t.Trial.engine ~rank:1 "upper" in
    let ua = Trial.member t upper "ua" and ub = Trial.member t upper "ub" in
    let lower_a = ref None and lower_b = ref None in
    register b "ub" (fun f ->
        t.Trial.efcp <- f.Ipcp.flow_metrics () :: t.Trial.efcp;
        lower_b := Some f);
    Trial.alloc_phase t ~limit:30. ~expected:1 (fun () ->
        Trial.allocate t a ~src:"ua" ~dst:"ub" (fun f -> lower_a := Some f));
    let wrap node f =
      Wrap.chan t.Trial.spans ~rank:1 ~tx:Span.Efcp_send
        (Ipcp.chan_of_flow node (some !f))
    in
    Dif.connect upper ua ub (wrap a lower_a, wrap b lower_b);
    Trial.converge t upper ~max_time:60.;
    register ub "sink-u" (Trial.sink t ~rank:1);
    let flows =
      [
        (a, "sink-b", 0, small_sdu, p.small_rate);
        (a, "sink-b", 0, big_sdu, p.big_rate);
        (b, "sink-a", 0, small_sdu, p.small_rate);
        (b, "sink-a", 0, big_sdu, p.big_rate);
        (ua, "sink-u", 1, upper_sdu, p.upper_rate);
      ]
    in
    Trial.alloc_phase t ~limit:30. ~expected:(List.length flows) (fun () ->
        List.iteri
          (fun id (node, dst, rank, size, rate) ->
            Trial.allocate t node ~src:(Printf.sprintf "src%d" id) ~dst (fun f ->
                streams := (f, id, rank, size, rate) :: !streams))
          flows);
    fun ~t0 ->
      List.iter
        (fun (f, id, rank, size, rate) ->
          let interval = float_of_int (8 * size) /. rate in
          Trial.cbr t (Trial.send t ~rank f) ~id
            ~start:(t0 +. Prng.float rng interval)
            ~until:(t0 +. p.relay_window) ~rate ~size)
        (List.sort (fun (_, a, _, _, _) (_, b, _, _, _) -> compare a b) !streams)
  in
  { name = p.relay_name; window = p.relay_window; drain = p.relay_drain; slice = 0.01; setup }

(* ---------- mobility_churn: the control plane ---------- *)

type mobility = {
  handsets : int;
  up_rate : float;
  kill_at : float;  (* virtual seconds into the traffic phase *)
  mob_window : float;
  mob_drain : float;
}

let mobility_default =
  { handsets = 60; up_rate = 64e3; kill_at = 4.; mob_window = 10.; mob_drain = 5. }

let up_sdu = 200

(* R4's cell: carrier-driven failover with a calm probe cadence, LSA
   refresh off (routing traffic measures the moves alone), EFCP that
   persists across the handoff. *)
let cell_policy =
  let d = Policy.default in
  {
    d with
    Policy.efcp =
      { d.Policy.efcp with Policy.init_rto = 0.3; min_rto = 0.05; max_rtx = 100_000 };
    multipath =
      { Policy.default_multipath with Policy.probe_interval = 0.2; reprobe_backoff = 0.1 };
    routing = { Policy.default_routing with Policy.refresh_ticks = 0 };
  }

let mobility_churn p =
  let setup (t : Trial.t) rng =
    let uploads = ref [] and radios1 = ref [] in
    let dif = Dif.create t.Trial.engine ~policy:cell_policy "cell" in
    t.Trial.dif <- Some dif;
    t.Trial.sdu_sizes <- [ up_sdu ];
    (* the enrollment-time floods are load-bearing with refresh off:
       cell links queue deep enough for the one-time crush.  Delays are
       fixed: seeded ones make enrollment's SPF storm, and with it the
       heap, swing by half between seeds. *)
    let link bit_rate = Trial.link t rng ~bit_rate ~delay:0.002 ~queue_capacity:1024 () in
    let hub = Trial.member t dif "hub" in
    let bs1 = Trial.member t dif "bs1" and bs2 = Trial.member t dif "bs2" in
    Trial.connect t dif hub bs1 (link 100e6);
    Trial.connect t dif hub bs2 (link 100e6);
    let handsets =
      Array.init p.handsets (fun i ->
          let m = Trial.member t dif (Printf.sprintf "m%03d" i) in
          let r1 = link 20e6 and r2 = link 20e6 in
          Trial.connect t dif bs1 m r1;
          Trial.connect t dif bs2 m r2;
          radios1 := r1 :: !radios1;
          m)
    in
    Trial.converge t dif ~max_time:600.;
    register hub "hub-sink" (Trial.sink t ~rank:0);
    (* staggered requests, in a seeded order, 20 ms apart *)
    let order = Array.init p.handsets Fun.id in
    Prng.shuffle rng order;
    Trial.alloc_phase t ~limit:60. ~expected:p.handsets (fun () ->
        Array.iteri
          (fun slot i ->
            ignore
              (Engine.schedule t.Trial.engine ~delay:(0.02 *. float_of_int slot) (fun () ->
                   Trial.allocate t handsets.(i) ~src:(Printf.sprintf "up%03d" i)
                     ~dst:"hub-sink" (fun f -> uploads := (f, i) :: !uploads))))
          order);
    fun ~t0 ->
      List.iter
        (fun (f, id) ->
          (* 150-250 B, 200 B on average *)
          let size = up_sdu - 50 + Prng.int rng 101 in
          Trial.cbr t (Trial.send t ~rank:0 f) ~id
            ~start:(t0 +. Prng.float rng 1.0)
            ~until:(t0 +. p.mob_window) ~rate:p.up_rate ~size)
        (List.sort (fun (_, a) (_, b) -> compare a b) !uploads);
      (* every handset loses its bs1 radio in the same instant *)
      ignore
        (Engine.schedule_at t.Trial.engine ~time:(t0 +. p.kill_at) (fun () ->
             List.iter (fun l -> Link.set_up l false) !radios1))
  in
  { name = "mobility_churn"; window = p.mob_window; drain = p.mob_drain; slice = 0.01; setup }

(* ---------- lossy_incast: loss recovery, queueing, flow setup ---------- *)

type incast = {
  senders : int;
  bottleneck : float;
  loss : float;  (* Bernoulli, on every sender access link *)
  arrivals : float;  (* flows per virtual second *)
  incast_window : float;
  incast_drain : float;
}

let incast_default =
  {
    senders = 16;
    bottleneck = 10e6;
    loss = 0.02;
    arrivals = 60.;
    incast_window = 120.;
    incast_drain = 10.;
  }

let chunk = 1000

(* Flow sizes: Pareto(alpha 1.3, xmin 2 kB) capped at 100 kB, as R3's
   flash crowd.  Each block of [strata] consecutive flows takes one
   draw from every 1/[strata] quantile band, in seeded order, so a run
   holds the same mix of mice and elephants whatever the seed (plain
   sampling lets the elephant count, and with it every tail metric,
   swing by a sixth between seeds). *)
let strata = 512

let stratified_pareto rng =
  let order = Array.init strata Fun.id in
  fun i ->
    if i mod strata = 0 then Prng.shuffle rng order;
    let u = 1. -. ((float_of_int order.(i mod strata) +. Prng.float rng 1.) /. float_of_int strata) in
    min 100_000 (int_of_float (2000. /. (Float.max u 1e-12 ** (1. /. 1.3))))

(* R3's congestion policy: ECN marking at the RMT, SACK, AIMD, an EFCP
   hardened so loss never kills a flow. *)
let congestion_policy =
  let d = Policy.default in
  {
    d with
    Policy.efcp =
      {
        d.Policy.efcp with
        Policy.window = 64;
        congestion_control = true;
        init_rto = 0.3;
        min_rto = 0.05;
        max_rtx = 100_000;
        sack_blocks = 4;
        reorder_window = 128;
        max_dup_cache = 1024;
      };
    routing =
      { d.Policy.routing with Policy.anti_entropy_interval = 2.0; dead_peer_timeout = 8.0 };
    congestion =
      {
        Policy.mark_threshold = 32;
        mark_probability = 0.2;
        pushback = true;
        admission_max_pending = 0;
        admission_backoff = 0.05;
      };
  }

let lossy_incast p =
  let setup (t : Trial.t) rng =
    let dif = Dif.create t.Trial.engine ~policy:congestion_policy "star" in
    t.Trial.dif <- Some dif;
    t.Trial.sdu_sizes <- [ chunk ];
    let hub = Trial.member t dif "hub" in
    let leaf name loss =
      let m = Trial.member t dif name in
      Trial.connect t dif ~rate:p.bottleneck hub m
        (Trial.link t rng ~bit_rate:p.bottleneck ~delay:(jitter rng 0.002) ~loss ());
      m
    in
    let senders =
      Array.init p.senders (fun i ->
          leaf (Printf.sprintf "s%02d" i) (Loss.Bernoulli p.loss))
    in
    let sink = leaf "sink" Loss.No_loss in
    Trial.converge t dif ~max_time:120.;
    register sink "incast-sink" (Trial.sink t ~rank:0 ~close_on_fin:true);
    fun ~t0 ->
      let arrivals = Prng.split rng and draws = Prng.split rng in
      let size = stratified_pareto draws in
      Workload.poisson_arrivals t.Trial.engine arrivals ~rate:p.arrivals
        ~until:(t0 +. p.incast_window) (fun id ->
          let now = Engine.now t.Trial.engine in
          let node = senders.(Prng.int draws p.senders) in
          let size = size id in
          ignore (Trial.open_flow t ~id ~start:now);
          Trial.allocate t node ~src:(Printf.sprintf "f%d" id) ~dst:"incast-sink"
            (fun f ->
              (* the whole flow is due the moment it is allocated *)
              let due = Engine.now t.Trial.engine and send = Trial.send t ~rank:0 f in
              let n = (size + chunk - 1) / chunk in
              for k = 0 to n - 1 do
                let size = if k = n - 1 then max 24 (size - (k * chunk)) else chunk in
                Trial.emit t send ~id ~due ~fin:(k = n - 1) ~size
              done))
  in
  { name = "lossy_incast"; window = p.incast_window; drain = p.incast_drain; slice = 0.01; setup }

let all () =
  [
    relay_stream relay_default;
    relay_stream relay_lan;
    mobility_churn mobility_default;
    lossy_incast incast_default;
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) (all ())
