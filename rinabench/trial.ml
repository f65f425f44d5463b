(* What one trial keeps while it runs: the receivers' books with their
   hard correctness checks, the open-loop traffic generator, and the
   helpers workloads build and time their set-up with. *)

module Engine = Rina_sim.Engine
module Link = Rina_sim.Link
module Stats = Rina_util.Stats
module Metrics = Rina_util.Metrics
module Prng = Rina_util.Prng
module Ipcp = Rina_core.Ipcp
module Dif = Rina_core.Dif
module Types = Rina_core.Types
module Qos = Rina_core.Qos
module Workload = Rina_exp.Workload

let wall () = float_of_int (Span.monotonic_ns ()) /. 1e9

(* ---------- receiver accounting ---------- *)

type flow = {
  f_start : float;  (* virtual time the flow was due to start *)
  mutable f_sent : int;
  mutable f_next : int;  (* next sequence number the application expects *)
  mutable f_last_rx : float;
  mutable f_max_gap : float;
  mutable f_done : float;  (* FIN delivery time; nan while open *)
}

type t = {
  engine : Engine.t;
  spans : Span.t option;
  flows : (int, flow) Hashtbl.t;
  latency : Stats.t;  (* one-way SDU latency, virtual seconds *)
  mutable delivered : int;
  mutable bytes : int;
  mutable violations : string list;
  mutable alloc_attempted : int;
  mutable alloc_failed : int;
  alloc_latency : Stats.t;
  mutable links : Link.t list;
  mutable members : Ipcp.t list;  (* every IPCP, all ranks *)
  mutable efcp : Metrics.t list;
      (* EFCP counters of every application flow end (kept alone, so a
         closed flow's state can be collected) *)
  mutable dif : Dif.t option;  (* the rank-0 DIF routing is measured on *)
  mutable sdu_sizes : int list;
  mutable converge_s : float;  (* wall time inside [Dif.run_until_converged] *)
  mutable alloc_s : float;  (* wall time of the allocation phase *)
}

let create ?spans engine =
  {
    engine;
    spans;
    flows = Hashtbl.create 1024;
    latency = Stats.create ();
    delivered = 0;
    bytes = 0;
    violations = [];
    alloc_attempted = 0;
    alloc_failed = 0;
    alloc_latency = Stats.create ();
    links = [];
    members = [];
    efcp = [];
    dif = None;
    sdu_sizes = [];
    converge_s = 0.;
    alloc_s = 0.;
  }

let violation t msg =
  if List.length t.violations < 20 then t.violations <- msg :: t.violations

let open_flow t ~id ~start =
  let f =
    {
      f_start = start;
      f_sent = 0;
      f_next = 0;
      f_last_rx = nan;
      f_max_gap = 0.;
      f_done = nan;
    }
  in
  Hashtbl.replace t.flows id f;
  f

(* Every delivered SDU must pass its CRC trailer and arrive exactly
   once, in order, on a flow this trial opened. *)
let on_sdu t sdu =
  let now = Engine.now t.engine in
  match Workload.read_flow sdu with
  | None ->
    violation t (Printf.sprintf "corrupt SDU escaped at t=%.6f" now);
    false
  | Some s -> (
    match Hashtbl.find_opt t.flows s.Workload.fs_flow with
    | None ->
      violation t (Printf.sprintf "SDU of unknown flow %d" s.Workload.fs_flow);
      false
    | Some f ->
      if s.Workload.fs_seq <> f.f_next then begin
        violation t
          (Printf.sprintf "flow %d: got seq %d, expected %d (%s)" s.Workload.fs_flow
             s.Workload.fs_seq f.f_next
             (if s.Workload.fs_seq < f.f_next then "duplicate" else "out of order"));
        false
      end
      else begin
        f.f_next <- f.f_next + 1;
        t.delivered <- t.delivered + 1;
        t.bytes <- t.bytes + Bytes.length sdu;
        Stats.add t.latency (now -. s.Workload.fs_sent);
        if not (Float.is_nan f.f_last_rx) then
          f.f_max_gap <- Float.max f.f_max_gap (now -. f.f_last_rx);
        f.f_last_rx <- now;
        if s.Workload.fs_fin then f.f_done <- now;
        s.Workload.fs_fin
      end)

(* An accepted flow's receive side; [close_on_fin] deallocates it once
   its FIN SDU lands (short-flow workloads). *)
let sink t ~rank ?(close_on_fin = false) (flow : Ipcp.flow) =
  t.efcp <- flow.Ipcp.flow_metrics () :: t.efcp;
  flow.Ipcp.set_on_receive
    (Wrap.receiver t.spans ~rank (fun sdu ->
         if on_sdu t sdu && close_on_fin then flow.Ipcp.close ()))

let send t ~rank flow = Wrap.send t.spans ~rank flow

(* One stamped SDU on flow [id], due at virtual time [due]. *)
let emit t send ~id ~due ~fin ~size =
  let f = Hashtbl.find t.flows id in
  send (Workload.stamp_flow ~now:due ~flow:id ~seq:f.f_sent ~fin ~size);
  f.f_sent <- f.f_sent + 1

(* Open-loop constant bit rate: SDU k is due at [start + k * interval]
   whatever the sender's backlog; the last one before [until] carries
   FIN. *)
let cbr t send ~id ~start ~until ~rate ~size =
  ignore (open_flow t ~id ~start);
  let interval = float_of_int (8 * size) /. rate in
  let rec tick k () =
    let due = start +. (float_of_int k *. interval) in
    let next = due +. interval in
    emit t send ~id ~due ~fin:(next >= until) ~size;
    if next < until then ignore (Engine.schedule_at t.engine ~time:next (tick (k + 1)))
  in
  if start < until then ignore (Engine.schedule_at t.engine ~time:start (tick 0))

(* ---------- topology helpers (spans wrap every chan) ---------- *)

let link t rng ?queue_capacity ?loss ~bit_rate ~delay () =
  let l = Link.create t.engine rng ~bit_rate ~delay ?queue_capacity ?loss () in
  t.links <- l :: t.links;
  l

let connect t dif ?rate a b l =
  let wrap c = Wrap.chan t.spans ~rank:(Dif.rank dif) ~tx:Span.Link_tx c in
  Dif.connect dif ?rate_a:rate ?rate_b:rate a b
    (wrap (Link.endpoint_a l), wrap (Link.endpoint_b l))

let member t dif name =
  let m = Dif.add_member dif ~name () in
  t.members <- m :: t.members;
  m

(* Request a flow; [k] receives it.  Allocation latency is virtual
   time from request to result; failures only count. *)
let allocate t node ~src ~dst k =
  t.alloc_attempted <- t.alloc_attempted + 1;
  let asked = Engine.now t.engine in
  Ipcp.allocate_flow node ~src:(Types.apn src) ~dst:(Types.apn dst)
    ~qos_id:Qos.reliable.Qos.id ~on_result:(fun res ->
      Stats.add t.alloc_latency (Engine.now t.engine -. asked);
      match res with
      | Ok flow ->
        t.efcp <- flow.Ipcp.flow_metrics () :: t.efcp;
        k flow
      | Error _ -> t.alloc_failed <- t.alloc_failed + 1)

(* Advance virtual time in small steps while [cond] holds, for at most
   [limit] virtual seconds. *)
let run_while t ~limit cond =
  let deadline = Engine.now t.engine +. limit in
  while cond () && Engine.now t.engine < deadline do
    Engine.run ~until:(Engine.now t.engine +. 0.01) t.engine
  done

let converge t dif ~max_time =
  let w = wall () in
  Dif.run_until_converged dif ~max_time ();
  t.converge_s <- t.converge_s +. (wall () -. w)

(* The allocation phase: [start] issues (or schedules) [expected]
   requests, then virtual time advances until all are answered. *)
let alloc_phase t ~limit ~expected start =
  let w = wall () in
  let answered0 = Stats.count t.alloc_latency in
  start ();
  run_while t ~limit (fun () -> Stats.count t.alloc_latency - answered0 < expected);
  t.alloc_s <- t.alloc_s +. (wall () -. w)
