module Policy = Rina_core.Policy

type topo = {
  diameter : int;
  bottleneck_bit_rate : float;
  rtt : float;
}

(* ---------- spec schema ---------- *)

(* What a value must look like; mirrors the validation Policy_lang
   performs, but reported as diagnostics instead of a fail-fast
   Error. *)
type vkind = Pos_int | Nonneg_int | Nonneg_float | Enum of string list | Any_string

let schema =
  [
    ( "efcp",
      [
        ("window", Pos_int);
        ("mtu", Pos_int);
        ("init_rto", Nonneg_float);
        ("min_rto", Nonneg_float);
        ("max_rtx", Pos_int);
        ("ack_delay", Nonneg_float);
        ("rtx", Enum [ "selective"; "gbn"; "none" ]);
        ("cc", Enum [ "on"; "off" ]);
        ("sack_blocks", Nonneg_int);
        ("reorder_window", Pos_int);
        ("max_dup_cache", Nonneg_int);
      ] );
    ("scheduler", [ ("kind", Enum [ "fifo"; "priority"; "drr" ]); ("quantum", Pos_int) ]);
    ( "routing",
      [
        ("hello_interval", Nonneg_float);
        ("dead_interval", Nonneg_float);
        ("lsa_min_interval", Nonneg_float);
        ("refresh_ticks", Pos_int);
        ("keepalive_interval", Nonneg_float);
        ("dead_peer_timeout", Nonneg_float);
        ("lsa_max_age", Nonneg_float);
        ("anti_entropy_interval", Nonneg_float);
      ] );
    ( "enrollment",
      [
        ("enroll_timeout", Nonneg_float);
        ("enroll_retries", Nonneg_int);
        ("retry_backoff", Nonneg_float);
      ] );
    ("auth", [ ("kind", Enum [ "none"; "password" ]); ("secret", Any_string) ]);
    ("dif", [ ("max_ttl", Pos_int) ]);
    ( "telemetry",
      [
        ("trace_sample_rate", Nonneg_float);
        ("snapshot_interval", Nonneg_float);
        ("flight_ring_capacity", Nonneg_int);
      ] );
    ( "congestion",
      [
        ("mark_threshold", Nonneg_int);
        ("mark_probability", Nonneg_float);
        ("pushback", Enum [ "on"; "off" ]);
        ("admission_max_pending", Nonneg_int);
        ("admission_backoff", Nonneg_float);
      ] );
    ( "multipath",
      [
        ("probe_interval", Nonneg_float);
        ("suspect_misses", Pos_int);
        ("down_misses", Pos_int);
        ("reprobe_backoff", Nonneg_float);
        ("latency", Enum [ "primary"; "wrr" ]);
        ("throughput", Enum [ "primary"; "wrr" ]);
        ("background", Enum [ "primary"; "wrr" ]);
      ] );
  ]

let known_sections = List.map fst schema

let value_ok kind v =
  match kind with
  | Pos_int -> ( match int_of_string_opt v with Some n -> n > 0 | None -> false)
  | Nonneg_int -> ( match int_of_string_opt v with Some n -> n >= 0 | None -> false)
  | Nonneg_float -> (
    match float_of_string_opt v with Some f -> f >= 0. | None -> false)
  | Enum choices -> List.mem v choices
  | Any_string -> true

let kind_to_string = function
  | Pos_int -> "a positive integer"
  | Nonneg_int -> "a non-negative integer"
  | Nonneg_float -> "a non-negative number"
  | Enum choices -> String.concat "|" choices
  | Any_string -> "a string"

(* ---------- line scanning (same lexical rules as Policy_lang) ---------- *)

let strip_comment line =
  match String.index_opt line '#' with
  | None -> line
  | Some i -> String.sub line 0 i

type scan = {
  mutable diags : Diag.t list;
  (* last *valid* value of each (section, key), with its line *)
  values : (string * string, string * int) Hashtbl.t;
  (* first line each (section, key) appeared on, valid or not *)
  first : (string * string, int) Hashtbl.t;
}

let emit sc d = sc.diags <- d :: sc.diags

let scan_text sc text =
  (* `Unknown suppresses per-key diagnostics: the L001 on the header
     already covers every line under a typo'd section. *)
  let section = ref `None in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i raw ->
      let line = i + 1 in
      let s = String.trim (strip_comment raw) in
      if String.equal s "" then ()
      else if String.length s >= 2 && s.[0] = '[' && s.[String.length s - 1] = ']'
      then begin
        let name = String.sub s 1 (String.length s - 2) in
        if List.mem name known_sections then section := `Known name
        else begin
          section := `Unknown;
          emit sc
            (Diag.error ~line "L001"
               (Printf.sprintf "unknown section [%s]" name)
               ~hint:
                 (Printf.sprintf "known sections: %s"
                    (String.concat ", " known_sections)))
        end
      end
      else
        match String.index_opt s '=' with
        | None ->
          emit sc
            (Diag.error ~line "L004"
               (Printf.sprintf "expected key = value, got %S" s)
               ~hint:"every non-comment line is a [section] header or key = value")
        | Some eq -> (
          let key = String.trim (String.sub s 0 eq) in
          let v = String.trim (String.sub s (eq + 1) (String.length s - eq - 1)) in
          match !section with
          | `Unknown -> ()
          | `None ->
            emit sc
              (Diag.error ~line "L004"
                 (Printf.sprintf "key %S outside any [section]" key)
                 ~hint:"open a section such as [efcp] before assigning keys")
          | `Known sec -> (
            let keys = List.assoc sec schema in
            match List.assoc_opt key keys with
            | None ->
              emit sc
                (Diag.error ~line "L002"
                   (Printf.sprintf "unknown key %S in [%s]" key sec)
                   ~hint:
                     (Printf.sprintf "keys valid in [%s]: %s" sec
                        (String.concat ", " (List.map fst keys))))
            | Some kind ->
              let id = (sec, key) in
              (match Hashtbl.find_opt sc.first id with
               | Some prev ->
                 emit sc
                   (Diag.error ~line "L003"
                      (Printf.sprintf "duplicate key %S in [%s] (first set at line %d)"
                         key sec prev)
                      ~hint:"later assignments silently override earlier ones")
               | None -> Hashtbl.replace sc.first id line);
              if value_ok kind v then Hashtbl.replace sc.values id (v, line)
              else
                emit sc
                  (Diag.error ~line "L005"
                     (Printf.sprintf "%s expects %s, got %S" key (kind_to_string kind)
                        v)))))
    lines

(* ---------- resolved view: spec merged over the base policy ---------- *)

(* Each accessor yields the value the simulator would actually run
   with, plus the line that set it (0 = inherited from [base]). *)
let geti sc sec key base =
  match Hashtbl.find_opt sc.values (sec, key) with
  | Some (v, ln) -> (int_of_string v, ln)
  | None -> (base, 0)

let getf sc sec key base =
  match Hashtbl.find_opt sc.values (sec, key) with
  | Some (v, ln) -> (float_of_string v, ln)
  | None -> (base, 0)

let gets sc sec key base =
  match Hashtbl.find_opt sc.values (sec, key) with
  | Some (v, ln) -> (v, ln)
  | None -> (base, 0)

let set_in_spec sc sec key = Hashtbl.mem sc.values (sec, key)

(* Line to pin a cross-field finding on: the latest explicitly set
   participant. *)
let at lns = List.fold_left max 0 lns

let consistency sc (base : Policy.t) topo =
  let e = base.Policy.efcp and r = base.Policy.routing in
  let window, ln_window = geti sc "efcp" "window" e.Policy.window in
  let mtu, ln_mtu = geti sc "efcp" "mtu" e.Policy.mtu in
  let init_rto, ln_irto = getf sc "efcp" "init_rto" e.Policy.init_rto in
  let min_rto, ln_mrto = getf sc "efcp" "min_rto" e.Policy.min_rto in
  let ack_delay, ln_ack = getf sc "efcp" "ack_delay" e.Policy.ack_delay in
  let base_kind =
    match base.Policy.scheduler with
    | Policy.Fifo -> "fifo"
    | Policy.Priority_queueing -> "priority"
    | Policy.Drr _ -> "drr"
  in
  let base_quantum =
    match base.Policy.scheduler with Policy.Drr q -> q | _ -> 1500
  in
  let sched_kind, ln_kind = gets sc "scheduler" "kind" base_kind in
  let quantum, ln_quantum = geti sc "scheduler" "quantum" base_quantum in
  let base_auth, base_secret =
    match base.Policy.auth with
    | Policy.Auth_none -> ("none", "")
    | Policy.Auth_password s -> ("password", s)
  in
  let auth_kind, ln_auth = gets sc "auth" "kind" base_auth in
  let secret, ln_secret = gets sc "auth" "secret" base_secret in
  let hello, ln_hello = getf sc "routing" "hello_interval" r.Policy.hello_interval in
  let dead, ln_dead = getf sc "routing" "dead_interval" r.Policy.dead_interval in
  let lsa_min, ln_lsa = getf sc "routing" "lsa_min_interval" r.Policy.lsa_min_interval in
  let max_ttl, ln_ttl = geti sc "dif" "max_ttl" base.Policy.max_ttl in
  (* L101: the retransmission timer lives in [min_rto, max_rto] and
     starts at init_rto; a floor above the start is contradictory. *)
  if min_rto > init_rto then
    emit sc
      (Diag.error ~line:(at [ ln_irto; ln_mrto ]) "L101"
         (Printf.sprintf "min_rto (%g s) exceeds init_rto (%g s)" min_rto init_rto)
         ~hint:"the RTO starts at init_rto and is clamped to at least min_rto");
  (* L102: init_rto above the hard ceiling is silently clamped. *)
  if init_rto > Rina_core.Efcp.max_rto then
    emit sc
      (Diag.warning ~line:(at [ ln_irto ]) "L102"
         (Printf.sprintf "init_rto (%g s) is above the %g s RTO ceiling and will be clamped"
            init_rto Rina_core.Efcp.max_rto));
  (* L103: delayed acks slower than the initial RTO guarantee spurious
     retransmissions until an RTT sample arrives. *)
  if ack_delay > 0. && ack_delay >= init_rto then
    emit sc
      (Diag.warning ~line:(at [ ln_ack; ln_irto ]) "L103"
         (Printf.sprintf "ack_delay (%g s) is not below init_rto (%g s)" ack_delay
            init_rto)
         ~hint:"the sender times out and retransmits before the delayed ack leaves");
  (* L104: quantum is a DRR knob only. *)
  if set_in_spec sc "scheduler" "quantum" && sched_kind <> "drr" then
    emit sc
      (Diag.warning ~line:(at [ ln_quantum ]) "L104"
         (Printf.sprintf "quantum is only meaningful under kind = drr (kind is %s)"
            sched_kind)
         ~hint:"set kind = drr or drop the quantum line");
  (* L105: a DRR quantum below the MTU cannot release a full-size PDU
     per round; large flows starve behind small ones. *)
  if sched_kind = "drr" && quantum < mtu then
    emit sc
      (Diag.warning ~line:(at [ ln_quantum; ln_mtu; ln_kind ]) "L105"
         (Printf.sprintf "drr quantum (%d B) is smaller than the MTU (%d B)" quantum
            mtu)
         ~hint:"use a quantum of at least one MTU");
  (* L106/L107: secret iff password authentication. *)
  if auth_kind = "password" && String.equal secret "" then
    emit sc
      (Diag.error ~line:(at [ ln_auth ]) "L106" "auth kind = password requires a secret");
  if set_in_spec sc "auth" "secret" && auth_kind <> "password" then
    emit sc
      (Diag.warning ~line:(at [ ln_secret ]) "L107"
         (Printf.sprintf "secret is ignored unless auth kind = password (kind is %s)"
            auth_kind));
  (* L108/L109: adjacency liveness needs headroom over the hello period. *)
  if dead <= hello then
    emit sc
      (Diag.error ~line:(at [ ln_dead; ln_hello ]) "L108"
         (Printf.sprintf "dead_interval (%g s) is not above hello_interval (%g s)" dead
            hello)
         ~hint:"a single on-time hello cannot keep the adjacency alive")
  else if dead <= 2. *. hello then
    emit sc
      (Diag.warning ~line:(at [ ln_dead; ln_hello ]) "L109"
         (Printf.sprintf
            "dead_interval (%g s) is within 2x hello_interval (%g s): one lost hello \
             drops the adjacency"
            dead hello)
         ~hint:"use dead_interval > 2 x hello_interval");
  (* L110: flood damping at or above the hello period swallows refreshes. *)
  if lsa_min >= hello && hello > 0. then
    emit sc
      (Diag.warning ~line:(at [ ln_lsa; ln_hello ]) "L110"
         (Printf.sprintf
            "lsa_min_interval (%g s) is not below hello_interval (%g s): updates are \
             damped behind the hello clock"
            lsa_min hello));
  (* L111: stop-and-wait plus delayed acks serialises every PDU behind
     the ack timer. *)
  if window = 1 && ack_delay > 0. then
    emit sc
      (Diag.warning ~line:(at [ ln_window; ln_ack ]) "L111"
         (Printf.sprintf
            "window = 1 with ack_delay = %g s adds the ack delay to every PDU's RTT"
            ack_delay)
         ~hint:"drop ack_delay, or open the window");
  (* L112: a keepalive period at or above the dead-peer timeout means
     every probe gap looks like death — one lost reply partitions the
     adjacency. *)
  let keepalive, ln_ka =
    getf sc "routing" "keepalive_interval" r.Policy.keepalive_interval
  in
  let dead_peer, ln_dp =
    getf sc "routing" "dead_peer_timeout" r.Policy.dead_peer_timeout
  in
  if keepalive > 0. && keepalive >= dead_peer then
    emit sc
      (Diag.error ~line:(at [ ln_ka; ln_dp ]) "L112"
         (Printf.sprintf
            "keepalive_interval (%g s) is not below dead_peer_timeout (%g s)" keepalive
            dead_peer)
         ~hint:
           "an enrolled peer is declared dead before its next keepalive is even \
            due; use dead_peer_timeout > 2 x keepalive_interval");
  (* L113: zero-retry enrollment gives up on the first lost M_connect
     and waits a whole hello period to try again. *)
  let retries, ln_retries =
    geti sc "enrollment" "enroll_retries" base.Policy.enrollment.Policy.enroll_retries
  in
  if retries = 0 then
    emit sc
      (Diag.warning ~line:(at [ ln_retries ]) "L113"
         "enroll_retries = 0: a single lost enrollment exchange stalls joining \
          until the next hello"
         ~hint:"allow at least one backoff retry");
  (* L114: timer pressure.  Each periodic timer class fires about
     1/period times per simulated second (hellos and keepalives per
     adjacency, delayed acks per flow, and the retransmission timer at
     worst every min_rto).  A policy whose periods sum past ~10k
     events/s floods the event loop with timer churn and slows every
     experiment that uses it. *)
  let rate p = if p > 0. then 1. /. p else 0. in
  let timer_load =
    rate hello +. rate keepalive +. rate ack_delay +. rate min_rto
  in
  if timer_load > 10_000. then
    emit sc
      (Diag.warning
         ~line:(at [ ln_hello; ln_ka; ln_ack; ln_mrto ]) "L114"
         (Printf.sprintf
            "timer settings schedule ~%.0f timer events per simulated second \
             (hello %g s, keepalive %g s, ack_delay %g s, min_rto %g s)"
            timer_load hello keepalive ack_delay min_rto)
         ~hint:
           "raise the shortest period(s); sub-millisecond timers dominate the \
            event loop (use --strict to make this failing)");
  (* L115: a reorder buffer smaller than the advertised sack-block
     budget is self-defeating — the receiver can never hold enough
     out-of-order ranges to fill its own sack advertisement, so the
     extra blocks are dead wire weight and the buffer sheds
     (R_reorder_overflow) exactly the PDUs sack was meant to save. *)
  let sack, ln_sack =
    geti sc "efcp" "sack_blocks" base.Policy.efcp.Policy.sack_blocks
  in
  let reorder_w, ln_rw =
    geti sc "efcp" "reorder_window" base.Policy.efcp.Policy.reorder_window
  in
  if sack > 0 && reorder_w < sack then
    emit sc
      (Diag.error ~line:(at [ ln_rw; ln_sack ]) "L115"
         (Printf.sprintf "reorder_window (%d) is below sack_blocks (%d)"
            reorder_w sack)
         ~hint:"use reorder_window >= sack_blocks (each sack block needs at \
                least one buffered PDU)");
  (* L116: anti-entropy sweeping faster than the hello clock churns
     full-database syncs against adjacencies that have not even been
     re-confirmed since the last sweep. *)
  let ae, ln_ae =
    getf sc "routing" "anti_entropy_interval" r.Policy.anti_entropy_interval
  in
  if ae > 0. && ae < hello then
    emit sc
      (Diag.warning ~line:(at [ ln_ae; ln_hello ]) "L116"
         (Printf.sprintf
            "anti_entropy_interval (%g s) is below hello_interval (%g s): full \
             RIB syncs outpace adjacency confirmation"
            ae hello)
         ~hint:"use anti_entropy_interval >= hello_interval");
  (* L117: a sample rate outside (0, 1] is not a probability — 0 (or a
     negative) keeps nothing, above 1 is meaningless; Obs refuses to
     start with it at runtime, so catch it statically. *)
  let sample_rate, ln_sr =
    getf sc "telemetry" "trace_sample_rate"
      base.Policy.telemetry.Policy.trace_sample_rate
  in
  if sample_rate <= 0. || sample_rate > 1. then
    emit sc
      (Diag.error ~line:(at [ ln_sr ]) "L117"
         (Printf.sprintf "trace_sample_rate (%g) is outside (0, 1]" sample_rate)
         ~hint:"1.0 keeps every span; 0.01 keeps ~1% of spans deterministically");
  (* L118: snapshots ride the engine's coarse timer wheel — an interval
     below one wheel slot cannot fire any faster than the slot width,
     the extra ticks just collapse into the same slot. *)
  let snap_iv, ln_si =
    getf sc "telemetry" "snapshot_interval"
      base.Policy.telemetry.Policy.snapshot_interval
  in
  if snap_iv > 0. && snap_iv < Rina_sim.Engine.wheel_granularity then
    emit sc
      (Diag.warning ~line:(at [ ln_si ]) "L118"
         (Printf.sprintf
            "snapshot_interval (%g s) is below the timer-wheel slot width (%g s)"
            snap_iv Rina_sim.Engine.wheel_granularity)
         ~hint:
           (Printf.sprintf "snapshot timers ride the coarse wheel; use at least %g s"
              Rina_sim.Engine.wheel_granularity));
  (* L119: congestion knobs that cannot work as written.  A
     mark_probability above 1 is not a probability (negatives are
     already an L005 type error); a mark_threshold at or above the
     per-class queue capacity can never mark a PDU before the queue
     overflows, so "ECN" degrades to silent tail drop. *)
  let c = base.Policy.congestion in
  let mark_th, ln_mth = geti sc "congestion" "mark_threshold" c.Policy.mark_threshold in
  let mark_p, ln_mp =
    getf sc "congestion" "mark_probability" c.Policy.mark_probability
  in
  let adm_backoff, ln_ab =
    getf sc "congestion" "admission_backoff" c.Policy.admission_backoff
  in
  let adm_max, ln_am =
    geti sc "congestion" "admission_max_pending" c.Policy.admission_max_pending
  in
  let pushback_s, ln_pb =
    gets sc "congestion" "pushback" (if c.Policy.pushback then "on" else "off")
  in
  if mark_p > 1. then
    emit sc
      (Diag.error ~line:(at [ ln_mp ]) "L119"
         (Printf.sprintf "mark_probability (%g) is above 1" mark_p)
         ~hint:"marking is a coin flip per enqueue; use a value in [0, 1]");
  if mark_th >= Rina_core.Rmt.queue_capacity then
    emit sc
      (Diag.error ~line:(at [ ln_mth ]) "L119"
         (Printf.sprintf
            "mark_threshold (%d) is not below the per-class queue capacity (%d)"
            mark_th Rina_core.Rmt.queue_capacity)
         ~hint:"the queue overflows (tail drop) before it ever marks");
  if adm_max > 0 && adm_backoff <= 0. then
    emit sc
      (Diag.error ~line:(at [ ln_ab; ln_am ]) "L119"
         (Printf.sprintf
            "admission_max_pending = %d with admission_backoff = %g: busy-rejected \
             requesters would retry with no delay"
            adm_max adm_backoff)
         ~hint:"use a positive admission_backoff (seconds) so retries spread out");
  (* L120: congestion features wired to a signal that is never
     generated.  Push-back re-marks upper-DIF frames when a lower flow
     is congested, and a flow only learns it is congested from marked
     acks — with marking off, neither ever fires. *)
  if pushback_s = "on" && mark_th = 0 then
    emit sc
      (Diag.warning ~line:(at [ ln_pb; ln_mth ]) "L120"
         "pushback = on with mark_threshold = 0: no queue ever marks, so there is \
          no congestion signal to push upward"
         ~hint:"set mark_threshold > 0 (marking) or drop the pushback line");
  if mark_th > 0 && mark_p = 0. then
    emit sc
      (Diag.warning ~line:(at [ ln_mth; ln_mp ]) "L120"
         (Printf.sprintf
            "mark_threshold = %d with mark_probability = 0: the marking stage is \
             armed but every coin flip loses"
            mark_th)
         ~hint:"use a mark_probability in (0, 1]");
  (* L122: a path monitor that can never demote.  down_misses below
     suspect_misses means the Down threshold fires while the state
     machine still considers the path Up — Suspect is unreachable and
     the documented Up -> Suspect -> Down progression is a lie.  A
     zero reprobe_backoff on an armed monitor makes every Down path
     re-probe in a zero-delay busy loop. *)
  let mp = base.Policy.multipath in
  let probe_iv, ln_piv = getf sc "multipath" "probe_interval" mp.Policy.probe_interval in
  let susp, ln_susp = geti sc "multipath" "suspect_misses" mp.Policy.suspect_misses in
  let down, ln_down = geti sc "multipath" "down_misses" mp.Policy.down_misses in
  let reprobe, ln_rp = getf sc "multipath" "reprobe_backoff" mp.Policy.reprobe_backoff in
  if down < susp then
    emit sc
      (Diag.error ~line:(at [ ln_down; ln_susp ]) "L122"
         (Printf.sprintf
            "down_misses (%d) is below suspect_misses (%d): paths jump straight to \
             Down and Suspect is unreachable"
            down susp)
         ~hint:"keep suspect_misses <= down_misses");
  if probe_iv > 0. && reprobe <= 0. then
    emit sc
      (Diag.error ~line:(at [ ln_rp; ln_piv ]) "L122"
         "reprobe_backoff = 0 with an armed monitor: Down paths re-probe in a \
          zero-delay busy loop"
         ~hint:"give reprobe_backoff a positive base, e.g. probe_interval");
  (* L123: the monitor declares a path Down no earlier than routing's
     dead-peer teardown would — fast failover adds nothing over plain
     LSA convergence. *)
  if probe_iv > 0. && probe_iv *. float_of_int down >= dead_peer then
    emit sc
      (Diag.warning ~line:(at [ ln_piv; ln_down ]) "L123"
         (Printf.sprintf
            "probe_interval x down_misses (%g x %d = %g s) is not below \
             dead_peer_timeout (%g s): path-Down fires after routing has already \
             torn the peer down, so fast failover never beats LSA convergence"
            probe_iv down
            (probe_iv *. float_of_int down)
            dead_peer)
         ~hint:"shrink probe_interval (or down_misses) below the dead-peer window");
  match topo with
  | None -> ()
  | Some { diameter; bottleneck_bit_rate; rtt } ->
    (* L201: PDUs on the longest path die before arriving. *)
    if max_ttl < diameter then
      emit sc
        (Diag.error ~line:(at [ ln_ttl ]) "L201"
           (Printf.sprintf "max_ttl (%d) is below the topology diameter (%d hops)"
              max_ttl diameter)
           ~hint:"PDUs between the farthest pair are dropped as TTL-expired");
    (* L202: the send window cannot fill the pipe. *)
    let bdp = bottleneck_bit_rate /. 8. *. rtt in
    let capacity = float_of_int (window * mtu) in
    if capacity < bdp then
      emit sc
        (Diag.warning ~line:(at [ ln_window; ln_mtu ]) "L202"
           (Printf.sprintf
              "window x mtu (%d x %d = %.0f B) is below the bandwidth-delay product \
               (%.0f B): the flow cannot saturate the path"
              window mtu capacity bdp)
           ~hint:"raise window (or mtu) to cover bit_rate/8 x rtt")

let lint ?(base = Policy.default) ?topo text =
  let sc = { diags = []; values = Hashtbl.create 32; first = Hashtbl.create 32 } in
  scan_text sc text;
  consistency sc base topo;
  List.sort Diag.compare sc.diags

let clean ?base ?topo text = not (Diag.has_errors (lint ?base ?topo text))

let rules =
  let e = Diag.Error and w = Diag.Warning in
  [
    Diag.rule ~code:"L001" ~severity:e "unknown [section] in the spec";
    Diag.rule ~code:"L002" ~severity:e "unknown key for its section";
    Diag.rule ~code:"L003" ~severity:e "duplicate key (later assignment wins silently)";
    Diag.rule ~code:"L004" ~severity:e "line is neither a [section] header nor key = value";
    Diag.rule ~code:"L005" ~severity:e "value has the wrong type for its key";
    Diag.rule ~code:"L101" ~severity:e "min_rto exceeds init_rto";
    Diag.rule ~code:"L102" ~severity:w "init_rto above the RTO ceiling (clamped)";
    Diag.rule ~code:"L103" ~severity:w
      "ack_delay at or above init_rto: spurious retransmits until an RTT sample";
    Diag.rule ~code:"L104" ~severity:w "quantum set but scheduler is not drr";
    Diag.rule ~code:"L105" ~severity:w "drr quantum below the MTU starves large flows";
    Diag.rule ~code:"L106" ~severity:e "auth kind = password without a secret";
    Diag.rule ~code:"L107" ~severity:w "secret set but auth kind is not password";
    Diag.rule ~code:"L108" ~severity:e "dead_interval not above hello_interval";
    Diag.rule ~code:"L109" ~severity:w
      "dead_interval within 2x hello_interval: one lost hello drops the adjacency";
    Diag.rule ~code:"L110" ~severity:w
      "lsa_min_interval not below hello_interval: updates damped behind the hello clock";
    Diag.rule ~code:"L111" ~severity:w
      "window = 1 with delayed acks adds the ack delay to every PDU's RTT";
    Diag.rule ~code:"L112" ~severity:e "keepalive_interval not below dead_peer_timeout";
    Diag.rule ~code:"L113" ~severity:w
      "enroll_retries = 0 stalls joining on a single lost exchange";
    Diag.rule ~code:"L114" ~severity:w
      "timer periods schedule more than ~10k events per simulated second";
    Diag.rule ~code:"L115" ~severity:e "reorder_window below sack_blocks";
    Diag.rule ~code:"L116" ~severity:w
      "anti_entropy_interval below hello_interval churns full RIB syncs";
    Diag.rule ~code:"L117" ~severity:e "trace_sample_rate outside (0, 1]";
    Diag.rule ~code:"L118" ~severity:w
      "snapshot_interval below the timer-wheel slot width";
    Diag.rule ~code:"L119" ~severity:e
      "congestion knobs out of range (mark_probability above 1, mark_threshold \
       at or above the queue capacity, admission with no backoff)";
    Diag.rule ~code:"L120" ~severity:w
      "congestion feature armed without its signal (pushback without marking, \
       marking with probability 0)";
    Diag.rule ~code:"L122" ~severity:e
      "multipath monitor misconfigured (down_misses below suspect_misses, or an \
       armed monitor with reprobe_backoff = 0)";
    Diag.rule ~code:"L123" ~severity:w
      "probe_interval x down_misses not below dead_peer_timeout: fast failover \
       cannot beat routing's own dead-peer teardown";
    Diag.rule ~code:"L201" ~severity:e "max_ttl below the topology diameter";
    Diag.rule ~code:"L202" ~severity:w
      "window x mtu below the bandwidth-delay product: cannot saturate the path";
  ]
