type section =
  | S_none
  | S_efcp
  | S_scheduler
  | S_routing
  | S_enrollment
  | S_auth
  | S_dif
  | S_telemetry
  | S_congestion
  | S_multipath

(* Mutable build state folded over the lines of the spec. *)
type state = {
  mutable policy : Policy.t;
  mutable section : section;
  mutable sched_kind : string;
  mutable sched_quantum : int;
  mutable auth_kind : string;
  mutable auth_secret : string;
}

let err line msg = Error (Printf.sprintf "line %d: %s" line msg)

let parse_int line key v k =
  match int_of_string_opt v with
  | Some n when n > 0 -> k n
  | Some _ | None -> err line (Printf.sprintf "%s expects a positive integer, got %S" key v)

let parse_nat line key v k =
  match int_of_string_opt v with
  | Some n when n >= 0 -> k n
  | Some _ | None ->
    err line (Printf.sprintf "%s expects a non-negative integer, got %S" key v)

let parse_float line key v k =
  match float_of_string_opt v with
  | Some f when f >= 0. -> k f
  | Some _ | None ->
    err line (Printf.sprintf "%s expects a non-negative number, got %S" key v)

let apply_kv st line key v =
  let p = st.policy in
  match (st.section, key) with
  | S_none, _ -> err line "key outside any [section]"
  | S_efcp, "window" ->
    parse_int line key v (fun n ->
        Ok { p with Policy.efcp = { p.Policy.efcp with Policy.window = n } })
  | S_efcp, "mtu" ->
    parse_int line key v (fun n ->
        Ok { p with Policy.efcp = { p.Policy.efcp with Policy.mtu = n } })
  | S_efcp, "init_rto" ->
    parse_float line key v (fun f ->
        Ok { p with Policy.efcp = { p.Policy.efcp with Policy.init_rto = f } })
  | S_efcp, "min_rto" ->
    parse_float line key v (fun f ->
        Ok { p with Policy.efcp = { p.Policy.efcp with Policy.min_rto = f } })
  | S_efcp, "max_rtx" ->
    parse_int line key v (fun n ->
        Ok { p with Policy.efcp = { p.Policy.efcp with Policy.max_rtx = n } })
  | S_efcp, "ack_delay" ->
    parse_float line key v (fun f ->
        Ok { p with Policy.efcp = { p.Policy.efcp with Policy.ack_delay = f } })
  | S_efcp, "rtx" -> (
    match v with
    | "selective" ->
      Ok
        {
          p with
          Policy.efcp = { p.Policy.efcp with Policy.rtx_strategy = Policy.Selective_repeat };
        }
    | "gbn" ->
      Ok
        {
          p with
          Policy.efcp = { p.Policy.efcp with Policy.rtx_strategy = Policy.Go_back_n };
        }
    | "none" ->
      Ok
        { p with Policy.efcp = { p.Policy.efcp with Policy.rtx_strategy = Policy.No_rtx } }
    | other -> err line (Printf.sprintf "rtx must be selective|gbn|none, got %S" other))
  | S_efcp, "cc" -> (
    match v with
    | "on" ->
      Ok { p with Policy.efcp = { p.Policy.efcp with Policy.congestion_control = true } }
    | "off" ->
      Ok
        { p with Policy.efcp = { p.Policy.efcp with Policy.congestion_control = false } }
    | other -> err line (Printf.sprintf "cc must be on|off, got %S" other))
  | S_efcp, "sack_blocks" ->
    parse_nat line key v (fun n ->
        Ok { p with Policy.efcp = { p.Policy.efcp with Policy.sack_blocks = n } })
  | S_efcp, "reorder_window" ->
    parse_int line key v (fun n ->
        Ok
          { p with Policy.efcp = { p.Policy.efcp with Policy.reorder_window = n } })
  | S_efcp, "max_dup_cache" ->
    parse_nat line key v (fun n ->
        Ok
          { p with Policy.efcp = { p.Policy.efcp with Policy.max_dup_cache = n } })
  | S_scheduler, "kind" ->
    st.sched_kind <- v;
    Ok p
  | S_scheduler, "quantum" ->
    parse_int line key v (fun n ->
        st.sched_quantum <- n;
        Ok p)
  | S_routing, "hello_interval" ->
    parse_float line key v (fun f ->
        Ok { p with Policy.routing = { p.Policy.routing with Policy.hello_interval = f } })
  | S_routing, "dead_interval" ->
    parse_float line key v (fun f ->
        Ok { p with Policy.routing = { p.Policy.routing with Policy.dead_interval = f } })
  | S_routing, "refresh_ticks" ->
    parse_int line key v (fun n ->
        Ok
          { p with Policy.routing = { p.Policy.routing with Policy.refresh_ticks = n } })
  | S_routing, "lsa_min_interval" ->
    parse_float line key v (fun f ->
        Ok
          {
            p with
            Policy.routing = { p.Policy.routing with Policy.lsa_min_interval = f };
          })
  | S_routing, "keepalive_interval" ->
    parse_float line key v (fun f ->
        Ok
          {
            p with
            Policy.routing = { p.Policy.routing with Policy.keepalive_interval = f };
          })
  | S_routing, "dead_peer_timeout" ->
    parse_float line key v (fun f ->
        Ok
          {
            p with
            Policy.routing = { p.Policy.routing with Policy.dead_peer_timeout = f };
          })
  | S_routing, "lsa_max_age" ->
    parse_float line key v (fun f ->
        Ok { p with Policy.routing = { p.Policy.routing with Policy.lsa_max_age = f } })
  | S_routing, "anti_entropy_interval" ->
    parse_float line key v (fun f ->
        Ok
          {
            p with
            Policy.routing = { p.Policy.routing with Policy.anti_entropy_interval = f };
          })
  | S_enrollment, "enroll_timeout" ->
    parse_float line key v (fun f ->
        Ok
          {
            p with
            Policy.enrollment = { p.Policy.enrollment with Policy.enroll_timeout = f };
          })
  | S_enrollment, "enroll_retries" ->
    parse_nat line key v (fun n ->
        Ok
          {
            p with
            Policy.enrollment = { p.Policy.enrollment with Policy.enroll_retries = n };
          })
  | S_enrollment, "retry_backoff" ->
    parse_float line key v (fun f ->
        Ok
          {
            p with
            Policy.enrollment = { p.Policy.enrollment with Policy.retry_backoff = f };
          })
  | S_auth, "kind" ->
    st.auth_kind <- v;
    Ok p
  | S_auth, "secret" ->
    st.auth_secret <- v;
    Ok p
  | S_dif, "max_ttl" -> parse_int line key v (fun n -> Ok { p with Policy.max_ttl = n })
  | S_telemetry, "trace_sample_rate" -> (
    match float_of_string_opt v with
    | Some f when f > 0. && f <= 1. ->
      Ok
        {
          p with
          Policy.telemetry = { p.Policy.telemetry with Policy.trace_sample_rate = f };
        }
    | Some _ | None ->
      err line
        (Printf.sprintf "trace_sample_rate expects a number in (0, 1], got %S" v))
  | S_telemetry, "snapshot_interval" ->
    parse_float line key v (fun f ->
        Ok
          {
            p with
            Policy.telemetry = { p.Policy.telemetry with Policy.snapshot_interval = f };
          })
  | S_telemetry, "flight_ring_capacity" ->
    parse_nat line key v (fun n ->
        Ok
          {
            p with
            Policy.telemetry =
              { p.Policy.telemetry with Policy.flight_ring_capacity = n };
          })
  | S_congestion, "mark_threshold" ->
    parse_nat line key v (fun n ->
        Ok
          {
            p with
            Policy.congestion = { p.Policy.congestion with Policy.mark_threshold = n };
          })
  | S_congestion, "mark_probability" -> (
    match float_of_string_opt v with
    | Some f when f >= 0. && f <= 1. ->
      Ok
        {
          p with
          Policy.congestion = { p.Policy.congestion with Policy.mark_probability = f };
        }
    | Some _ | None ->
      err line (Printf.sprintf "mark_probability expects a number in [0, 1], got %S" v))
  | S_congestion, "pushback" -> (
    match v with
    | "on" ->
      Ok { p with Policy.congestion = { p.Policy.congestion with Policy.pushback = true } }
    | "off" ->
      Ok
        { p with Policy.congestion = { p.Policy.congestion with Policy.pushback = false } }
    | other -> err line (Printf.sprintf "pushback must be on|off, got %S" other))
  | S_congestion, "admission_max_pending" ->
    parse_nat line key v (fun n ->
        Ok
          {
            p with
            Policy.congestion =
              { p.Policy.congestion with Policy.admission_max_pending = n };
          })
  | S_congestion, "admission_backoff" ->
    parse_float line key v (fun f ->
        Ok
          {
            p with
            Policy.congestion = { p.Policy.congestion with Policy.admission_backoff = f };
          })
  | S_multipath, "probe_interval" ->
    parse_float line key v (fun f ->
        Ok
          {
            p with
            Policy.multipath = { p.Policy.multipath with Policy.probe_interval = f };
          })
  | S_multipath, "suspect_misses" ->
    parse_int line key v (fun n ->
        Ok
          {
            p with
            Policy.multipath = { p.Policy.multipath with Policy.suspect_misses = n };
          })
  | S_multipath, "down_misses" ->
    parse_int line key v (fun n ->
        Ok
          {
            p with
            Policy.multipath = { p.Policy.multipath with Policy.down_misses = n };
          })
  | S_multipath, "reprobe_backoff" ->
    parse_float line key v (fun f ->
        Ok
          {
            p with
            Policy.multipath = { p.Policy.multipath with Policy.reprobe_backoff = f };
          })
  | S_multipath, (("latency" | "throughput" | "background") as label) -> (
    let set mode =
      let m = p.Policy.multipath in
      let m =
        match label with
        | "latency" -> { m with Policy.latency = mode }
        | "throughput" -> { m with Policy.throughput = mode }
        | _ -> { m with Policy.background = mode }
      in
      Ok { p with Policy.multipath = m }
    in
    match v with
    | "primary" -> set Policy.Primary_backup
    | "wrr" -> set Policy.Weighted_rr
    | other -> err line (Printf.sprintf "%s must be primary|wrr, got %S" label other))
  | ( ( S_efcp | S_scheduler | S_routing | S_enrollment | S_auth | S_dif | S_telemetry
      | S_congestion | S_multipath ),
      other ) ->
    err line (Printf.sprintf "unknown key %S in this section" other)

let finish st line =
  let sched =
    match st.sched_kind with
    | "" | "fifo" -> Ok Policy.Fifo
    | "priority" -> Ok Policy.Priority_queueing
    | "drr" -> Ok (Policy.Drr st.sched_quantum)
    | other -> err line (Printf.sprintf "scheduler kind must be fifo|priority|drr, got %S" other)
  in
  let auth =
    match st.auth_kind with
    | "" | "none" -> Ok Policy.Auth_none
    | "password" ->
      if String.equal st.auth_secret "" then
        err line "auth kind=password requires a secret"
      else Ok (Policy.Auth_password st.auth_secret)
    | other -> err line (Printf.sprintf "auth kind must be none|password, got %S" other)
  in
  match (sched, auth) with
  | Ok scheduler, Ok auth ->
    Ok { st.policy with Policy.scheduler; Policy.auth }
  | (Error _ as e), _ -> e
  | _, (Error _ as e) -> e

let section_name = function
  | S_none -> "none"
  | S_efcp -> "efcp"
  | S_scheduler -> "scheduler"
  | S_routing -> "routing"
  | S_enrollment -> "enrollment"
  | S_auth -> "auth"
  | S_dif -> "dif"
  | S_telemetry -> "telemetry"
  | S_congestion -> "congestion"
  | S_multipath -> "multipath"

let strip_comment line =
  match String.index_opt line '#' with
  | None -> line
  | Some i -> String.sub line 0 i

let parse ?(base = Policy.default) text =
  let st =
    {
      policy = base;
      section = S_none;
      sched_kind = "";
      sched_quantum = 1500;
      auth_kind = "";
      auth_secret = "";
    }
  in
  (match base.Policy.scheduler with
   | Policy.Fifo -> st.sched_kind <- "fifo"
   | Policy.Priority_queueing -> st.sched_kind <- "priority"
   | Policy.Drr q ->
     st.sched_kind <- "drr";
     st.sched_quantum <- q);
  (match base.Policy.auth with
   | Policy.Auth_none -> st.auth_kind <- "none"
   | Policy.Auth_password s ->
     st.auth_kind <- "password";
     st.auth_secret <- s);
  (* (section, key) -> line of the first occurrence; a second write to
     the same key is a spec bug (it used to silently last-write-win). *)
  let seen : (string * string, int) Hashtbl.t = Hashtbl.create 16 in
  let lines = String.split_on_char '\n' text in
  let rec loop n = function
    | [] -> finish st n
    | raw :: rest -> (
      let line = String.trim (strip_comment raw) in
      if String.equal line "" then loop (n + 1) rest
      else if String.length line >= 2 && line.[0] = '[' && line.[String.length line - 1] = ']'
      then begin
        let name = String.sub line 1 (String.length line - 2) in
        match name with
        | "efcp" ->
          st.section <- S_efcp;
          loop (n + 1) rest
        | "scheduler" ->
          st.section <- S_scheduler;
          loop (n + 1) rest
        | "routing" ->
          st.section <- S_routing;
          loop (n + 1) rest
        | "enrollment" ->
          st.section <- S_enrollment;
          loop (n + 1) rest
        | "auth" ->
          st.section <- S_auth;
          loop (n + 1) rest
        | "dif" ->
          st.section <- S_dif;
          loop (n + 1) rest
        | "telemetry" ->
          st.section <- S_telemetry;
          loop (n + 1) rest
        | "congestion" ->
          st.section <- S_congestion;
          loop (n + 1) rest
        | "multipath" ->
          st.section <- S_multipath;
          loop (n + 1) rest
        | other -> err n (Printf.sprintf "unknown section [%s]" other)
      end
      else
        match String.index_opt line '=' with
        | None -> err n (Printf.sprintf "expected key = value, got %S" line)
        | Some i -> (
          let key = String.trim (String.sub line 0 i) in
          let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          let id = (section_name st.section, key) in
          match Hashtbl.find_opt seen id with
          | Some first ->
            err n
              (Printf.sprintf "duplicate key %S in [%s] (first set at line %d)" key
                 (fst id) first)
          | None ->
            Hashtbl.replace seen id n;
          match apply_kv st n key v with
          | Ok p ->
            st.policy <- p;
            loop (n + 1) rest
          | Error _ as e -> e))
  in
  loop 1 lines

let stripe_name = function
  | Policy.Primary_backup -> "primary"
  | Policy.Weighted_rr -> "wrr"

let to_string (p : Policy.t) =
  let e = p.Policy.efcp and r = p.Policy.routing and en = p.Policy.enrollment in
  let rtx =
    match e.Policy.rtx_strategy with
    | Policy.Selective_repeat -> "selective"
    | Policy.Go_back_n -> "gbn"
    | Policy.No_rtx -> "none"
  in
  let sched_lines =
    match p.Policy.scheduler with
    | Policy.Fifo -> "kind = fifo"
    | Policy.Priority_queueing -> "kind = priority"
    | Policy.Drr q -> Printf.sprintf "kind = drr\nquantum = %d" q
  in
  let auth_lines =
    match p.Policy.auth with
    | Policy.Auth_none -> "kind = none"
    | Policy.Auth_password s -> Printf.sprintf "kind = password\nsecret = %s" s
  in
  String.concat "\n"
    [
      "[efcp]";
      Printf.sprintf "window = %d" e.Policy.window;
      Printf.sprintf "mtu = %d" e.Policy.mtu;
      Printf.sprintf "init_rto = %g" e.Policy.init_rto;
      Printf.sprintf "min_rto = %g" e.Policy.min_rto;
      Printf.sprintf "max_rtx = %d" e.Policy.max_rtx;
      Printf.sprintf "ack_delay = %g" e.Policy.ack_delay;
      Printf.sprintf "rtx = %s" rtx;
      Printf.sprintf "cc = %s" (if e.Policy.congestion_control then "on" else "off");
      Printf.sprintf "sack_blocks = %d" e.Policy.sack_blocks;
      Printf.sprintf "reorder_window = %d" e.Policy.reorder_window;
      Printf.sprintf "max_dup_cache = %d" e.Policy.max_dup_cache;
      "[scheduler]";
      sched_lines;
      "[routing]";
      Printf.sprintf "hello_interval = %g" r.Policy.hello_interval;
      Printf.sprintf "dead_interval = %g" r.Policy.dead_interval;
      Printf.sprintf "lsa_min_interval = %g" r.Policy.lsa_min_interval;
      Printf.sprintf "refresh_ticks = %d" r.Policy.refresh_ticks;
      Printf.sprintf "keepalive_interval = %g" r.Policy.keepalive_interval;
      Printf.sprintf "dead_peer_timeout = %g" r.Policy.dead_peer_timeout;
      Printf.sprintf "lsa_max_age = %g" r.Policy.lsa_max_age;
      Printf.sprintf "anti_entropy_interval = %g" r.Policy.anti_entropy_interval;
      "[enrollment]";
      Printf.sprintf "enroll_timeout = %g" en.Policy.enroll_timeout;
      Printf.sprintf "enroll_retries = %d" en.Policy.enroll_retries;
      Printf.sprintf "retry_backoff = %g" en.Policy.retry_backoff;
      "[auth]";
      auth_lines;
      "[dif]";
      Printf.sprintf "max_ttl = %d" p.Policy.max_ttl;
      "[telemetry]";
      Printf.sprintf "trace_sample_rate = %g" p.Policy.telemetry.Policy.trace_sample_rate;
      Printf.sprintf "snapshot_interval = %g" p.Policy.telemetry.Policy.snapshot_interval;
      Printf.sprintf "flight_ring_capacity = %d"
        p.Policy.telemetry.Policy.flight_ring_capacity;
      "[congestion]";
      Printf.sprintf "mark_threshold = %d" p.Policy.congestion.Policy.mark_threshold;
      Printf.sprintf "mark_probability = %g" p.Policy.congestion.Policy.mark_probability;
      Printf.sprintf "pushback = %s"
        (if p.Policy.congestion.Policy.pushback then "on" else "off");
      Printf.sprintf "admission_max_pending = %d"
        p.Policy.congestion.Policy.admission_max_pending;
      Printf.sprintf "admission_backoff = %g"
        p.Policy.congestion.Policy.admission_backoff;
      "[multipath]";
      Printf.sprintf "probe_interval = %g" p.Policy.multipath.Policy.probe_interval;
      Printf.sprintf "suspect_misses = %d" p.Policy.multipath.Policy.suspect_misses;
      Printf.sprintf "down_misses = %d" p.Policy.multipath.Policy.down_misses;
      Printf.sprintf "reprobe_backoff = %g" p.Policy.multipath.Policy.reprobe_backoff;
      Printf.sprintf "latency = %s" (stripe_name p.Policy.multipath.Policy.latency);
      Printf.sprintf "throughput = %s" (stripe_name p.Policy.multipath.Policy.throughput);
      Printf.sprintf "background = %s" (stripe_name p.Policy.multipath.Policy.background);
      "";
    ]
