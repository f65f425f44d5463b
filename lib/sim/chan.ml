type t = {
  send : bytes -> unit;
  set_receiver : (bytes -> unit) -> unit;
  is_up : unit -> bool;
  on_carrier : (bool -> unit) -> unit;
  stats : Rina_util.Metrics.t;
}

let null () =
  let stats = Rina_util.Metrics.create () in
  let tx = Rina_util.Metrics.counter stats "tx" in
  {
    send = (fun _ -> Rina_util.Metrics.bump tx);
    set_receiver = (fun _ -> ());
    is_up = (fun () -> true);
    on_carrier = (fun _ -> ());
    stats;
  }

let pair () =
  let receiver_a = ref (fun (_ : bytes) -> ())
  and receiver_b = ref (fun (_ : bytes) -> ()) in
  let stats_a = Rina_util.Metrics.create ()
  and stats_b = Rina_util.Metrics.create () in
  let endpoint my_stats my_receiver peer_receiver peer_stats =
    let tx = Rina_util.Metrics.counter my_stats "tx"
    and tx_bytes = Rina_util.Metrics.counter my_stats "tx_bytes"
    and rx = Rina_util.Metrics.counter peer_stats "rx"
    and rx_bytes = Rina_util.Metrics.counter peer_stats "rx_bytes" in
    {
      send =
        (fun frame ->
          Rina_util.Metrics.bump tx;
          Rina_util.Metrics.bump_by tx_bytes (Bytes.length frame);
          Rina_util.Metrics.bump rx;
          Rina_util.Metrics.bump_by rx_bytes (Bytes.length frame);
          !peer_receiver frame);
      set_receiver = (fun f -> my_receiver := f);
      is_up = (fun () -> true);
      on_carrier = (fun _ -> ());
      stats = my_stats;
    }
  in
  ( endpoint stats_a receiver_a receiver_b stats_b,
    endpoint stats_b receiver_b receiver_a stats_a )
