(* In-memory span recorder.  Spans are kept as parallel int arrays
   (no per-span allocation, nothing for the GC to scan beyond the
   arrays themselves); self time is settled when a span closes, since
   spans nest strictly on one call stack. *)

type layer = Rx_dtp | Rx_ack | Rx_mgmt | Carrier | Efcp_send | Link_tx | App_rx

let layers = [ Rx_dtp; Rx_ack; Rx_mgmt; Carrier; Efcp_send; Link_tx; App_rx ]

let n_layers = List.length layers

let layer_index = function
  | Rx_dtp -> 0
  | Rx_ack -> 1
  | Rx_mgmt -> 2
  | Carrier -> 3
  | Efcp_send -> 4
  | Link_tx -> 5
  | App_rx -> 6

let layer_name = function
  | Rx_dtp -> "ipcp.rx_dtp"
  | Rx_ack -> "ipcp.rx_ack"
  | Rx_mgmt -> "ipcp.rx_mgmt"
  | Carrier -> "ipcp.carrier"
  | Efcp_send -> "efcp.send"
  | Link_tx -> "link.tx"
  | App_rx -> "app.rx"

let max_rank = 4

type t = {
  clock : unit -> int;
  mutable n : int;
  mutable kind : int array;  (* layer index + n_layers * rank *)
  mutable id : int array;
  mutable parent : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  (* open spans: index and the ns already covered by closed children *)
  mutable depth : int;
  stack : int array;
  covered : int array;
  (* running totals per kind, over every span ever closed *)
  count : int array;
  self : int array;
  mutable root_ns : int;
}

let monotonic_ns () = Int64.to_int (Monotonic_clock.now ())

let create ?(clock = monotonic_ns) () =
  let cap = 1024 and kinds = n_layers * (max_rank + 1) in
  {
    clock;
    n = 0;
    kind = Array.make cap 0;
    id = Array.make cap 0;
    parent = Array.make cap 0;
    t0 = Array.make cap 0;
    t1 = Array.make cap 0;
    depth = 0;
    stack = Array.make 256 0;
    covered = Array.make 256 0;
    count = Array.make kinds 0;
    self = Array.make kinds 0;
    root_ns = 0;
  }

let grow a = Array.append a (Array.make (Array.length a) 0)

let enter t layer ~rank ~id =
  if t.n = Array.length t.kind then begin
    t.kind <- grow t.kind;
    t.id <- grow t.id;
    t.parent <- grow t.parent;
    t.t0 <- grow t.t0;
    t.t1 <- grow t.t1
  end;
  let i = t.n in
  t.n <- i + 1;
  t.kind.(i) <- layer_index layer + (n_layers * min rank max_rank);
  t.id.(i) <- id;
  t.parent.(i) <- (if t.depth = 0 then -1 else t.stack.(t.depth - 1));
  t.stack.(t.depth) <- i;
  t.covered.(t.depth) <- 0;
  t.depth <- t.depth + 1;
  t.t0.(i) <- t.clock ();
  i

let leave t i =
  let now = t.clock () in
  t.t1.(i) <- now;
  t.depth <- t.depth - 1;
  let dur = now - t.t0.(i) in
  let k = t.kind.(i) in
  t.count.(k) <- t.count.(k) + 1;
  t.self.(k) <- t.self.(k) + dur - t.covered.(t.depth);
  if t.depth = 0 then t.root_ns <- t.root_ns + dur
  else t.covered.(t.depth - 1) <- t.covered.(t.depth - 1) + dur

let span t layer ~rank ~id f x =
  let i = enter t layer ~rank ~id in
  match f x with
  | r ->
    leave t i;
    r
  | exception e ->
    leave t i;
    raise e

let length t = t.n

let root_ns t = t.root_ns

(* A per-kind total, for one rank or summed over all. *)
let total arr ?rank layer =
  let at r = arr.(layer_index layer + (n_layers * r)) in
  match rank with
  | Some r -> at r
  | None -> List.fold_left (fun acc r -> acc + at r) 0 (List.init (max_rank + 1) Fun.id)

let count t ?rank layer = total t.count ?rank layer

let self_ns t ?rank layer = total t.self ?rank layer

let reset t =
  t.n <- 0;
  t.root_ns <- 0;
  Array.fill t.count 0 (Array.length t.count) 0;
  Array.fill t.self 0 (Array.length t.self) 0

let write t oc =
  output_string oc "index\tname\trank\tspan\tparent\tstart_ns\tend_ns\n";
  for i = 0 to t.n - 1 do
    let k = t.kind.(i) in
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\t%d\n" i
      (layer_name (List.nth layers (k mod n_layers)))
      (k / n_layers) t.id.(i) t.parent.(i) t.t0.(i) t.t1.(i)
  done
