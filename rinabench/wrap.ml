(* Spans at the channel boundary.  Every [Chan.t] the benchmark hands
   to [Dif.connect], every [flow.send] and every application receive
   callback goes through one of these wrappers; with no recorder the
   original value is returned untouched, so an untraced run executes
   exactly the library's code. *)

module Chan = Rina_sim.Chan
module Pdu = Rina_core.Pdu
module Ipcp = Rina_core.Ipcp

(* A protected frame is header + payload + CRC trailer; anything
   shorter cannot be a frame the peer will accept. *)
let min_frame = Pdu.header_size + Rina_core.Sdu_protection.overhead

(* [Pdu.Peek] tells DTP frames apart; the type byte (offset 1, Ack = 1
   in the wire format) splits the rest without decoding the frame. *)
let classify frame =
  if Bytes.length frame < min_frame then Span.Rx_mgmt
  else if Pdu.Peek.is_dtp frame then Span.Rx_dtp
  else if Bytes.get_uint8 frame 1 = 1 then Span.Rx_ack
  else Span.Rx_mgmt

let frame_id frame =
  if Bytes.length frame >= min_frame && Pdu.Peek.is_dtp frame then
    Pdu.Peek.span frame
  else 0

(* [tx] names the layer a send enters: [Link_tx] for a physical
   medium, [Efcp_send] (at [rank - 1]) for a flow of the DIF below. *)
let chan rec_opt ~rank ~tx (c : Chan.t) =
  match rec_opt with
  | None -> c
  | Some r ->
    let tx_rank = match tx with Span.Efcp_send -> rank - 1 | _ -> rank in
    {
      c with
      Chan.send =
        (fun frame ->
          Span.span r tx ~rank:tx_rank ~id:(frame_id frame) c.Chan.send frame);
      set_receiver =
        (fun k ->
          c.Chan.set_receiver (fun frame ->
              Span.span r (classify frame) ~rank ~id:(frame_id frame) k frame));
      on_carrier =
        (fun w ->
          c.Chan.on_carrier (fun up -> Span.span r Span.Carrier ~rank ~id:0 w up));
    }

let send rec_opt ~rank (flow : Ipcp.flow) =
  match rec_opt with
  | None -> flow.Ipcp.send
  | Some r -> fun sdu -> Span.span r Span.Efcp_send ~rank ~id:0 flow.Ipcp.send sdu

let receiver rec_opt ~rank k =
  match rec_opt with
  | None -> k
  | Some r -> fun sdu -> Span.span r Span.App_rx ~rank ~id:0 k sdu
