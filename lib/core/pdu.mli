(** Protocol data unit of an IPC layer.

    One PDU format serves the whole DIF: data transfer ([Dtp]), EFCP
    acknowledgement/flow-control ([Ack]), layer management ([Mgmt],
    carrying an encoded RIEP message) and neighbour-scope identity
    announcements ([Hello]).  PDUs are serialised to bytes whenever
    they cross an (N-1) boundary, so lower layers see opaque frames. *)

type pdu_type =
  | Dtp    (** user data, sequenced by EFCP *)
  | Ack    (** cumulative acknowledgement + credit window *)
  | Mgmt   (** RIEP message for the IPC management task *)
  | Hello  (** neighbour-scope: sender identity for the receiving port *)

type t = {
  pdu_type : pdu_type;
  dst_addr : Types.address;  (** 0 = neighbour scope (this hop only) *)
  src_addr : Types.address;
  dst_cep : Types.cep_id;
  src_cep : Types.cep_id;
  qos_id : Types.qos_id;
  seq : int;      (** DTP sequence number *)
  ack : int;      (** ACK: next expected sequence number *)
  window : int;   (** ACK: receive credit in PDUs *)
  ttl : int;
  flags : int;
  payload : bytes;
}

val flag_drf : int
(** Data-run flag: first PDU of a connection's data run. *)

val flag_fin : int
(** Final PDU of a flow. *)

val flag_ecn : int
(** Congestion-experienced mark: set by an RMT whose queue is over the
    DIF's [mark_threshold] (or by push-back from a congested lower
    flow); the receiving EFCP echoes it on acks so the sender backs
    off without a loss. *)

val has_flag : t -> int -> bool

val make :
  pdu_type:pdu_type ->
  dst_addr:Types.address ->
  src_addr:Types.address ->
  ?dst_cep:Types.cep_id ->
  ?src_cep:Types.cep_id ->
  ?qos_id:Types.qos_id ->
  ?seq:int ->
  ?ack:int ->
  ?window:int ->
  ?ttl:int ->
  ?flags:int ->
  bytes ->
  t
(** Build a PDU; defaults: ceps 0, qos 0, seq/ack/window 0, ttl 32,
    flags 0. *)

val encode_frame : t -> bytes
(** Wire form (starting with a version byte) with the {!Sdu_protection}
    trailer already appended, in a single allocation — what a sending
    EFCP hands to the RMT, valid to put on an (N-1) channel as-is. *)

val decode_sub : bytes -> len:int -> (t, string) result
(** Parse the PDU occupying the first [len] bytes of the buffer, so a
    protected frame is decoded in place without copying the body out
    of it first ([len] excludes the trailer; see
    {!Sdu_protection.verify_len}).  [Error] describes the first
    malformation. *)

val decode_header : bytes -> len:int -> (t, string) result
(** Like {!decode_sub} but leaves [payload = Bytes.empty] instead of
    copying it — sufficient for relay decisions, which read header
    fields only. *)

val header_size : int
(** Bytes of header {!encode_frame} writes before the payload. *)

val encoded_size : t -> int
(** [header_size + Bytes.length payload]. *)

val ttl_offset : int
(** Byte offset of the TTL field in the wire form — a relay decrements
    it in place in a copied frame rather than re-encoding the PDU. *)

val flags_offset : int
(** Byte offset of the flags field, for in-place marking. *)

(** Read individual header fields straight out of an encoded frame
    (which must have passed [Sdu_protection.verify_len]). *)
module Peek : sig
  val dst_addr : bytes -> int

  val dst_cep : bytes -> int

  val seq : bytes -> int

  val flags : bytes -> int

  val is_dtp : bytes -> bool

  val span : bytes -> int
  (** Flight-recorder trace id, equal to {!span} of the decoded PDU. *)
end

val frame_has_ecn : bytes -> bool
(** Whether an encoded frame already carries {!flag_ecn}. *)

val mark_ecn_frame : bytes -> unit
(** Set {!flag_ecn} in an encoded, protected frame in place and patch
    the {!Sdu_protection} trailer with {!Sdu_protection.set_byte}
    (no-op if already marked).  The trailer must be valid on entry. *)

val pp : Format.formatter -> t -> unit

val flow_key : t -> int
(** Flight-recorder flow key: destination address and CEP packed into
    one int, identical at the sender, every decoding relay and the
    receiver. *)

val span : t -> int
(** Flight-recorder trace id for a [Dtp] PDU
    ([Rina_util.Flight.span_of] over {!flow_key} and [seq]); 0 for
    other PDU types. *)
