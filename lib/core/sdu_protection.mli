(** SDU protection: integrity check appended to every frame a DIF hands
    to the layer below.

    Implements CRC-32 (IEEE 802.3 polynomial) with slicing-by-8: eight
    256-entry tables, built eagerly at module initialisation so every
    domain can use them, fold eight bytes per step.  A member
    receiving a frame that fails the check drops it — this is also the
    first line of defence against the injection attack in experiment
    C2, since an attacker that is not a member does not even share the
    framing discipline. *)

val crc32 : bytes -> int
(** CRC-32 of the whole byte string (masked to 32 bits). *)

val crc32_sub : bytes -> pos:int -> len:int -> int
(** CRC-32 of a sub-range, without copying it out.
    @raise Invalid_argument if [pos < 0], [len < 0] or
    [pos + len > Bytes.length data]. *)

val seal : bytes -> unit
(** Compute the CRC of a frame's body (all but its last {!overhead}
    bytes) and store it in the trailer, in place.  To change one byte
    of an already sealed frame, {!set_byte} avoids rereading the
    body. *)

val set_byte : bytes -> pos:int -> int -> unit
(** [set_byte frame ~pos v] stores the low 8 bits of [v] at body offset
    [pos] of a sealed frame and patches the trailer by CRC linearity
    (the CRC analogue of RFC 1624's incremental checksum), with the
    same result as setting the byte and calling {!seal}.  It does not
    reread the body: the cost is one polynomial product per non-zero
    base-256 digit of the number of body bytes after [pos] (at most
    two below 64 KiB).

    The trailer must already be valid: the caller verified the frame
    ({!verify_len}) or built it.  The function never launders: it
    moves the stored CRC by exactly the change in the body's CRC, so a
    frame whose trailer was wrong stays wrong and still fails
    {!verify_len}.  Setting the byte to its current value leaves the
    frame untouched.
    @raise Invalid_argument unless [0 <= pos < Bytes.length frame - overhead]. *)

val verify_len : bytes -> int option
(** Check the trailer and return the body length without copying;
    [None] if too short or corrupt.  The hot path reads header fields
    straight out of the frame. *)

val overhead : int
(** Bytes of the trailer: a 4-byte big-endian CRC after the body. *)
