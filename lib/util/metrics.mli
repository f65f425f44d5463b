(** Named counters, gauges and histograms grouped in registries.

    Components (EFCP instances, routers, schedulers) increment counters
    through a registry; experiments read them afterwards to report
    message overheads, retransmission counts, update scopes, etc.
    Gauges hold last-written float samples (queue depths, window
    occupancy); histograms bucket distributions with fixed edges
    (reusing {!Stats.Histogram}). *)

type t
(** A registry of named counters, gauges and histograms.  The three
    namespaces are independent. *)

val create : unit -> t

val incr : t -> string -> unit
(** Increment by one, creating the counter at zero if needed. *)

val add : t -> string -> int -> unit
(** Add a (possibly negative) amount.  The counter is clamped at zero:
    a negative delta can never drive it below zero, since a negative
    tally reads as corruption everywhere counters are consumed. *)

val get : t -> string -> int
(** Current value; 0 for a counter never touched. *)

(** {2 Counter handles}

    A handle names one counter of one registry, resolved once (at
    component creation) so a per-PDU increment is a field bump rather
    than a string hash.  Handles and names address the same cells:
    [get], [to_list] and [pp] cannot tell how a counter was bumped.  A
    handle registers its name on its first bump, so one that is never
    bumped leaves the registry untouched; it stays live across
    {!reset}. *)

type counter

val counter : t -> string -> counter

val bump : counter -> unit
(** [bump c] is [incr reg name]. *)

val bump_by : counter -> int -> unit
(** [bump_by c n] is [add reg name n], with the same clamp at zero. *)

val value : counter -> int
(** [get reg name]. *)

type gauge_handle

val gauge_handle : t -> string -> gauge_handle

val raise_gauge : gauge_handle -> float -> unit
(** High-water mark: [raise_gauge g v] sets the gauge to [v] when [v]
    exceeds its current value (0. for a gauge never written), and
    registers nothing otherwise. *)

val reset : t -> unit
(** Zero every counter and gauge (names stay registered) and drop all
    histograms. *)

val to_list : t -> (string * int) list
(** All counters, sorted by name. *)

val set_gauge : t -> string -> float -> unit
(** Record the latest sample of a float-valued quantity. *)

val gauge : t -> string -> float
(** Last value set; 0. for a gauge never written. *)

val gauges : t -> (string * float) list
(** All gauges, sorted by name. *)

val observe : t -> ?lo:float -> ?hi:float -> ?bins:int -> string -> float -> unit
(** Add one sample to the named fixed-bucket histogram, creating it
    with the given shape (default 20 bins over \[0, 1\]) on first use;
    the shape arguments are ignored afterwards.  Out-of-range samples
    clamp into the edge bins. *)

val histogram : t -> string -> Stats.Histogram.h option

val histograms : t -> (string * Stats.Histogram.h) list
(** All histograms, sorted by name. *)

val pp : Format.formatter -> t -> unit
(** Prints counters ([name=3]), then gauges ([name=0.5]), then
    histograms ([name=\[0;2;1\]]), each group sorted by name. *)
