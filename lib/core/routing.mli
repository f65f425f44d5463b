(** Link-state routing over the graph of a DIF's IPC processes.

    This module is the computational core only — the link-state
    database and shortest-path-first — deliberately free of I/O.  The
    IPC process floods {!Lsa.t}s in RIEP [M_write] messages, calls
    {!install} on reception, and rebuilds its forwarding table from
    {!shortest_paths} when the database changes.

    Routes are computed over *node addresses* ("a route is a sequence
    of node addresses"); selecting the point of attachment to the next
    hop is the second step (Fig. 4) and lives with the RMT's port
    choice, not here. *)

module Lsa : sig
  type t = {
    origin : Types.address;
    seq : int;  (** per-origin monotone version *)
    neighbors : (Types.address * float) list;  (** (neighbour, cost) *)
  }

  val encode : t -> bytes
  val decode : bytes -> (t, string) result
  val pp : Format.formatter -> t -> unit
end

type t

val create : unit -> t

val install : ?now:float -> t -> Lsa.t -> bool
(** Insert if newer than the stored version for that origin; [true]
    means the database changed and the LSA should be flooded on.
    [now] (virtual time, default 0) stamps the entry for {!expired};
    a duplicate of the stored sequence number refreshes the stamp
    without reporting a change — the origin proved itself alive.  An
    accepted LSA updates the {!shortest_paths} index for its origin
    and for the nodes its old or new version names; a duplicate leaves
    the index alone. *)

val withdraw : t -> Types.address -> bool
(** Remove an origin's LSA entirely (member left or declared dead);
    [true] if present.  Updates the index like {!install}. *)

val expired : t -> now:float -> max_age:float -> Types.address list
(** Origins whose LSA has not been (re-)installed within [max_age]
    seconds of [now], sorted.  Empty when [max_age <= 0] (aging
    disabled). *)

val clear : t -> unit
(** Drop the whole database — an IPCP losing its state on crash. *)

val lsa_of : t -> Types.address -> Lsa.t option

val origins : t -> Types.address list
(** All origins present, sorted. *)

val all : t -> Lsa.t list

type next_hops = (Types.address, Types.address * float) Hashtbl.t
(** destination → (next-hop address, path cost) *)

type ecmp_hops = (Types.address, Types.address list * float) Hashtbl.t
(** destination → (sorted equal-cost first hops, path cost) *)

val shortest_paths :
  t -> source:Types.address -> ecmp:bool -> next_hops * ecmp_hops option
(** One Dijkstra pass from [source] over an index of the database that
    {!install} and {!withdraw} keep up to date, so a run reads arrays
    and allocates little beyond its result tables.  An edge is used
    only if both endpoints advertise it (two-way check), which keeps
    transients loop-free.  The source itself appears in neither table,
    and a source with no LSA gets empty tables.

    The next hop toward a destination is the first hop of the path
    that last strictly improved its cost, so it need not be the
    smallest address of the equal-cost set.  With [~ecmp:true] the pass
    also returns, per destination, the sorted set of first hops that
    start an equal-cost path, merged on cost ties during relaxation.
    The multihoming layer unions the live ports toward each listed
    first hop into the candidate path set.  Ties found only between
    two already-finished equal nodes are not chased, so the set can be
    partial; it is deterministic for a given database.  With
    [~ecmp:false] the second component is [None]. *)

val spf : t -> source:Types.address -> next_hops
(** [fst (shortest_paths t ~source ~ecmp:false)]. *)

val size : t -> int
(** Number of LSAs stored (per-node routing-state metric for C1). *)
