(* Gauges and histograms are rare next to counters (most registries,
   one per EFCP instance among them, never write one), so their tables
   are created on first write: even a [Hashtbl.create 4] holds 16
   buckets. *)
type t = {
  counters : (string, int ref) Hashtbl.t;
  mutable gauges : (string, float ref) Hashtbl.t option;
  mutable hists : (string, Stats.Histogram.h) Hashtbl.t option;
}

let create () = { counters = Hashtbl.create 16; gauges = None; hists = None }

(* Exception-style lookup: [find_opt] allocates a [Some] per hit and
   [incr] runs on every PDU, so the hot path keeps the hit case
   allocation-free. *)
let find t name =
  match Hashtbl.find t.counters name with
  | r -> r
  | exception Not_found ->
    let r = ref 0 in
    Hashtbl.add t.counters name r;
    r

let incr t name = Stdlib.incr (find t name)

(* Counters are monotone-ish tallies; a negative delta larger than the
   current value clamps at zero rather than silently going negative
   (which every reader treats as "impossible"). *)
let add t name n =
  let r = find t name in
  r := max 0 (!r + n)

let get t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

(* ---------- counter handles ----------

   A handle caches the counter's cell so a per-PDU bump is a field
   load and an increment, with no string hashing.  It binds lazily:
   until the first bump it points at [unbound] (shared, never written),
   so a handle that is never bumped registers no name and [to_list]
   reads exactly as if the name API had been used. *)

type counter = { reg : t; name : string; mutable cell : int ref }

let unbound = ref 0

let counter t name = { reg = t; name; cell = unbound }

let bind c =
  let r = find c.reg c.name in
  c.cell <- r;
  r

let[@inline] cell c = if c.cell == unbound then bind c else c.cell

let[@inline] bump c = Stdlib.incr (cell c)

let bump_by c n =
  let r = cell c in
  r := max 0 (!r + n)

let value c = if c.cell == unbound then get c.reg c.name else !(c.cell)

let to_list t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---------- gauges ---------- *)

let find_gauge t name =
  let gauges =
    match t.gauges with
    | Some g -> g
    | None ->
      let g = Hashtbl.create 4 in
      t.gauges <- Some g;
      g
  in
  match Hashtbl.find_opt gauges name with
  | Some r -> r
  | None ->
    let r = ref 0. in
    Hashtbl.add gauges name r;
    r

let set_gauge t name v = find_gauge t name := v

let gauge t name =
  match t.gauges with
  | None -> 0.
  | Some g -> ( match Hashtbl.find_opt g name with Some r -> !r | None -> 0.)

type gauge_handle = { greg : t; gname : string; mutable gcell : float ref }

let unbound_gauge = ref 0.

let gauge_handle t name = { greg = t; gname = name; gcell = unbound_gauge }

let raise_gauge g v =
  let cur = if g.gcell == unbound_gauge then gauge g.greg g.gname else !(g.gcell) in
  if v > cur then begin
    if g.gcell == unbound_gauge then g.gcell <- find_gauge g.greg g.gname;
    g.gcell := v
  end

let sorted = function
  | None -> []
  | Some tbl ->
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let gauges t = List.map (fun (name, r) -> (name, !r)) (sorted t.gauges)

(* ---------- fixed-bucket histograms ---------- *)

let observe t ?(lo = 0.) ?(hi = 1.) ?(bins = 20) name x =
  let hists =
    match t.hists with
    | Some hs -> hs
    | None ->
      let hs = Hashtbl.create 4 in
      t.hists <- Some hs;
      hs
  in
  let h =
    match Hashtbl.find_opt hists name with
    | Some h -> h
    | None ->
      let h = Stats.Histogram.create ~lo ~hi ~bins in
      Hashtbl.add hists name h;
      h
  in
  Stats.Histogram.add h x

let histogram t name = Option.bind t.hists (fun hs -> Hashtbl.find_opt hs name)

let histograms t = sorted t.hists

let reset t =
  Hashtbl.iter (fun _ r -> r := 0) t.counters;
  Option.iter (Hashtbl.iter (fun _ r -> r := 0.)) t.gauges;
  t.hists <- None

let pp fmt t =
  List.iter (fun (name, v) -> Format.fprintf fmt "%s=%d@ " name v) (to_list t);
  List.iter (fun (name, v) -> Format.fprintf fmt "%s=%g@ " name v) (gauges t);
  List.iter
    (fun (name, h) ->
      Format.fprintf fmt "%s=[%s]@ " name
        (String.concat ";"
           (Array.to_list (Array.map string_of_int (Stats.Histogram.counts h)))))
    (histograms t)
