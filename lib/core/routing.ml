module Lsa = struct
  type t = {
    origin : Types.address;
    seq : int;
    neighbors : (Types.address * float) list;
  }

  let encode t =
    let module W = Rina_util.Codec.Writer in
    let w = W.create () in
    W.u32 w t.origin;
    W.u32 w t.seq;
    W.u16 w (List.length t.neighbors);
    List.iter
      (fun (addr, cost) ->
        W.u32 w addr;
        W.f64 w cost)
      t.neighbors;
    W.contents w

  let decode data =
    let module R = Rina_util.Codec.Reader in
    try
      let r = R.create data in
      let origin = R.u32 r in
      let seq = R.u32 r in
      let n = R.u16 r in
      let neighbors =
        List.init n (fun _ ->
            let addr = R.u32 r in
            let cost = R.f64 r in
            (addr, cost))
      in
      R.expect_end r;
      Ok { origin; seq; neighbors }
    with R.Decode_error msg -> Error msg

  let pp fmt t =
    Format.fprintf fmt "LSA(%d seq=%d: %s)" t.origin t.seq
      (String.concat ","
         (List.map (fun (a, c) -> Printf.sprintf "%d/%.1f" a c) t.neighbors))
end

(* Addresses are ints: hash and compare them as such, without the
   polymorphic primitives of the generic table. *)
module Slots = Hashtbl.Make (struct
  type t = Types.address

  let equal = Int.equal
  let hash a = a land max_int
end)

(* Dense index over the database, kept in step by [install] and
   [withdraw] so that SPF reads arrays instead of hashing.  Every
   address an LSA has named or originated owns a slot.  A slot's [nbr]
   and [cost] mirror its LSA's neighbour list, order and duplicates
   kept, and are empty while it has no LSA.  [usable.(i)] says whether
   that edge passes the two-way check: a->b with cost c counts only if
   b also advertises a (the cost used is a's view). *)
type node = {
  addr : Types.address;
  mutable nbr : int array;
  mutable cost : floatarray;
  mutable usable : bool array;
}

type t = {
  db : (Types.address, Lsa.t) Hashtbl.t;
  (* virtual time each origin's LSA was last installed/refreshed;
     drives aging.  An origin absent here was installed by a caller
     that never passes ~now (age 0 forever). *)
  installed_at : (Types.address, float) Hashtbl.t;
  slot_of : int Slots.t;
  mutable nodes : node array;
  (* Per-slot working arrays, reused across calls: an entry of a
     stamp array is live only while it equals the current [epoch]. *)
  mutable epoch : int;
  mutable named : int array;
  mutable reached : int array;
  mutable finished : int array;
  mutable dist : floatarray;
  mutable first_hop : Types.address array;
  mutable first_hops : Types.address list array;
  heap : int Rina_util.Heap.t;
}

let create () =
  {
    db = Hashtbl.create 32;
    installed_at = Hashtbl.create 32;
    slot_of = Slots.create 32;
    nodes = [||];
    epoch = 0;
    named = [||];
    reached = [||];
    finished = [||];
    dist = Float.Array.create 0;
    first_hop = [||];
    first_hops = [||];
    heap = Rina_util.Heap.create ();
  }

let slot t addr =
  match Slots.find_opt t.slot_of addr with
  | Some s -> s
  | None ->
    let s = Slots.length t.slot_of in
    let node = { addr; nbr = [||]; cost = Float.Array.create 0; usable = [||] } in
    if s = Array.length t.nodes then begin
      let cap = max 16 (2 * s) in
      let grow a fill = Array.append a (Array.make (cap - s) fill) in
      t.nodes <- grow t.nodes node;
      t.named <- grow t.named 0;
      t.reached <- grow t.reached 0;
      t.finished <- grow t.finished 0;
      t.first_hop <- grow t.first_hop Types.no_address;
      t.first_hops <- grow t.first_hops [];
      t.dist <- Float.Array.append t.dist (Float.Array.make (cap - s) 0.)
    end;
    t.nodes.(s) <- node;
    Slots.add t.slot_of addr s;
    s

(* [origin]'s entry in [db] was just replaced or removed.  Only edges
   with [origin] at one end can change usability: its own, and those
   of every node its old or new LSA names. *)
let reindex t origin =
  let a = slot t origin in
  let node = t.nodes.(a) in
  let before = node.nbr in
  (match Hashtbl.find_opt t.db origin with
   | None ->
     node.nbr <- [||];
     node.cost <- Float.Array.create 0
   | Some lsa ->
     node.nbr <- Array.of_list (List.map (fun (b, _) -> slot t b) lsa.Lsa.neighbors);
     node.cost <- Float.Array.of_list (List.map snd lsa.Lsa.neighbors));
  node.usable <-
    Array.map (fun b -> Array.exists (Int.equal a) t.nodes.(b).nbr) node.nbr;
  t.epoch <- t.epoch + 1;
  Array.iter (fun b -> t.named.(b) <- t.epoch) node.nbr;
  let touch x =
    let peer = t.nodes.(x) in
    let back = t.named.(x) = t.epoch in
    Array.iteri (fun i b -> if b = a then peer.usable.(i) <- back) peer.nbr
  in
  Array.iter (fun x -> if t.named.(x) <> t.epoch then touch x) before;
  Array.iter touch node.nbr

let install ?(now = 0.) t (lsa : Lsa.t) =
  match Hashtbl.find_opt t.db lsa.Lsa.origin with
  | Some existing when existing.Lsa.seq > lsa.Lsa.seq -> false
  | Some existing when existing.Lsa.seq = lsa.Lsa.seq ->
    (* Duplicate: not a change (don't re-flood), but the origin proved
       itself alive, so refresh its age. *)
    Hashtbl.replace t.installed_at lsa.Lsa.origin now;
    false
  | Some _ | None ->
    Hashtbl.replace t.db lsa.Lsa.origin lsa;
    Hashtbl.replace t.installed_at lsa.Lsa.origin now;
    reindex t lsa.Lsa.origin;
    (* An accepted LSA is a routing-state change: events carry the
       origin as the flow field and the LSA sequence number. *)
    if Rina_util.Flight.enabled () then
      Rina_util.Flight.emit ~component:"routing" ~flow:lsa.Lsa.origin
        ~seq:lsa.Lsa.seq Rina_util.Flight.Route_update;
    true

let withdraw t origin =
  if Hashtbl.mem t.db origin then begin
    Hashtbl.remove t.db origin;
    Hashtbl.remove t.installed_at origin;
    reindex t origin;
    true
  end
  else false

let expired t ~now ~max_age =
  if max_age <= 0. then []
  else
    Hashtbl.fold
      (fun origin _ acc ->
        let at =
          match Hashtbl.find_opt t.installed_at origin with
          | Some at -> at
          | None -> 0.
        in
        if now -. at > max_age then origin :: acc else acc)
      t.db []
    |> List.sort compare

let clear t =
  Hashtbl.reset t.db;
  Hashtbl.reset t.installed_at;
  Slots.reset t.slot_of

let lsa_of t origin = Hashtbl.find_opt t.db origin

let origins t =
  Hashtbl.fold (fun origin _ acc -> origin :: acc) t.db [] |> List.sort compare

let all t = Hashtbl.fold (fun _ lsa acc -> lsa :: acc) t.db []

type next_hops = (Types.address, Types.address * float) Hashtbl.t

type ecmp_hops = (Types.address, Types.address list * float) Hashtbl.t

(* Union of two sorted, duplicate-free first-hop sets. *)
let rec merge (a : Types.address list) b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
    if x < y then x :: merge a' b
    else if y < x then y :: merge a b'
    else x :: merge a' b'

(* Dijkstra over the index.  The single next hop is the first hop at a
   node's last strict improvement.  With [ecmp], each node also carries
   the sorted set of first hops merged on cost ties during relaxation;
   ties discovered only between two already-equal finished nodes are
   not chased (a predecessor-DAG pass could find more, but partial ECMP
   is fine — what matters is that the result is deterministic).  Heap
   ties pop in push order, so both tables are a function of the
   database alone, not of slot numbering. *)
let shortest_paths t ~source ~ecmp =
  let hops : next_hops = Hashtbl.create 32 in
  let sets : ecmp_hops option = if ecmp then Some (Hashtbl.create 32) else None in
  if Hashtbl.mem t.db source then begin
    let src = Slots.find t.slot_of source in
    t.epoch <- t.epoch + 1;
    let run = t.epoch and heap = t.heap in
    t.reached.(src) <- run;
    Float.Array.set t.dist src 0.;
    Rina_util.Heap.push heap 0. src;
    while not (Rina_util.Heap.is_empty heap) do
      let cost = Rina_util.Heap.top_key heap and u = Rina_util.Heap.top_value heap in
      Rina_util.Heap.drop_min heap;
      if t.finished.(u) <> run then begin
        t.finished.(u) <- run;
        let node = t.nodes.(u) in
        if u <> src then begin
          Hashtbl.add hops node.addr (t.first_hop.(u), cost);
          match sets with
          | Some s -> Hashtbl.add s node.addr (t.first_hops.(u), cost)
          | None -> ()
        end;
        for i = 0 to Array.length node.nbr - 1 do
          let v = node.nbr.(i) in
          if node.usable.(i) && t.finished.(v) <> run then begin
            let ncost = cost +. Float.Array.get node.cost i in
            if t.reached.(v) <> run || ncost < Float.Array.get t.dist v then begin
              t.reached.(v) <- run;
              Float.Array.set t.dist v ncost;
              if u = src then begin
                t.first_hop.(v) <- t.nodes.(v).addr;
                if ecmp then t.first_hops.(v) <- [ t.nodes.(v).addr ]
              end
              else begin
                t.first_hop.(v) <- t.first_hop.(u);
                if ecmp then t.first_hops.(v) <- t.first_hops.(u)
              end;
              Rina_util.Heap.push heap ncost v
            end
            else if ecmp && ncost = Float.Array.get t.dist v then
              t.first_hops.(v) <-
                merge
                  (if u = src then [ t.nodes.(v).addr ] else t.first_hops.(u))
                  t.first_hops.(v)
          end
        done
      end
    done
  end;
  (hops, sets)

let spf t ~source = fst (shortest_paths t ~source ~ecmp:false)

let size t = Hashtbl.length t.db
