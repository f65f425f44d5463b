(* Parallel-array layout: keys in an unboxed float array, sequence
   numbers and payloads alongside.  A push allocates nothing beyond
   amortised array growth (the classic record-of-entries layout costs a
   record plus a boxed float per insert), and the hot comparisons read
   unboxed floats. *)

type 'a t = {
  mutable keys : floatarray;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  {
    keys = Float.Array.create 0;
    seqs = [||];
    vals = [||];
    size = 0;
    next_seq = 0;
  }

let[@inline] length h = h.size

let[@inline] is_empty h = h.size = 0

(* Single growth path: the value being inserted doubles as the fill
   element, so growing from empty needs no reachable dummy and there is
   no [vals.(0)] access to go out of bounds. *)
let ensure_room h value =
  let cap = Array.length h.vals in
  if h.size = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let keys = Float.Array.create ncap in
    Float.Array.blit h.keys 0 keys 0 h.size;
    let seqs = Array.make ncap 0 in
    Array.blit h.seqs 0 seqs 0 h.size;
    let vals = Array.make ncap value in
    Array.blit h.vals 0 vals 0 h.size;
    h.keys <- keys;
    h.seqs <- seqs;
    h.vals <- vals
  end

(* Both sifts move a hole instead of swapping: the entry being placed
   is carried in registers, each level shifts one entry into the hole
   (one write per array per level), and the carried entry is written
   once at the end.  [(k, s)] sorts before [(k', s')] if its key is
   smaller, or on equal keys if it was inserted earlier — FIFO
   semantics for simultaneous events, which keeps simulations
   deterministic.  The comparisons read the unboxed key and seq arrays
   inline.  [sift_down] reads its carried entry from slot [src] rather
   than taking the key as an argument, which would box it on every
   pop. *)

let sift_up h start key seq value =
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
  let i = ref start in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pk = Float.Array.get keys parent in
    if key < pk || (key = pk && seq < seqs.(parent)) then begin
      Float.Array.set keys !i pk;
      seqs.(!i) <- seqs.(parent);
      vals.(!i) <- vals.(parent);
      i := parent
    end
    else continue := false
  done;
  Float.Array.set keys !i key;
  seqs.(!i) <- seq;
  vals.(!i) <- value

let push_raw h key seq value =
  ensure_room h value;
  h.size <- h.size + 1;
  sift_up h (h.size - 1) key seq value

let push h key value =
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  push_raw h key seq value

let reserve_seq h =
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  seq

let push_with_seq h ~key ~seq value =
  if seq >= h.next_seq then h.next_seq <- seq + 1;
  push_raw h key seq value

let sift_down h hole src =
  let keys = h.keys and seqs = h.seqs and vals = h.vals and size = h.size in
  let key = Float.Array.get keys src and seq = seqs.(src) and value = vals.(src) in
  let i = ref hole in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= size then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < size then begin
          let kl = Float.Array.get keys l and kr = Float.Array.get keys r in
          if kr < kl || (kr = kl && seqs.(r) < seqs.(l)) then r else l
        end
        else l
      in
      let ck = Float.Array.get keys c in
      if ck < key || (ck = key && seqs.(c) < seq) then begin
        Float.Array.set keys !i ck;
        seqs.(!i) <- seqs.(c);
        vals.(!i) <- vals.(c);
        i := c
      end
      else continue := false
    end
  done;
  Float.Array.set keys !i key;
  seqs.(!i) <- seq;
  vals.(!i) <- value

(* Unboxed access: the engine's event loop reads the top fields and
   drops the minimum without materialising an option or a tuple. *)

let[@inline] top_key h =
  if h.size = 0 then invalid_arg "Heap.top_key: empty heap";
  Float.Array.get h.keys 0

let[@inline] top_value h =
  if h.size = 0 then invalid_arg "Heap.top_value: empty heap";
  h.vals.(0)

let drop_min h =
  if h.size = 0 then invalid_arg "Heap.drop_min: empty heap";
  let last = h.size - 1 in
  h.size <- last;
  if last > 0 then
    sift_down h 0 last

let pop h =
  if h.size = 0 then None
  else begin
    let key = Float.Array.get h.keys 0 and value = h.vals.(0) in
    drop_min h;
    Some (key, value)
  end

let peek h =
  if h.size = 0 then None else Some (Float.Array.get h.keys 0, h.vals.(0))

(* Drop every entry whose value fails [keep], then rebuild the heap
   property bottom-up (Floyd, O(n)).  Seq numbers are untouched, so
   FIFO ordering among surviving equal-key entries is preserved. *)
let compact h ~keep =
  let kept = ref 0 in
  for i = 0 to h.size - 1 do
    if keep h.vals.(i) then begin
      if !kept <> i then begin
        Float.Array.set h.keys !kept (Float.Array.get h.keys i);
        h.seqs.(!kept) <- h.seqs.(i);
        h.vals.(!kept) <- h.vals.(i)
      end;
      incr kept
    end
  done;
  let removed = h.size - !kept in
  h.size <- !kept;
  for i = (h.size / 2) - 1 downto 0 do
    sift_down h i i
  done;
  removed

let clear h =
  h.size <- 0;
  h.keys <- Float.Array.create 0;
  h.seqs <- [||];
  h.vals <- [||]
