(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8.

   [tables] holds eight 256-entry tables back to back: entry
   [k * 256 + n] is the CRC state after byte [n] followed by [k] zero
   bytes, so one step folds eight input bytes with eight independent
   lookups instead of a chain of eight dependent ones.  Everything is
   computed eagerly: concurrent [Lazy.force] from two domains can raise
   [Lazy.Undefined], and parallel trial runners hit this module from
   every worker. *)
let poly = 0xEDB88320

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := poly lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(prev land 0xFF) lxor (prev lsr 8)
    done
  done;
  t

external unsafe_get32 : bytes -> int -> int32 = "%caml_bytes_get32u"

external swap32 : int32 -> int32 = "%bswap_int32"

(* Little-endian 32-bit load as a non-negative int; the caller has
   bounds-checked [i .. i+3]. *)
let get32_le b i =
  let v = unsafe_get32 b i in
  Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xFFFFFFFF

let crc32_sub data ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length data - len then
    invalid_arg "Sdu_protection.crc32_sub";
  let t = tables in
  let crc = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop8 = pos + len - 8 in
  while !i <= stop8 do
    let lo = !crc lxor get32_le data !i in
    let hi = get32_le data (!i + 4) in
    crc :=
      Array.unsafe_get t (0x700 + (lo land 0xFF))
      lxor Array.unsafe_get t (0x600 + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t (0x500 + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t (0x400 + (lo lsr 24))
      lxor Array.unsafe_get t (0x300 + (hi land 0xFF))
      lxor Array.unsafe_get t (0x200 + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (0x100 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get data j) in
    crc := Array.unsafe_get t ((!crc lxor byte) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let crc32 data = crc32_sub data ~pos:0 ~len:(Bytes.length data)

(* Polynomial arithmetic modulo the CRC polynomial P, as in zlib's
   crc32_combine, in the reflected bit order of the tables: bit 31
   holds the coefficient of x^0 and bit 0 that of x^31.  [mulx b] is
   b*x mod P. *)
let mulx b = (b lsr 1) lxor (poly land -(b land 1))

(* b*x^4 = (b lsr 4) lxor x4.(b land 15): the low nibble is what
   crosses x^31 and needs reducing. *)
let x4 = Array.init 16 (fun m -> mulx (mulx (mulx (mulx m))))

(* a*b mod P by Horner's rule over the nibbles of [a], highest powers
   first, without branches on the data. *)
let multmodp a b =
  let b1 = mulx b in
  let b2 = mulx b1 in
  let b3 = mulx b2 in
  let p = ref 0 in
  for i = 0 to 7 do
    let m = a lsr (4 * i) in
    let v = !p in
    p :=
      (v lsr 4)
      lxor Array.unsafe_get x4 (v land 15)
      lxor (b land -((m lsr 3) land 1))
      lxor (b1 land -((m lsr 2) land 1))
      lxor (b2 land -((m lsr 1) land 1))
      lxor (b3 land -(m land 1))
  done;
  !p

(* [x8n.(k * 256 + i)] = x^(8 * i * 256^k) mod P for k < 4: multiplying
   a CRC register by it feeds [i * 256^k] zero bytes through it. *)
let x8n =
  let t = Array.make 1024 (1 lsl 31) in
  let step = ref (1 lsl 30) in
  for _ = 1 to 3 do
    step := multmodp !step !step
  done;
  for k = 0 to 3 do
    for i = 1 to 255 do
      t.((k * 256) + i) <- multmodp !step t.((k * 256) + i - 1)
    done;
    for _ = 1 to 8 do
      step := multmodp !step !step
    done
  done;
  t

(* [zeros crc n] carries a zero-initialised register [crc] through [n]
   zero bytes, one base-256 digit of [n] at a time.  x^(2^32) = x mod
   P (the period zlib's x2nmodp relies on), so f^(2^32) = f for every
   f and digit k >= 4 reuses the table of digit k mod 4. *)
let rec zeros crc n k =
  if n = 0 then crc
  else
    let i = n land 0xFF in
    let crc = if i = 0 then crc else multmodp (Array.unsafe_get x8n (k + i)) crc in
    zeros crc (n lsr 8) ((k + 256) land 1023)

let overhead = 4

let seal frame =
  let body = Bytes.length frame - overhead in
  Bytes.set_int32_be frame body (Int32.of_int (crc32_sub frame ~pos:0 ~len:body))

(* CRC-32 is affine over GF(2): for equal-length messages,
   crc(m xor d) = crc(m) xor crc0(d), where crc0 has zero init and no
   final xor.  Here d is zero but for [old lxor v] at [pos], and its
   leading zeros leave a zero register unchanged, so crc0(d) is the
   one-byte table entry carried through the [body - pos - 1] bytes
   after it.  The stored value moves by exactly the change in the
   body's CRC, so a wrong trailer stays wrong by the same amount. *)
let set_byte frame ~pos v =
  let body = Bytes.length frame - overhead in
  if pos < 0 || pos >= body then invalid_arg "Sdu_protection.set_byte";
  let delta = Bytes.get_uint8 frame pos lxor (v land 0xFF) in
  if delta <> 0 then begin
    Bytes.set_uint8 frame pos v;
    let stored = Bytes.get_int32_be frame body in
    let d = zeros (Array.unsafe_get tables delta) (body - pos - 1) 0 in
    Bytes.set_int32_be frame body (Int32.logxor stored (Int32.of_int d))
  end

let verify_len frame =
  let n = Bytes.length frame in
  if n < overhead then None
  else begin
    let body = n - overhead in
    let stored = Int32.to_int (Bytes.get_int32_be frame body) land 0xFFFFFFFF in
    if crc32_sub frame ~pos:0 ~len:body = stored then Some body else None
  end
