(* Entry [i] occupies [slots.(i * width) .. slots.(i * width + width - 1)];
   an entry whose first slot is [-1] is empty.  The capacity (in entries)
   is a power of two, [mask + 1], so a hash's home entry is [hash land mask]. *)
type t = { width : int; mutable slots : int array; mutable mask : int; mutable count : int }

let create ~width capacity =
  if width < 1 then invalid_arg "Tuple_set.create: width must be positive";
  let rec pow2 c = if c >= capacity then c else pow2 (2 * c) in
  let cap = pow2 2 in
  { width; slots = Array.make (cap * width) (-1); mask = cap - 1; count = 0 }

let cardinal t = t.count

(* Multiply-accumulate over the tuple, then fold the well-mixed high bits
   onto the low ones that the mask keeps. *)
let hash width (src : int array) off =
  let h = ref 0 in
  for j = off to off + width - 1 do
    h := (!h + src.(j)) * 0x2545F4914F6CDD1D
  done;
  !h lxor (!h lsr 32)

let rec same slots base (src : int array) off width j =
  j = width || (slots.(base + j) = src.(off + j) && same slots base src off width (j + 1))

(* The first slot of the entry holding the tuple [src.(off) .. src.(off +
   width - 1)], or of the empty entry where it would go.  Top-level and
   fully applied, so a probe allocates nothing. *)
let rec probe slots width mask src off i =
  let base = i * width in
  if slots.(base) < 0 || same slots base src off width 0 then base
  else probe slots width mask src off ((i + 1) land mask)

let locate t src off = probe t.slots t.width t.mask src off (hash t.width src off land t.mask)

let copy_in t base src off =
  for j = 0 to t.width - 1 do
    t.slots.(base + j) <- src.(off + j)
  done

let grow t =
  let old = t.slots in
  t.slots <- Array.make (2 * Array.length old) (-1);
  t.mask <- (2 * t.mask) + 1;
  let off = ref 0 in
  while !off < Array.length old do
    if old.(!off) >= 0 then copy_in t (locate t old !off) old !off;
    off := !off + t.width
  done

let mem t key = t.slots.(locate t key 0) >= 0

let add_new t key =
  if key.(0) < 0 then invalid_arg "Tuple_set.add_new: negative first component";
  let base = locate t key 0 in
  if t.slots.(base) >= 0 then false
  else begin
    copy_in t base key 0;
    t.count <- t.count + 1;
    if 4 * t.count > 3 * (t.mask + 1) then grow t;
    true
  end
