(* Each set is a small array scanned linearly; position encodes recency
   (slot 0 = MRU).  Associativities are small (<= 16) so the scan is
   cheap and allocation-free. *)

type t = { ways : int; mask : int; slots : int array (* -1 = empty *) }

let create ~sets ~ways =
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Lru_sets.create: sets must be a positive power of two";
  if ways <= 0 then invalid_arg "Lru_sets.create: non-positive ways";
  { ways; mask = sets - 1; slots = Array.make (sets * ways) (-1) }

(* Multiplicative hash to spread line indexes across sets. *)
let set_of t key = (key * 0x9E3779B1) lsr 7 land t.mask

let access t key =
  let slots = t.slots and ways = t.ways in
  let base = set_of t key * ways in
  (* A hit in the MRU slot changes nothing. *)
  if slots.(base) = key then true
  else begin
    let pos = ref 1 in
    while !pos < ways && slots.(base + !pos) <> key do
      incr pos
    done;
    let hit = !pos < ways in
    (* Shift entries down over the hit (or the evicted LRU); install key
       as MRU. *)
    for i = (if hit then !pos else ways - 1) downto 1 do
      slots.(base + i) <- slots.(base + i - 1)
    done;
    slots.(base) <- key;
    hit
  end

let probe t key =
  let base = set_of t key * t.ways in
  let rec find i = i < t.ways && (t.slots.(base + i) = key || find (i + 1)) in
  find 0

let invalidate t key =
  let base = set_of t key * t.ways in
  for i = 0 to t.ways - 1 do
    if t.slots.(base + i) = key then t.slots.(base + i) <- -1
  done

let clear t = Array.fill t.slots 0 (Array.length t.slots) (-1)
