(* Row [a] is words [a * w .. a * w + w - 1] of [bits], each packed as
   a Bitset word (Bitset.word). *)
type t = { size : int; w : int; bits : int array }

let create size =
  if size < 0 then invalid_arg "Rel.create: negative size";
  let w = max 1 ((size + Sys.int_size - 1) / Sys.int_size) in
  { size; w; bits = Array.make (size * w) 0 }

let size t = t.size

let check t a b =
  if a < 0 || a >= t.size || b < 0 || b >= t.size then
    invalid_arg "Rel: element out of range"

(* The word holding pair (a, b), and b's bit in it. *)
let slot t a b = (a * t.w) + (b / Sys.int_size)
let bit b = 1 lsl (b mod Sys.int_size)
let has t a b = t.bits.(slot t a b) land bit b <> 0

let mem t a b =
  check t a b;
  has t a b

let add t a b =
  check t a b;
  let i = slot t a b in
  t.bits.(i) <- t.bits.(i) lor bit b

let remove t a b =
  check t a b;
  let i = slot t a b in
  t.bits.(i) <- t.bits.(i) land lnot (bit b)

let copy t = { t with bits = Array.copy t.bits }

let of_pairs size pairs =
  let t = create size in
  List.iter (fun (a, b) -> add t a b) pairs;
  t

let iter_row f t a =
  for k = 0 to t.w - 1 do
    Bitset.iter_word f (k * Sys.int_size) t.bits.((a * t.w) + k)
  done

let iter_successors f t a =
  check t a a;
  iter_row f t a

let iter_pairs f t =
  for a = 0 to t.size - 1 do
    iter_row (f a) t a
  done

let pairs t =
  let acc = ref [] in
  iter_pairs (fun a b -> acc := (a, b) :: !acc) t;
  List.rev !acc

let cardinal t = List.length (pairs t)

let is_empty t = Array.for_all (fun w -> w = 0) t.bits
let same_size a b = if a.size <> b.size then invalid_arg "Rel: size mismatch"

let equal a b =
  same_size a b;
  Array.for_all2 Int.equal a.bits b.bits

let subrel a b =
  same_size a b;
  Array.for_all2 (fun x y -> x land lnot y = 0) a.bits b.bits

let map2 f a b =
  same_size a b;
  { a with bits = Array.map2 f a.bits b.bits }

let union a b = map2 ( lor ) a b
let inter a b = map2 ( land ) a b
let diff a b = map2 (fun x y -> x land lnot y) a b

let union_into ~into s =
  same_size into s;
  Array.iteri (fun i w -> into.bits.(i) <- into.bits.(i) lor w) s.bits

(* Fold row [src] of [from] into row [dst] of [into]. *)
let or_row into dst from src =
  for k = 0 to into.w - 1 do
    let i = (dst * into.w) + k in
    into.bits.(i) <- into.bits.(i) lor from.bits.((src * from.w) + k)
  done

let compose r s =
  same_size r s;
  let out = create r.size in
  for a = 0 to r.size - 1 do
    iter_row (or_row out a s) r a
  done;
  out

let transpose t =
  let out = create t.size in
  iter_pairs (fun a b -> add out b a) t;
  out

let restrict t keep =
  if Bitset.capacity keep <> t.size then
    invalid_arg "Rel.restrict: capacity mismatch";
  let out = create t.size in
  Bitset.iter
    (fun a ->
      for k = 0 to t.w - 1 do
        let i = (a * t.w) + k in
        out.bits.(i) <- t.bits.(i) land Bitset.word keep k
      done)
    keep;
  out

(* Warshall on rows: whenever [a -> k], fold row [k] into row [a].
   Processing pivots [k] in the outer loop gives the usual O(n^3 / w). *)
let transitive_closure t =
  let out = copy t in
  for k = 0 to out.size - 1 do
    for a = 0 to out.size - 1 do
      if a <> k && has out a k then or_row out a out k
    done
  done;
  out

let is_transitive t = equal (transitive_closure t) t

let add_row t a s =
  check t a a;
  if Bitset.capacity s <> t.size then
    invalid_arg "Rel.add_row: capacity mismatch";
  for k = 0 to t.w - 1 do
    let i = (a * t.w) + k in
    t.bits.(i) <- t.bits.(i) lor Bitset.word s k
  done

(* On one word: a frontier of set bits, each row masked by [keep]. *)
let reaches_within r1 r2 keep s b =
  same_size r1 r2;
  check r1 b b;
  if Bitset.capacity keep <> r1.size || Bitset.capacity s <> r1.size then
    invalid_arg "Rel.reaches_within: capacity mismatch";
  if r1.w = 1 then
    let mask = Bitset.word keep 0 and target = bit b in
    let rec go seen frontier =
      seen land target <> 0
      || frontier <> 0
         &&
         let a = Bitset.lowest frontier in
         let fresh = (r1.bits.(a) lor r2.bits.(a)) land mask land lnot seen in
         go (seen lor fresh) (frontier land (frontier - 1) lor fresh)
    in
    let start = Bitset.word s 0 land mask in
    go start start
  else
    let g = restrict (union r1 r2) keep in
    let seen = Bitset.inter s keep in
    let rec visit a =
      iter_row
        (fun c ->
          if not (Bitset.mem seen c) then begin
            Bitset.add seen c;
            visit c
          end)
        g a
    in
    Bitset.iter visit (Bitset.copy seen);
    Bitset.mem seen b

let irreflexive t =
  let rec from a = a = t.size || ((not (has t a a)) && from (a + 1)) in
  from 0

(* Kahn's algorithm, placing the smallest ready element first:
   [f i a] places [a] at position [i]; the result is how many were
   placed, [size] exactly when [t] is acyclic. *)
let kahn t f =
  let indeg = Array.make t.size 0 in
  iter_pairs (fun _ b -> indeg.(b) <- indeg.(b) + 1) t;
  let ready = Bitset.create t.size in
  Array.iteri (fun a d -> if d = 0 then Bitset.add ready a) indeg;
  let placed = ref 0 in
  let a = ref (Bitset.next ready 0) in
  while !a >= 0 do
    Bitset.remove ready !a;
    f !placed !a;
    incr placed;
    iter_row
      (fun b ->
        indeg.(b) <- indeg.(b) - 1;
        if indeg.(b) = 0 then Bitset.add ready b)
      t !a;
    a := Bitset.next ready 0
  done;
  !placed

let topological_sort t =
  let order = Array.make t.size 0 in
  if kahn t (fun i a -> order.(i) <- a) = t.size then
    Some (Array.to_list order)
  else None

(* On one word, peel the elements of [left] with no successor left in
   it until none remain (acyclic) or none can go (a cycle). *)
let rec peel r1 r2 left =
  let rec sinks rest acc =
    if rest = 0 then acc
    else
      let a = Bitset.lowest rest in
      sinks
        (rest land (rest - 1))
        (if (r1.bits.(a) lor r2.bits.(a)) land left = 0 then acc lor bit a
         else acc)
  in
  left = 0
  ||
  let gone = sinks left 0 in
  gone <> 0 && peel r1 r2 (left land lnot gone)

let acyclic t =
  if t.w = 1 then
    peel t t (if t.size = Sys.int_size then -1 else (1 lsl t.size) - 1)
  else kahn t (fun _ _ -> ()) = t.size

let acyclic_within r1 r2 keep =
  same_size r1 r2;
  if Bitset.capacity keep <> r1.size then
    invalid_arg "Rel.acyclic_within: capacity mismatch";
  if r1.w = 1 then peel r1 r2 (Bitset.word keep 0)
  else acyclic (restrict (union r1 r2) keep)

exception Found_cycle of int list

let find_cycle t =
  let color = Array.make t.size 0 in
  let parent = Array.make t.size (-1) in
  let rec visit a =
    color.(a) <- 1;
    iter_row
      (fun b ->
        if color.(b) = 1 then begin
          (* Walk parents from [a] back to [b] to recover the cycle. *)
          let rec collect v acc = if v = b then b :: acc else collect parent.(v) (v :: acc) in
          raise (Found_cycle (collect a []))
        end
        else if color.(b) = 0 then begin
          parent.(b) <- a;
          visit b
        end)
      t a;
    color.(a) <- 2
  in
  try
    for a = 0 to t.size - 1 do
      if color.(a) = 0 then visit a
    done;
    None
  with Found_cycle c -> Some c

(* Tarjan, iteratively indexed but recursively implemented: fine for
   the small universes of this library. *)
let strongly_connected_components t =
  let n = t.size in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let component = Array.make n (-1) in
  let count = ref 0 in
  let rec strongconnect v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    iter_row
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      t v;
    if lowlink.(v) = index.(v) then begin
      let id = !count in
      incr count;
      let rec pop () =
        match !stack with
        | [] -> ()
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            component.(w) <- id;
            if w <> v then pop ()
      in
      pop ()
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  (* Tarjan emits components in reverse topological order already. *)
  (component, !count)

let pp ppf t =
  Format.fprintf ppf "@[<hov 1>{%a}@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf (a, b) -> Format.fprintf ppf "(%d,%d)" a b))
    (pairs t)
