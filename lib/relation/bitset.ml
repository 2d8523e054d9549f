type t = { capacity : int; words : int array }

let bits_per_word = Sys.int_size

let words_for capacity = (capacity + bits_per_word - 1) / bits_per_word

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
  { capacity; words = Array.make (max 1 (words_for capacity)) 0 }

let capacity t = t.capacity

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let rec popcount w = if w = 0 then 0 else 1 + popcount (w land (w - 1))
let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let copy t = { t with words = Array.copy t.words }

let same_capacity a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset: capacity mismatch"

let map2 f a b =
  same_capacity a b;
  { capacity = a.capacity; words = Array.map2 f a.words b.words }

let union a b = map2 ( lor ) a b
let inter a b = map2 ( land ) a b
let diff a b = map2 (fun x y -> x land lnot y) a b

let union_into ~into s =
  same_capacity into s;
  Array.iteri (fun i w -> into.words.(i) <- into.words.(i) lor w) s.words

let subset a b =
  same_capacity a b;
  Array.for_all2 (fun x y -> x land lnot y = 0) a.words b.words

let equal a b =
  same_capacity a b;
  Array.for_all2 ( = ) a.words b.words

(* Each byte's lowest set bit (8 for the zero byte), and a nonzero
   word's. *)
let lowest_in_byte =
  String.init 256 (fun b ->
      let rec go i = if i = 8 || b land (1 lsl i) <> 0 then i else go (i + 1) in
      Char.chr (go 0))

let rec lowest w =
  let b = w land 0xff in
  if b <> 0 then Char.code (String.unsafe_get lowest_in_byte b)
  else 8 + lowest (w lsr 8)

let iter_word f base word =
  let w = ref word in
  while !w <> 0 do
    f (base + lowest !w);
    w := !w land (!w - 1)
  done

let iter f t =
  Array.iteri (fun w word -> iter_word f (w * bits_per_word) word) t.words

let word t w = t.words.(w)

(* Watched-index iteration: find the first member at or after a given
   index without rescanning the words below it.  The solver's
   propagation loops keep a per-row watch and resume from it, so a scan
   over a sparse row costs O(words after the watch) instead of
   O(capacity). *)
let next t i =
  let rec scan w word =
    if word <> 0 then
      let r = (w * bits_per_word) + lowest word in
      if r >= t.capacity then -1 else r
    else if w + 1 < Array.length t.words then scan (w + 1) t.words.(w + 1)
    else -1
  in
  if i >= t.capacity then -1
  else
    (* Mask off the bits below [i] in its word, then skip empty words. *)
    let i = max 0 i in
    let w = i / bits_per_word in
    scan w (t.words.(w) land lnot ((1 lsl (i mod bits_per_word)) - 1))

let iter_from f t i =
  let j = ref (next t i) in
  while !j >= 0 do
    f !j;
    j := next t (!j + 1)
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list capacity xs =
  let t = create capacity in
  List.iter (add t) xs;
  t

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_int)
    (elements t)
