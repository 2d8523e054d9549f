(* The relation representation before rows became words of one flat
   array: one successor Bitset per element.  Kept as the differential
   reference of Smem_relation.Rel (test_relation's "reference"
   group): it implements Rel's interface, and every function must give
   the same result, raising Invalid_argument in the same cases.  Rows
   are read by testing every element with Bitset.mem, as Bitset.iter
   once did, so the reference shares no set-bit iteration with the
   code under test. *)

module Bitset = Smem_relation.Bitset

type t = { size : int; rows : Bitset.t array }

(* Every element of a row, by testing each one. *)
let iter_row f row =
  for b = 0 to Bitset.capacity row - 1 do
    if Bitset.mem row b then f b
  done

let create size =
  if size < 0 then invalid_arg "Rel.create: negative size";
  { size; rows = Array.init size (fun _ -> Bitset.create size) }

let size t = t.size

let check t i =
  if i < 0 || i >= t.size then invalid_arg "Rel: element out of range"

let mem t a b =
  check t a;
  Bitset.mem t.rows.(a) b

let add t a b =
  check t a;
  Bitset.add t.rows.(a) b

let remove t a b =
  check t a;
  Bitset.remove t.rows.(a) b

let copy t = { t with rows = Array.map Bitset.copy t.rows }

let of_pairs size pairs =
  let t = create size in
  List.iter (fun (a, b) -> add t a b) pairs;
  t

let iter_pairs f t =
  Array.iteri (fun a row -> iter_row (fun b -> f a b) row) t.rows

let pairs t =
  let acc = ref [] in
  iter_pairs (fun a b -> acc := (a, b) :: !acc) t;
  List.rev !acc

let cardinal t = Array.fold_left (fun acc row -> acc + Bitset.cardinal row) 0 t.rows

let is_empty t = Array.for_all Bitset.is_empty t.rows

let same_size a b = if a.size <> b.size then invalid_arg "Rel: size mismatch"

let equal a b =
  same_size a b;
  Array.for_all2 Bitset.equal a.rows b.rows

let subrel a b =
  same_size a b;
  Array.for_all2 Bitset.subset a.rows b.rows

let union a b =
  same_size a b;
  { size = a.size; rows = Array.map2 Bitset.union a.rows b.rows }

let union_into ~into s =
  same_size into s;
  Array.iteri (fun a row -> Bitset.union_into ~into:into.rows.(a) row) s.rows

let inter a b =
  same_size a b;
  { size = a.size; rows = Array.map2 Bitset.inter a.rows b.rows }

let diff a b =
  same_size a b;
  { size = a.size; rows = Array.map2 Bitset.diff a.rows b.rows }

let compose r s =
  same_size r s;
  let out = create r.size in
  Array.iteri
    (fun a row ->
      iter_row (fun b -> Bitset.union_into ~into:out.rows.(a) s.rows.(b)) row)
    r.rows;
  out

let transpose t =
  let out = create t.size in
  iter_pairs (fun a b -> add out b a) t;
  out

let successors t a =
  check t a;
  t.rows.(a)

let iter_successors f t a = iter_row f (successors t a)

let restrict t keep =
  if Bitset.capacity keep <> t.size then invalid_arg "Rel.restrict: capacity mismatch";
  let out = create t.size in
  Array.iteri
    (fun a row ->
      if Bitset.mem keep a then out.rows.(a) <- Bitset.inter row keep)
    t.rows;
  out

(* Warshall on rows: whenever [a -> k], fold row [k] into row [a].
   Processing pivots [k] in the outer loop gives the usual O(n^3 / w). *)
let transitive_closure t =
  let out = copy t in
  for k = 0 to out.size - 1 do
    let row_k = out.rows.(k) in
    for a = 0 to out.size - 1 do
      if a <> k && Bitset.mem out.rows.(a) k then
        Bitset.union_into ~into:out.rows.(a) row_k
    done
  done;
  out

let is_transitive t = equal (transitive_closure t) t

let irreflexive t =
  let ok = ref true in
  for a = 0 to t.size - 1 do
    if Bitset.mem t.rows.(a) a then ok := false
  done;
  !ok

(* Kahn's algorithm with a smallest-first frontier for determinism. *)
let topological_sort t =
  let indeg = Array.make t.size 0 in
  iter_pairs (fun _ b -> indeg.(b) <- indeg.(b) + 1) t;
  let frontier = ref [] in
  for a = t.size - 1 downto 0 do
    if indeg.(a) = 0 then frontier := a :: !frontier
  done;
  let order = ref [] in
  let placed = ref 0 in
  let rec drain () =
    match !frontier with
    | [] -> ()
    | a :: rest ->
        frontier := rest;
        order := a :: !order;
        incr placed;
        let unlocked = ref [] in
        iter_row
          (fun b ->
            indeg.(b) <- indeg.(b) - 1;
            if indeg.(b) = 0 then unlocked := b :: !unlocked)
          t.rows.(a);
        frontier := List.merge compare (List.rev !unlocked) !frontier;
        drain ()
  in
  drain ();
  if !placed = t.size then Some (List.rev !order) else None

let acyclic t =
  (* DFS with colors: O(V + E) rather than closing the relation. *)
  let color = Array.make t.size 0 in
  (* 0 = white, 1 = on stack, 2 = done *)
  let rec visit a =
    if color.(a) = 1 then false
    else if color.(a) = 2 then true
    else begin
      color.(a) <- 1;
      let ok = ref true in
      iter_row (fun b -> ok := !ok && visit b) t.rows.(a);
      let ok = !ok in
      color.(a) <- 2;
      ok
    end
  in
  let ok = ref true in
  for a = 0 to t.size - 1 do
    if !ok && color.(a) = 0 then ok := visit a
  done;
  !ok

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
      t.rows.(a);
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
      t.rows.(v);
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
