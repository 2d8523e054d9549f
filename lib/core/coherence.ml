module Rel = Smem_relation.Rel
module Perm = Smem_relation.Perm

type t = {
  nops : int;
  per_loc : int array array;  (* location -> writes in coherence order *)
  pos : int array;  (* op id -> rank within its location, -1 for non-writes *)
  loc_of : int array;  (* op id -> location (duplicated for convenience) *)
}

let build nops nlocs per_loc =
  let pos = Array.make nops (-1) in
  let loc_of = Array.make nops (-1) in
  for l = 0 to nlocs - 1 do
    Array.iteri
      (fun rank w ->
        pos.(w) <- rank;
        loc_of.(w) <- l)
      per_loc.(l)
  done;
  { nops; per_loc; pos; loc_of }

let position t w =
  let p = t.pos.(w) in
  if p < 0 then invalid_arg "Coherence.position: not a write";
  p

let precedes t w1 w2 =
  t.loc_of.(w1) >= 0 && t.loc_of.(w1) = t.loc_of.(w2) && position t w1 < position t w2

let to_rel t =
  let rel = Rel.create t.nops in
  Array.iter
    (fun ws ->
      let n = Array.length ws in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          Rel.add rel ws.(i) ws.(j)
        done
      done)
    t.per_loc;
  rel

let successors_from t w =
  let loc = t.loc_of.(w) in
  if loc < 0 then invalid_arg "Coherence.successors_from: not a write";
  let ws = t.per_loc.(loc) in
  let rank = t.pos.(w) in
  Array.to_list (Array.sub ws (rank + 1) (Array.length ws - rank - 1))

let of_write_order h ws =
  let nlocs = History.nlocs h in
  let loc w = (History.op h w).Op.loc in
  let filled = Array.make nlocs 0 in
  Array.iter (fun w -> filled.(loc w) <- filled.(loc w) + 1) ws;
  let per_loc = Array.map (fun n -> Array.make n 0) filled in
  Array.fill filled 0 nlocs 0;
  Array.iter
    (fun w ->
      let l = loc w in
      per_loc.(l).(filled.(l)) <- w;
      filled.(l) <- filled.(l) + 1)
    ws;
  build (History.nops h) nlocs per_loc

let default_respect h w1 w2 =
  let o1 = History.op h w1 and o2 = History.op h w2 in
  Op.same_proc o1 o2 && o1.Op.index < o2.Op.index

let iter h ~f =
  Smem_obs.Trace.span ~cat:"search" "search/co-enumeration" @@ fun () ->
  let respect = default_respect h in
  let nlocs = History.nlocs h in
  let per_loc_writes =
    Array.init nlocs (fun l -> Array.of_list (History.writes_to h l))
  in
  (* Enumerate the product over locations of constrained permutations,
     building into a shared [chosen] array of rows. *)
  let chosen = Array.map Array.copy per_loc_writes in
  let rec go l =
    if l = nlocs then begin
      Stats.count_co ();
      f (build (History.nops h) nlocs (Array.map Array.copy chosen))
    end
    else
      Perm.iter_constrained per_loc_writes.(l) ~precedes:respect ~f:(fun order ->
          chosen.(l) <- Array.copy order;
          go (l + 1))
  in
  go 0

let pp h ppf t =
  let loc_name l = History.loc_name h l in
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun l ws ->
      if Array.length ws > 1 then
        Format.fprintf ppf "co(%s): %a@," (loc_name l) (History.pp_ops h)
          (Array.to_list ws))
    t.per_loc;
  Format.fprintf ppf "@]"
