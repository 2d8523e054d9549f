(* Learned nogoods over reads-from assignments.

   A nogood is a set of (read, writer) pairs that cannot all hold
   together: some conflict cycle was built from exactly the edges those
   assignments induce (plus static order, which always holds).  The
   store is indexed by pair so that the only question the search ever
   asks — "would assigning this pair complete a nogood whose other
   pairs are already assigned?" — costs a scan of the nogoods
   containing that pair, not of the whole store. *)

type t = {
  index : (int * int, (int * int) array list ref) Hashtbl.t;
  seen : ((int * int) array, unit) Hashtbl.t;
}

let create () = { index = Hashtbl.create 64; seen = Hashtbl.create 64 }

let learn t pairs =
  let ng = Array.of_list (List.sort_uniq compare pairs) in
  if Array.length ng = 0 || Hashtbl.mem t.seen ng then false
  else begin
    Hashtbl.add t.seen ng ();
    Array.iter
      (fun p ->
        match Hashtbl.find_opt t.index p with
        | Some l -> l := ng :: !l
        | None -> Hashtbl.add t.index p (ref [ ng ]))
      ng;
    true
  end

let blocks t ~assigned ((r, w) as p) =
  match Hashtbl.find_opt t.index p with
  | None -> false
  | Some l ->
      List.exists
        (fun ng ->
          Array.for_all
            (fun (r', w') -> (r' = r && w' = w) || assigned r' w')
            ng)
        !l
