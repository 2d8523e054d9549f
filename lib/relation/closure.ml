(* Incremental transitive closure, maintained under edge insertion.

   The solver's propagators ask "does u already reach v?" once per
   candidate edge, so reachability must be O(1); and backtracking search
   undoes whole blocks of insertions at once, so state capture must be a
   plain copy rather than an operation log.  Rows are bitsets: inserting
   (u, v) unions v's successor row into every predecessor of u — the
   classical Italiano scheme restricted to insertions, O(n^2/w) per
   effective edge. *)

type t = {
  n : int;
  fwd : Bitset.t array;  (* fwd.(u): all v with u ->+ v (strict) *)
  bwd : Bitset.t array;  (* bwd.(v): all u with u ->+ v *)
}

type snapshot = { s_fwd : Bitset.t array; s_bwd : Bitset.t array }

let create n =
  {
    n;
    fwd = Array.init (max 1 n) (fun _ -> Bitset.create n);
    bwd = Array.init (max 1 n) (fun _ -> Bitset.create n);
  }

let size t = t.n

let reaches t u v = Bitset.mem t.fwd.(u) v

let add t u v =
  if u = v || reaches t u v then ()
  else begin
    (* Everything reaching u (plus u) now reaches everything v reaches
       (plus v).  Iterate predecessors with the watched-index scan. *)
    let patch p =
      Bitset.union_into ~into:t.fwd.(p) t.fwd.(v);
      Bitset.add t.fwd.(p) v
    in
    patch u;
    Bitset.iter_from patch t.bwd.(u) 0;
    let patch_back s =
      Bitset.union_into ~into:t.bwd.(s) t.bwd.(u);
      Bitset.add t.bwd.(s) u
    in
    patch_back v;
    Bitset.iter_from patch_back t.fwd.(v) 0
  end

let of_rel r =
  let n = Rel.size r in
  let t = create n in
  let closed = Rel.transitive_closure r in
  Rel.iter_pairs
    (fun a b ->
      if a <> b then begin
        Bitset.add t.fwd.(a) b;
        Bitset.add t.bwd.(b) a
      end)
    closed;
  t

let snapshot t =
  { s_fwd = Array.map Bitset.copy t.fwd; s_bwd = Array.map Bitset.copy t.bwd }

let restore t s =
  Array.iteri
    (fun i row ->
      Bitset.clear t.fwd.(i);
      Bitset.union_into ~into:t.fwd.(i) row)
    s.s_fwd;
  Array.iteri
    (fun i row ->
      Bitset.clear t.bwd.(i);
      Bitset.union_into ~into:t.bwd.(i) row)
    s.s_bwd
