module Rel = Smem_relation.Rel

(* writer.(id) is the writer of read [id]; a sentinel -2 marks non-read slots. *)
type t = { writer : int array }

let no_writer = -2

let writer t r =
  let w = t.writer.(r) in
  if w = no_writer then invalid_arg "Reads_from.writer: not a read";
  w

let reads_from_init t r = writer t r = History.init

let candidates h r =
  let op = History.op h r in
  if not (Op.is_read op) then invalid_arg "Reads_from.candidates: not a read";
  let writes =
    History.writes_to h op.Op.loc
    |> List.filter (fun w -> (History.op h w).Op.value = op.Op.value)
  in
  if op.Op.value = 0 then History.init :: writes else writes

let iter ?(skip = fun _ -> false) h ~f =
  Smem_obs.Trace.span ~cat:"search" "search/rf-enumeration" @@ fun () ->
  let skipped, reads = List.partition skip (History.reads h) in
  let reads = Array.of_list reads in
  let nreads = Array.length reads in
  (* Hoisted: the candidate writers of each read depend only on the
     history, so compute them once here instead of once per enumeration
     node (the old recursion recomputed read [k]'s candidates for every
     assignment of reads [0..k-1]). *)
  let cands = Array.map (fun r -> Array.of_list (candidates h r)) reads in
  let rejected = ref 0 in
  Array.iteri
    (fun i r ->
      let op = History.op h r in
      let possible =
        List.length (History.writes_to h op.Op.loc)
        + (if op.Op.value = 0 then 1 else 0)
      in
      rejected := !rejected + possible - Array.length cands.(i))
    reads;
  Stats.add_pruned !rejected;
  if !rejected > 0 && Smem_obs.Trace.active () then
    Smem_obs.Trace.instant ~cat:"search"
      ~args:[ ("rejected", Smem_obs.Json.Int !rejected) ]
      "search/prune";
  if Array.exists (fun c -> Array.length c = 0) cands then begin
    (* Some read returns a value nobody wrote: no reads-from map exists,
       so short-circuit before enumerating any prefix assignment (the
       old code still walked the full product of the earlier reads'
       candidates before failing on the empty one). *)
    Stats.add_pruned 1;
    false
  end
  else begin
    let writer = Array.make (History.nops h) no_writer in
    List.iter (fun r -> writer.(r) <- History.init) skipped;
    let rec go i =
      if i = nreads then begin
        Stats.count_rf ();
        f { writer = Array.copy writer }
      end
      else
        let r = reads.(i) in
        Array.exists
          (fun w ->
            writer.(r) <- w;
            let accepted = go (i + 1) in
            writer.(r) <- no_writer;
            accepted)
          cands.(i)
    in
    go 0
  end

let make h ~writer =
  let arr = Array.make (max 1 (History.nops h)) no_writer in
  List.iter (fun r -> arr.(r) <- writer r) (History.reads h);
  { writer = arr }

let pairs h t = List.map (fun r -> (r, writer t r)) (History.reads h)

let wb h t =
  let rel = Rel.create (History.nops h) in
  List.iter
    (fun r ->
      let w = writer t r in
      if w <> History.init then Rel.add rel w r)
    (History.reads h);
  rel

let pp h ppf t =
  let loc_name l = History.loc_name h l in
  Format.fprintf ppf "@[<hov>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf r ->
         let w = writer t r in
         if w = History.init then
           Format.fprintf ppf "%a<-init" (Op.pp ~loc_name) (History.op h r)
         else
           Format.fprintf ppf "%a<-%a" (Op.pp ~loc_name) (History.op h r)
             (Op.pp ~loc_name) (History.op h w)))
    (History.reads h)
