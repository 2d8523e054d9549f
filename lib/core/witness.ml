type t = {
  views : (int * int list) list;
  rf : (int * int) list;
  sync : int list option;
  notes : unit -> string list;
}

let shared ?(rf = []) seq ~notes = { views = [ (-1, seq) ]; rf; sync = None; notes }

let per_proc ?(rf = []) ?sync views ~notes = { views; rf; sync; notes }

let pp h ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (p, seq) ->
      if p < 0 then Format.fprintf ppf "S (shared): %a@," (History.pp_ops h) seq
      else Format.fprintf ppf "S_p%d: %a@," p (History.pp_ops h) seq)
    t.views;
  (match t.sync with
  | Some seq -> Format.fprintf ppf "sync order: %a@," (History.pp_ops h) seq
  | None -> ());
  List.iter (fun note -> Format.fprintf ppf "note: %s@," note) (t.notes ());
  Format.fprintf ppf "@]"
