type flags = { ryw : bool; mr : bool; mw : bool; wfr : bool }

let all_flags = { ryw = true; mr = true; mw = true; wfr = true }
let no_flags = { ryw = false; mr = false; mw = false; wfr = false }

let key_of { ryw; mr; mw; wfr } =
  let enabled =
    List.filter_map
      (fun (on, name) -> if on then Some name else None)
      [ (ryw, "ryw"); (mr, "mr"); (mw, "mw"); (wfr, "wfr") ]
  in
  "session(" ^ String.concat "," enabled ^ ")"

let describe { ryw; mr; mw; wfr } =
  let on b = if b then "on" else "off" in
  Printf.sprintf
    "Session guarantees (Terry et al.): read-your-writes %s, monotonic \
     reads %s, monotonic writes %s, writes-follow-reads %s.  Per-processor \
     views of own operations plus all writes, ordered only by the enabled \
     guarantees."
    (on ryw) (on mr) (on mw) (on wfr)

let instantiate flags =
  Enum.model ~key:(key_of flags)
    ~name:("Session Guarantees " ^ key_of flags)
    ~description:(describe flags)
    {
      Model.population = Model.Own_plus_writes;
      ordering =
        [
          Model.Session
            { ryw = flags.ryw; mr = flags.mr; mw = flags.mw; wfr = flags.wfr };
        ];
      mutual = Model.No_mutual;
      legality = (if flags.wfr then Model.Writer_legal else Model.Value_legal);
    }

let exemplar_rm = instantiate { no_flags with ryw = true; mr = true }
let exemplar_all = instantiate all_flags
