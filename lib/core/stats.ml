(* Search-statistics counters for the witness searches.

   Since the observability layer landed these are thin typed views over
   the process-global [Smem_obs.Metrics] registry: the same cells the
   generic machinery snapshots for [--metrics] and perfbench's per-layer
   metrics, so there is exactly one source of truth.  Cells are
   [Atomic] ints, so the service's worker domains bump
   them without synchronization beyond the atomic increment; a snapshot
   is an aggregate over every check run since the last [reset], across
   all domains. *)

module M = Smem_obs.Metrics

type snapshot = {
  checks : int;
  rf_candidates : int;
  co_candidates : int;
  pruned : int;
  toposorts : int;
  sync_orders : int;
  wall_ns : int;
  solve_decisions : int;
  solve_propagations : int;
  solve_conflicts : int;
  solve_nogoods : int;
  solve_nogood_hits : int;
  solve_leaves : int;
}

let checks = M.counter "search.checks"
let rf_candidates = M.counter "search.rf_candidates"
let co_candidates = M.counter "search.co_candidates"
let pruned = M.counter "search.pruned"
let toposorts = M.counter "search.toposorts"
let sync_orders = M.counter "search.sync_orders"
let wall_ns = M.counter "search.wall_ns"

(* The propagation engine's own cost drivers, distinct from the
   enumeration counters above: decisions are variable assignments tried,
   propagations are closure edges inserted, conflicts are cycles caught
   before any leaf check, nogoods/nogood_hits measure learning. *)
let solve_decisions = M.counter "solve.decisions"
let solve_propagations = M.counter "solve.propagations"
let solve_conflicts = M.counter "solve.conflicts"
let solve_nogoods = M.counter "solve.nogoods"
let solve_nogood_hits = M.counter "solve.nogood_hits"
let solve_leaves = M.counter "solve.leaves"

(* Per-oracle counters for the differential fuzzer, keyed by oracle
   name (a machine/model pairing or a containment arrow).  Stored as
   dynamically registered metrics ["fuzz.pass.<key>"] etc., so they
   inherit the registry's domain-safety and show up in [--metrics]. *)
type fuzz = { pass : int; fail : int; shrink_steps : int }

let fuzz_pass_prefix = "fuzz.pass."
let fuzz_fail_prefix = "fuzz.fail."
let fuzz_shrink_prefix = "fuzz.shrink."

let reset () = M.reset ()

let snapshot () =
  {
    checks = M.value checks;
    rf_candidates = M.value rf_candidates;
    co_candidates = M.value co_candidates;
    pruned = M.value pruned;
    toposorts = M.value toposorts;
    sync_orders = M.value sync_orders;
    wall_ns = M.value wall_ns;
    solve_decisions = M.value solve_decisions;
    solve_propagations = M.value solve_propagations;
    solve_conflicts = M.value solve_conflicts;
    solve_nogoods = M.value solve_nogoods;
    solve_nogood_hits = M.value solve_nogood_hits;
    solve_leaves = M.value solve_leaves;
  }

let diff a b =
  {
    checks = a.checks - b.checks;
    rf_candidates = a.rf_candidates - b.rf_candidates;
    co_candidates = a.co_candidates - b.co_candidates;
    pruned = a.pruned - b.pruned;
    toposorts = a.toposorts - b.toposorts;
    sync_orders = a.sync_orders - b.sync_orders;
    wall_ns = a.wall_ns - b.wall_ns;
    solve_decisions = a.solve_decisions - b.solve_decisions;
    solve_propagations = a.solve_propagations - b.solve_propagations;
    solve_conflicts = a.solve_conflicts - b.solve_conflicts;
    solve_nogoods = a.solve_nogoods - b.solve_nogoods;
    solve_nogood_hits = a.solve_nogood_hits - b.solve_nogood_hits;
    solve_leaves = a.solve_leaves - b.solve_leaves;
  }

let count_fuzz_pass key = M.incr (M.counter (fuzz_pass_prefix ^ key))
let count_fuzz_fail key = M.incr (M.counter (fuzz_fail_prefix ^ key))

let add_fuzz_shrink key n =
  if n > 0 then M.add (M.counter (fuzz_shrink_prefix ^ key)) n

let fuzz_snapshot () =
  let strip prefix name =
    if String.starts_with ~prefix name then
      Some
        (String.sub name (String.length prefix)
           (String.length name - String.length prefix))
    else None
  in
  let table = Hashtbl.create 16 in
  let get key =
    match Hashtbl.find_opt table key with
    | Some f -> f
    | None -> { pass = 0; fail = 0; shrink_steps = 0 }
  in
  List.iter
    (fun (name, v) ->
      match strip fuzz_pass_prefix name with
      | Some key -> Hashtbl.replace table key { (get key) with pass = v }
      | None -> (
          match strip fuzz_fail_prefix name with
          | Some key -> Hashtbl.replace table key { (get key) with fail = v }
          | None -> (
              match strip fuzz_shrink_prefix name with
              | Some key ->
                  Hashtbl.replace table key { (get key) with shrink_steps = v }
              | None -> ())))
    (M.snapshot ());
  Hashtbl.fold (fun key f acc -> (key, f) :: acc) table [] |> List.sort compare

let pp_fuzz ppf counters =
  if counters = [] then Format.fprintf ppf "fuzz oracles: none run"
  else begin
    Format.fprintf ppf "@[<v>fuzz oracle counters (pass/fail/shrink steps):";
    List.iter
      (fun (key, f) ->
        Format.fprintf ppf "@,  %-24s %8d %4d %4d" key f.pass f.fail
          f.shrink_steps)
      counters;
    Format.fprintf ppf "@]"
  end

let count_check () = M.incr checks
let count_rf () = M.incr rf_candidates
let count_co () = M.incr co_candidates
let add_pruned n = if n > 0 then M.add pruned n
let count_toposort () = M.incr toposorts
let count_sync_order () = M.incr sync_orders
let add_wall_ns n = if n > 0 then M.add wall_ns n
let count_solve_decision () = M.incr solve_decisions
let add_solve_propagations n = if n > 0 then M.add solve_propagations n
let count_solve_conflict () = M.incr solve_conflicts
let count_solve_nogood () = M.incr solve_nogoods
let count_solve_nogood_hit () = M.incr solve_nogood_hits
let count_solve_leaf () = M.incr solve_leaves

(* Monotonic clock: a wall-clock source here (the old gettimeofday)
   could be stepped backwards by NTP mid-measure and record a negative
   or wildly skewed duration into the aggregate.  Every computed cell
   passes through here, so it allocates no [Fun.protect] closures. *)
let time f =
  let t0 = Smem_obs.Clock.now () in
  match f () with
  | v ->
      add_wall_ns (Smem_obs.Clock.elapsed_ns t0);
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      add_wall_ns (Smem_obs.Clock.elapsed_ns t0);
      Printexc.raise_with_backtrace e bt

let pp_wall ppf ns =
  if ns >= 1_000_000_000 then Format.fprintf ppf "%.3f s" (float ns /. 1e9)
  else if ns >= 1_000_000 then Format.fprintf ppf "%.3f ms" (float ns /. 1e6)
  else if ns >= 1_000 then Format.fprintf ppf "%.3f us" (float ns /. 1e3)
  else Format.fprintf ppf "%d ns" ns

let pp ppf s =
  Format.fprintf ppf
    "@[<v>search statistics:@,\
    \  checks run            %d@,\
    \  rf maps enumerated    %d@,\
    \  co orders enumerated  %d@,\
    \  rf candidates pruned  %d@,\
    \  topological sorts     %d@,\
    \  labeled orders        %d@,\
    \  wall time (all checks, summed across workers)  %a@]"
    s.checks s.rf_candidates s.co_candidates s.pruned s.toposorts
    s.sync_orders pp_wall s.wall_ns;
  if
    s.solve_decisions + s.solve_propagations + s.solve_conflicts
    + s.solve_nogoods + s.solve_nogood_hits + s.solve_leaves
    > 0
  then
    Format.fprintf ppf
      "@,\
       @[<v>solver statistics:@,\
      \  decisions             %d@,\
      \  propagated edges      %d@,\
      \  conflicts             %d@,\
      \  nogoods learned       %d@,\
      \  nogood hits           %d@,\
      \  leaf checks           %d@]"
      s.solve_decisions s.solve_propagations s.solve_conflicts s.solve_nogoods
      s.solve_nogood_hits s.solve_leaves
