type partition = Modulo of int | Named of string list list

type population =
  | Shared_all
  | Own_plus_writes
  | Per_proc_all
  | Per_location
  | Per_proc_block of partition
  | Own_plus_updates

type ordering =
  | Program_order
  | Partial_program_order
  | Own_program_order
  | Po_loc
  | Real_time
  | Causal_order
  | Causal_plus_coherence
  | Semi_causal
  | Own_ppo_bracketed
  | Sync_fences
  | Session of { ryw : bool; mr : bool; mw : bool; wfr : bool }

type mutual =
  | No_mutual
  | Coherence_agreement
  | Global_write_order
  | Labeled_sc
  | Labeled_pc
  | Labeled_total

type legality = Value_legal | Writer_legal | Object_legal

type params = {
  population : population;
  ordering : ordering list;
  mutual : mutual;
  legality : legality;
}

type t = {
  key : string;
  name : string;
  description : string;
  params : params option;
  witness : History.t -> Witness.t option;
}

let make ~key ~name ~description witness =
  { key; name; description; params = None; witness }

let population_to_string = function
  | Shared_all -> "shared-all"
  | Own_plus_writes -> "own+writes"
  | Per_proc_all -> "per-proc-all"
  | Per_location -> "per-location"
  | Per_proc_block (Modulo k) -> Printf.sprintf "per-proc-block(%d)" k
  | Per_proc_block (Named blocks) ->
      Printf.sprintf "per-proc-block(%s)"
        (String.concat "|" (List.map (String.concat ".") blocks))
  | Own_plus_updates -> "own+updates"

let ordering_to_string = function
  | Program_order -> "po"
  | Partial_program_order -> "ppo"
  | Own_program_order -> "own-po"
  | Po_loc -> "po-loc"
  | Real_time -> "real-time"
  | Causal_order -> "causal"
  | Causal_plus_coherence -> "causal+co"
  | Semi_causal -> "semi-causal"
  | Own_ppo_bracketed -> "own-ppo+brackets"
  | Sync_fences -> "sync-fences"
  | Session { ryw; mr; mw; wfr } ->
      let flags =
        List.filter_map
          (fun (on, name) -> if on then Some name else None)
          [ (ryw, "ryw"); (mr, "mr"); (mw, "mw"); (wfr, "wfr") ]
      in
      Printf.sprintf "session(%s)" (String.concat "," flags)

let mutual_to_string = function
  | No_mutual -> "none"
  | Coherence_agreement -> "coherence"
  | Global_write_order -> "global-write-order"
  | Labeled_sc -> "labeled-sc"
  | Labeled_pc -> "labeled-pc"
  | Labeled_total -> "labeled-total"

let legality_to_string = function
  | Value_legal -> "value"
  | Writer_legal -> "writer"
  | Object_legal -> "object"

let params_strings p =
  [
    ("population", population_to_string p.population);
    ("ordering", String.concat "+" (List.map ordering_to_string p.ordering));
    ("mutual", mutual_to_string p.mutual);
    ("legality", legality_to_string p.legality);
  ]

type engine = Enum | Solve

(* Engine selection is process-global, set once from the CLI before any
   worker domain spawns: every call site that wants a witness goes
   through [witness_of], so flipping the mode reroutes the entire stack
   (Service, certification) without threading a parameter
   through it.  The solver itself lives above this library
   (Smem_solve depends on Smem_core), so it registers a hook. *)
let engine_mode = ref Enum
let solver_hook : (t -> History.t -> Witness.t option) option ref = ref None

let set_engine e = engine_mode := e
let engine () = !engine_mode
let register_solver f = solver_hook := Some f

let witness_of t h =
  match (!engine_mode, !solver_hook, t.params) with
  | Solve, Some f, Some _ -> f t h
  | _ -> t.witness h

(* The span's name and [args] are built only while a trace sink is
   armed: untraced, they were most of the wrapper's cost. *)
let check t h =
  Stats.count_check ();
  let run () = Stats.time (fun () -> Option.is_some (witness_of t h)) in
  if Smem_obs.Trace.active () then
    Smem_obs.Trace.span ~cat:"check"
      ~args:
        [
          ("model", Smem_obs.Json.Str t.key);
          ("nops", Smem_obs.Json.Int (History.nops h));
          ("nprocs", Smem_obs.Json.Int (History.nprocs h));
        ]
      ("check/" ^ t.key) run
  else run ()
