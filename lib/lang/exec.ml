module Op = Smem_core.Op

module Env = struct
  type t = (string * int) list  (* sorted by register name *)

  let empty = []

  let get t reg = match List.assoc_opt reg t with Some v -> v | None -> 0

  let rec set t reg value =
    match t with
    | [] -> [ (reg, value) ]
    | (r, _) :: rest when r = reg -> (reg, value) :: rest
    | (r, v) :: rest when r > reg -> (reg, value) :: (r, v) :: rest
    | binding :: rest -> binding :: set rest reg value

  let bindings t = t
end

let bool_int b = if b then 1 else 0

let rec eval env : Ast.expr -> int = function
  | Ast.Int n -> n
  | Ast.Reg r -> Env.get env r
  | Ast.Add (a, b) -> eval env a + eval env b
  | Ast.Sub (a, b) -> eval env a - eval env b
  | Ast.Mul (a, b) -> eval env a * eval env b
  | Ast.Eq (a, b) -> bool_int (eval env a = eval env b)
  | Ast.Ne (a, b) -> bool_int (eval env a <> eval env b)
  | Ast.Lt (a, b) -> bool_int (eval env a < eval env b)
  | Ast.Le (a, b) -> bool_int (eval env a <= eval env b)
  | Ast.And (a, b) -> bool_int (eval env a <> 0 && eval env b <> 0)
  | Ast.Or (a, b) -> bool_int (eval env a <> 0 || eval env b <> 0)
  | Ast.Not a -> bool_int (eval env a = 0)

type action =
  | A_load of { reg : string; loc : int; labeled : bool }
  | A_store of { loc : int; value : int; labeled : bool }
  | A_tas of { reg : string; loc : int }
  | A_enter
  | A_exit

type status =
  | At_action of action * Env.t * Ast.stmt list
  | Finished of Env.t
  | Out_of_fuel

let resolve layout env (s : Ast.shared) =
  Ast.loc_id layout s.Ast.array (eval env s.Ast.index)

let step_to_action layout ~env ~cont ~fuel =
  let rec go env cont fuel =
    if fuel <= 0 then Out_of_fuel
    else
      match cont with
      | [] -> Finished env
      | stmt :: rest -> (
          match stmt with
          | Ast.Assign (reg, e) -> go (Env.set env reg (eval env e)) rest (fuel - 1)
          | Ast.Load { reg; src; labeled } ->
              At_action (A_load { reg; loc = resolve layout env src; labeled }, env, rest)
          | Ast.Store { dst; value; labeled } ->
              At_action
                ( A_store
                    { loc = resolve layout env dst; value = eval env value; labeled },
                  env,
                  rest )
          | Ast.If (c, then_, else_) ->
              let branch = if eval env c <> 0 then then_ else else_ in
              go env (branch @ rest) (fuel - 1)
          | Ast.While (c, body) ->
              if eval env c <> 0 then go env (body @ (stmt :: rest)) (fuel - 1)
              else go env rest (fuel - 1)
          | Ast.For { var; from_; to_; body } ->
              let lo = eval env from_ and hi = eval env to_ in
              if lo > hi then go env rest (fuel - 1)
              else
                let continue =
                  Ast.For { var; from_ = Ast.Int (lo + 1); to_ = Ast.Int hi; body }
                in
                go (Env.set env var lo) (body @ (continue :: rest)) (fuel - 1)
          | Ast.Tas { reg; dst } ->
              At_action (A_tas { reg; loc = resolve layout env dst }, env, rest)
          | Ast.Cs_enter -> At_action (A_enter, env, rest)
          | Ast.Cs_exit -> At_action (A_exit, env, rest))
  in
  go env cont fuel

type thread = {
  env : Env.t;
  cont : Ast.stmt list;
  in_cs : bool;
  finished : bool;
}

let initial_threads program =
  Array.map
    (fun cont -> { env = Env.empty; cont; in_cs = false; finished = false })
    program.Ast.threads

type event = { kind : Op.kind; loc : int; value : int; labeled : bool }

let perform (type m)
    (module M : Smem_machine.Machine_sig.MACHINE with type t = m)
    (machine : m) ~proc t action env cont =
  let t = { t with env; cont } in
  match action with
  | A_load { reg; loc; labeled } ->
      let value, machine = M.read machine ~proc ~loc ~labeled in
      ( machine,
        { t with env = Env.set env reg value },
        Some { kind = Op.Read; loc; value; labeled } )
  | A_store { loc; value; labeled } ->
      ( M.write machine ~proc ~loc ~value ~labeled,
        t,
        Some { kind = Op.Write; loc; value; labeled } )
  | A_tas { reg; loc } ->
      let old, machine = M.test_and_set machine ~proc ~loc in
      ( machine,
        { t with env = Env.set env reg old },
        Some { kind = Op.Write; loc; value = 1; labeled = true } )
  | A_enter -> (machine, { t with in_cs = true }, None)
  | A_exit -> (machine, { t with in_cs = false }, None)

let history layout ~nthreads events =
  let next_index = Array.make nthreads 0 in
  let op id (proc, { kind; loc; value; labeled }) =
    let index = next_index.(proc) in
    next_index.(proc) <- index + 1;
    let attr = if labeled then Op.Labeled else Op.Ordinary in
    { Op.id; proc; index; kind; loc; value; attr }
  in
  Smem_core.History.of_ops ~nprocs:nthreads ~loc_names:(Ast.loc_names layout)
    (List.mapi op events)

(* Hashing the structure directly degenerates badly: [Hashtbl.hash]
   only looks at a bounded prefix of a value, so the deep (machine,
   threads) tuples of the channel machines collide en masse and bucket
   scans fall back to full structural equality — quadratic overall.
   Digest keys make both hashing and equality O(state size). *)
let digest_key v = Digest.string (Marshal.to_string v [ Marshal.No_sharing ])
