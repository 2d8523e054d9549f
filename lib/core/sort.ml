type t = Register | Queue | Counter

let of_loc_name name =
  if String.length name >= 2 && name.[1] = ':' then
    match name.[0] with 'q' -> Queue | 'c' -> Counter | _ -> Register
  else Register

let of_loc h l = of_loc_name (History.loc_name h l)
let prefix = function Register -> "" | Queue -> "q:" | Counter -> "c:"

(* Queues are tiny (litmus scale): a plain head-first list with O(n)
   enqueue keeps the states immutable, which is what the backtracking
   searches actually need. *)
type state = Reg of int | Que of int list | Cnt of int

let initial = function Register -> Reg 0 | Queue -> Que [] | Counter -> Cnt 0

let step sort st (op : Op.t) =
  match (sort, st, op.Op.kind) with
  | Register, Reg _, Op.Write -> Some (Reg op.Op.value)
  | Register, Reg v, Op.Read -> if op.Op.value = v then Some st else None
  | Queue, Que q, Op.Write -> Some (Que (q @ [ op.Op.value ]))
  | Queue, Que q, Op.Read -> (
      if op.Op.value = 0 then if q = [] then Some st else None
      else
        match q with
        | head :: rest when head = op.Op.value -> Some (Que rest)
        | _ -> None)
  | Counter, Cnt n, Op.Write -> Some (Cnt (n + 1))
  | Counter, Cnt n, Op.Read -> if op.Op.value = n then Some st else None
  | _ -> invalid_arg "Sort.step: state does not match sort"
