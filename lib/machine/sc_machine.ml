(** The sequentially consistent machine: a single shared memory,
    operations applied atomically in issue order.  No internal steps. *)

type t = { memory : int array }

let name = "sc"
let model_key = "sc"

let create ~nprocs:_ ~nlocs = { memory = Array.make (max 1 nlocs) 0 }

let read t ~proc:_ ~loc ~labeled:_ = (t.memory.(loc), t)

let write t ~proc:_ ~loc ~value ~labeled:_ = { memory = Funarray.set t.memory loc value }

let test_and_set t ~proc ~loc =
  let old = t.memory.(loc) in
  if old = 1 then (old, t) else (old, write t ~proc ~loc ~value:1 ~labeled:false)

let internal _ = []

let internal_locs _ = []
let synchronous = true
let write_depends_on_internal = false
