module Metrics = Smem_obs.Metrics

let m_hits = Metrics.counter "cache.hits"
let m_misses = Metrics.counter "cache.misses"
let m_evictions = Metrics.counter "cache.evictions"
let m_stores = Metrics.counter "cache.stores"

(* A history's row: its known verdicts, one per model key. *)
type row = (string * bool) list

type shard = {
  lock : Mutex.t;
  table : (string, row) Hashtbl.t;
  order : string Queue.t;  (* digests in insertion order, oldest first *)
  cap : int;  (* rows *)
}

type t = {
  shards : shard array;
  mask : int;
  capacity : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
  (* Persistence hook: called after every store with the key and
     verdict, outside the shard lock.  One writer (the on-disk verdict
     store) is plenty; [None] costs nothing on the hot path. *)
  mutable on_store : (digest:string -> model:string -> bool -> unit) option;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(shards = 8) ~capacity () =
  if capacity <= 0 then invalid_arg "Cache.create: capacity must be positive";
  if shards <= 0 then invalid_arg "Cache.create: shards must be positive";
  let nshards = min (next_pow2 shards) (next_pow2 capacity) in
  let cap = (capacity + nshards - 1) / nshards in
  {
    shards =
      Array.init nshards (fun _ ->
          {
            lock = Mutex.create ();
            table = Hashtbl.create (min cap 64);
            order = Queue.create ();
            cap;
          });
    mask = nshards - 1;
    capacity;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
    on_store = None;
  }

(* A request reads and writes a whole row at once, so one history's
   verdicts share a shard: the digest alone picks it. *)
let shard_index t ~digest = Hashtbl.hash digest land t.mask
let shard_of t ~digest = t.shards.(shard_index t ~digest)
let on_store t f = t.on_store <- Some f

let locked s f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

let rec holds model = function
  | [] -> false
  | (k, _) :: rest -> String.equal k model || holds model rest

let find_row t ~digest ~models =
  let s = shard_of t ~digest in
  let row =
    locked s (fun () ->
        Option.value (Hashtbl.find_opt s.table digest) ~default:[])
  in
  let hits =
    List.fold_left (fun n m -> if holds m row then n + 1 else n) 0 models
  in
  let misses = List.length models - hits in
  ignore (Atomic.fetch_and_add t.hits hits);
  ignore (Atomic.fetch_and_add t.misses misses);
  Metrics.add m_hits hits;
  Metrics.add m_misses misses;
  row

(* Last write wins per model. *)
let merge row cells =
  List.fold_left
    (fun row (m, v) ->
      (m, v) :: List.filter (fun (k, _) -> not (String.equal k m)) row)
    row cells

let rec repeats = function
  | [] -> false
  | (k, _) :: rest -> holds k rest || repeats rest

let add_row ?(notify = true) t ~digest cells =
  if cells <> [] then begin
    let s = shard_of t ~digest in
    let evicted =
      locked s (fun () ->
          let row, evicted =
            match Hashtbl.find_opt s.table digest with
            | Some row -> (merge row cells, 0)
            | None ->
                let evicted =
                  if Hashtbl.length s.table >= s.cap then begin
                    let oldest = Queue.pop s.order in
                    let n = List.length (Hashtbl.find s.table oldest) in
                    Hashtbl.remove s.table oldest;
                    n
                  end
                  else 0
                in
                Queue.push digest s.order;
                (* A fresh row is the cells as given, unless a key
                   repeats. *)
                ((if repeats cells then merge [] cells else cells), evicted)
          in
          Hashtbl.replace s.table digest row;
          evicted)
    in
    Metrics.add m_stores (List.length cells);
    if evicted > 0 then begin
      ignore (Atomic.fetch_and_add t.evictions evicted);
      Metrics.add m_evictions evicted
    end;
    match t.on_store with
    | Some f when notify ->
        List.iter (fun (model, v) -> f ~digest ~model v) cells
    | _ -> ()
  end

let find t ~digest ~model =
  List.find_map
    (fun (k, v) -> if String.equal k model then Some v else None)
    (find_row t ~digest ~models:[ model ])

let add ?notify t ~digest ~model verdict =
  add_row ?notify t ~digest [ (model, verdict) ]

let find_or_add t ~digest ~model compute =
  match find t ~digest ~model with
  | Some v -> (v, true)
  | None ->
      let v = compute () in
      add t ~digest ~model v;
      (v, false)

let stats t =
  let entries =
    Array.fold_left
      (fun acc s ->
        acc
        + locked s (fun () ->
              Hashtbl.fold (fun _ row n -> n + List.length row) s.table 0))
      0 t.shards
  in
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    evictions = Atomic.get t.evictions;
    entries;
    capacity = t.capacity;
  }

let clear t =
  Array.iter
    (fun s ->
      locked s (fun () ->
          Hashtbl.reset s.table;
          Queue.clear s.order))
    t.shards

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "%d verdict(s) in at most %d row(s), %d hit(s), %d miss(es), %d \
     eviction(s)"
    s.entries s.capacity s.hits s.misses s.evictions
