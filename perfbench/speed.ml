(* The machine's speed during a measured phase, and request times
   expressed at a fixed reference speed.

   The benchmark runs on a few cores of a shared host whose speed
   drifts by tens of percent over seconds to minutes as other tenants
   come and go, and no choice among a run's own samples can remove a
   slowdown that lasts the whole run.  So between requests, every
   [probe_every_ns] of request time, a fixed piece of harness work (the
   probe) is timed; it never calls into the program under test, so a
   change to the program cannot move it.  Each request's time is then
   scaled by [reference_ns / p], where [p] is the median of the probes
   around it: what the request would have taken had the probe run at
   [reference_ns].  Probes run outside every timed interval. *)

module Clock = Smem_obs.Clock

(* The probe's median time on the 2-vCPU Xeon host where the benchmark
   was defined, with nothing else running on it; a unit, not a target. *)
let reference_ns = 280_000.

let probe_every_ns = 25_000_000

(* Probes on either side of a request whose median sets its scale, so
   one probe hit by an interrupt or a GC slice does not. *)
let neighbours = 4

(* List building, sorting and hashing: allocation, pointer chasing and
   branches, like the requests it stands beside. *)
let work () =
  let h = Hashtbl.create 256 and acc = ref 0 in
  for r = 0 to 39 do
    let l = List.sort compare (List.init 64 (fun i -> ((i * 7919) + r) land 1023)) in
    List.iter
      (fun x ->
        Hashtbl.replace h x r;
        acc := !acc + x)
      l;
    Array.iteri (fun i x -> if Hashtbl.mem h (x lxor i) then incr acc) (Array.of_list l)
  done;
  ignore (Sys.opaque_identity !acc)

type t = {
  mutable probes : int list;  (** newest first *)
  mutable count : int;
  mutable since_ns : int;  (** request time since the last probe *)
}

let create () = { probes = []; count = 0; since_ns = max_int }

(* Call before each measured step; probes when one is due, and returns
   the step's window: the index of the latest probe. *)
let mark t =
  if t.since_ns >= probe_every_ns then begin
    let t0 = Clock.now () in
    work ();
    t.probes <- Clock.elapsed_ns t0 :: t.probes;
    t.count <- t.count + 1;
    t.since_ns <- 0
  end;
  t.count - 1

(* Call after each measured step with its time. *)
let ran t ns = t.since_ns <- t.since_ns + ns

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let local_medians t =
  let p = Array.of_list (List.rev_map float t.probes) in
  let n = Array.length p in
  Array.init n (fun w ->
      let lo = max 0 (w - neighbours) and hi = min (n - 1) (w + neighbours) in
      median (Array.sub p lo (hi - lo + 1)))

(* After the phase: [scale w ns] is a step of window [w] that took [ns],
   in nanoseconds at the reference speed. *)
let scaler t =
  let local = local_medians t in
  fun w ns -> float ns *. reference_ns /. local.(w)

(* The phase's median probe, for the report. *)
let probe_median_ns t = median (Array.of_list (List.map float t.probes))
