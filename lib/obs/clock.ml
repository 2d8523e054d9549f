external now_ns_unboxed : unit -> (int64[@unboxed])
  = "smem_obs_clock_ns" "smem_obs_clock_ns_unboxed"
[@@noalloc]

let now () = Int64.to_int (now_ns_unboxed ())
let elapsed_ns t0 = max 0 (now () - t0)
