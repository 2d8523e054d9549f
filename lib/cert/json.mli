(** Minimal JSON: the machine-facing certificate format.  An alias of
    {!Smem_obs.Json} (where the implementation moved so traces, metrics
    and the API wire codec can share it); [Smem_cert.Json.t] and
    [Smem_obs.Json.t] are the same type. *)

include module type of struct
  include Smem_obs.Json
end
