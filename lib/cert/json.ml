(* The JSON printer/parser moved to Smem_obs.Json so the observability
   layer (Chrome traces, metrics, the API wire codec) can share it without
   depending on the certificate machinery; this alias keeps every
   existing [Smem_cert.Json] consumer working, with type equality. *)

include Smem_obs.Json
