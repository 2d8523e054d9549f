(** Minimal Graphviz DOT rendering for abstract digraphs, used by the
    CLI ([smem lattice --dot]) and the lattice module. *)

val of_edges :
  ?name:string ->
  nodes:(string * string) list ->
  edges:(string * string) list ->
  unit ->
  string
(** [of_edges ~nodes ~edges ()] renders a digraph from explicit
    (id, label) nodes and (src, dst) edges. *)
