(** The catalogue of memory models: the fixed built-ins, family
    exemplars, and on-demand instantiation of parameterized families
    through the {!Model_ref} grammar.  Every model but [tso-op]
    ({!Tso_operational}) is defined here, as one table row: key, name,
    description and {!Model.params} quadruple.

    Keys are the CLI identifiers ([atomic], [sc], [tso], [pc],
    [rc-sc], [rc-pc], [wo], [pc-g], [pc-part(blocks=k)], [causal],
    [causal-obj], [session(...)], [causal-coh], [coh], [pram], [slow],
    [local], [tso-op]). *)

val all : Model.t list
(** Every catalogued model, strongest-to-weakest by the extended
    Figure 5 lattice (models incomparable in the lattice appear in a
    fixed documented order).  Includes one exemplar per family:
    [pc-part(blocks=2)], [pc-part(blocks=4)], [causal-obj],
    [session(ryw,mr,mw,wfr)], [session(ryw,mr)]. *)

val comparable : Model.t list
(** The models of the paper's Figure 5 only: SC, TSO, PC, Causal,
    PRAM — the inputs to the lattice reconstruction. *)

val certifiable : Model.t list
(** The catalogued models declaring a parameter quadruple
    ({!Model.params}).  Exactly these can emit verdict certificates
    checkable by {!Smem_cert.Kernel}. *)

(** {1 Families} *)

type family_info = {
  family : string;  (** grammar name, e.g. ["pc-part"] *)
  doc : string;
  params : (string * string) list;
      (** parameter name → human-readable domain *)
  instantiate : Model_ref.t -> (Model.t, string) result;
      (** build an instance; [Error] explains a bad or unknown
          argument (with a did-you-mean suggestion). *)
}

val families : family_info list
(** The parameterized families: [pc-part], [session], [causal-obj]. *)

(** {1 Resolution} *)

val resolve : string -> (Model.t, string) result
(** Resolve a key or model reference: an exact catalogue key first,
    then the {!Model_ref} grammar against {!families} (instances are
    memoized, so resolving the same reference twice yields the same
    [Model.t] and one shared verdict-cache line).  [Error] carries the
    parse or instantiation failure, or an unknown-name message with a
    did-you-mean suggestion. *)

val find : string -> Model.t option
(** [resolve] with the reason discarded. *)

val keys : unit -> string list
(** Keys of the catalogued models (not of on-demand instances). *)

val suggest : string -> string option
(** The closest catalogue key or family name within edit distance 3,
    if any — the did-you-mean candidate for an unknown name. *)
