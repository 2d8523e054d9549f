(** Seeded, reproducible generation of random histories and programs.

    Every random draw is funneled through a [Random.State.t] derived
    from [(seed, case index)] by {!case_rand}, so a campaign is a pure
    function of its configuration: re-running with the same seed
    replays the same cases regardless of worker count or which earlier
    cases were skipped, and a failing case index is enough to
    regenerate its inputs exactly. *)

type labels = [ `No | `Mixed | `Separated ]
(** Labeling discipline: no labeled accesses, attribute drawn per
    access, or the last location dedicated to synchronization (the
    paper's properly-labeled discipline, under which the conditional
    RC containments of {!Smem_lattice.Figure5} always apply). *)

type config = {
  seed : int;
  count : int;  (** cases to run *)
  jobs : int;  (** worker domains for the campaign *)
  min_procs : int;
  max_procs : int;
  min_ops : int;
  max_ops : int;  (** operations (or statement groups) per processor *)
  nlocs : int;  (** locations, at most 6 *)
  max_value : int;  (** largest written value *)
  labels : labels;
  machines : bool;  (** also run every machine on a random program *)
  lang_every : int;
      (** additionally run a random [Smem_lang] program on every
          machine each [lang_every]-th case; [0] disables *)
  engines : bool;
      (** also differential-test the constraint-propagation engine
          against the enumerator ({!Oracle.engines}) on
          every history the case checks *)
  corpus : Smem_litmus.Test.t list;
      (** standard load: case [i] additionally replays the history of
          test [i mod length] through the lattice oracle, so a corpus
          file ([smem corpus generate]) rides along every campaign;
          empty disables *)
}

val default : config
(** Seed 42, 100 cases, 1 job, 2-3 processors, 1-4 operations,
    3 locations, values up to 2, [`Separated] labels, machines on,
    language programs every 3rd case. *)

val validate : config -> unit
(** @raise Invalid_argument on out-of-range fields. *)

val case_rand : config -> int -> Random.State.t
(** The PRNG for one case: [Random.State.make [| seed; index |]]. *)

val history : config -> rand:Random.State.t -> Smem_core.History.t
(** A random history.  Read values are biased toward values actually
    written to the same location (plus the initial [0]) so a useful
    fraction of histories is allowed by at least one model; a quarter
    of reads draw uniformly to exercise refutation paths. *)

val program : config -> rand:Random.State.t -> Smem_machine.Driver.program
(** A random straight-line machine program.  Write values are globally
    distinct so recorded traces have near-unambiguous reads-from maps. *)

val lang_program : config -> rand:Random.State.t -> Smem_lang.Ast.program
(** A random structured program via {!Smem_lang.Programs.random}. *)
