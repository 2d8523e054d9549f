(** Replicated memory: one replica per processor, updates broadcast on
    write and delivered by internal steps.  The seven machines differ
    only in their update-delivery {!discipline}:

    - [Pram]: FIFO per writer (§3.5).
    - [Slow]: FIFO per (writer, location).
    - [Local]: unordered; equal pending updates are one choice.
    - [Causal]: causal broadcast over vector clocks (Ahamad et al. [3]);
      every view respects [(po ∪ wb)+].
    - [Pc_g]: FIFO per writer with a per-location sequencer; a replica
      keeps only the newest update of each location, so all replicas
      agree on each location's write order (Goodman's processor
      consistency).
    - [Rc_sc], [Rc_pc]: DASH-like release consistency (§3.4):
      [Pc_g]'s delivery plus labeled operations.  An acquire (labeled
      read) makes the write it read visible at every replica.  An
      [Rc_sc] release (labeled write) first delivers everything the
      releaser has queued, then writes every replica at once, so
      labeled operations are sequentially consistent.  An [Rc_pc]
      release travels like an ordinary write, so labeled operations
      are only processor consistent: the machine on which the Bakery
      algorithm breaks (§5).

    [test_and_set] reads and writes a master copy holding each
    location's newest value (the paper's footnote 4); its write is
    labeled. *)

type discipline = Pram | Slow | Local | Causal | Pc_g | Rc_sc | Rc_pc

val machine : name:string -> discipline -> Machine_sig.machine
(** The machine of a discipline; [name] is also its model key. *)
