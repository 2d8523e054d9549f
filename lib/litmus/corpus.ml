module H = Smem_core.History

let r = H.read
let w = H.write
let rl loc v = H.read ~labeled:true loc v
let wl loc v = H.write ~labeled:true loc v
let a = Test.Allowed
let f = Test.Forbidden

(* ------------------------------------------------------------------ *)
(* The paper's figures.                                               *)
(* ------------------------------------------------------------------ *)

let fig1_tso =
  Test.make ~name:"fig1"
    ~doc:
      "Paper Figure 1: store buffering.  Both processors write, then read \
       the other's location and miss the write.  Possible with TSO \
       (buffered writes), impossible with SC."
    ~expect:
      [
        ("sc", f);
        ("tso", a);
        ("tso-op", a);
        ("pc", a);
        ("pc-g", a);
        ("causal", a);
        ("causal-coh", a);
        ("coh", a);
        ("pram", a);
        ("slow", a);
        ("local", a);
        ("rc-sc", a);
        ("rc-pc", a);
        ("wo", a);
      ]
    [ [ w "x" 1; r "y" 0 ]; [ w "y" 1; r "x" 0 ] ]

let fig2_pc_not_tso =
  Test.make ~name:"fig2"
    ~doc:
      "Paper Figure 2: write-to-read causality.  q observes p's write and \
       then writes; r observes q's write but misses p's.  Allowed by PC \
       (no global write order), forbidden by TSO — and by causal memory, \
       whose causal order carries p's write to r."
    ~expect:
      [
        ("sc", f);
        ("tso", f);
        ("tso-op", f);
        ("pc", a);
        ("pc-g", a);
        ("causal", f);
        ("causal-coh", f);
        ("coh", a);
        ("pram", a);
        ("slow", a);
        ("local", a);
      ]
    [ [ w "x" 1 ]; [ r "x" 1; w "y" 1 ]; [ r "y" 1; r "x" 0 ] ]

let fig3_pram_not_tso =
  Test.make ~name:"fig3"
    ~doc:
      "Paper Figure 3: each processor reads its own write and then the \
       other's.  Allowed by PRAM and causal memory (independent views), \
       forbidden by every coherent memory (the two views order the writes \
       to x oppositely)."
    ~expect:
      [
        ("sc", f);
        ("tso", f);
        ("tso-op", f);
        ("pc", f);
        ("pc-g", f);
        ("coh", f);
        ("causal-coh", f);
        ("causal", a);
        ("pram", a);
        ("slow", a);
        ("local", a);
        ("wo", a);
      ]
    [ [ w "x" 1; r "x" 1; r "x" 2 ]; [ w "x" 2; r "x" 2; r "x" 1 ] ]

let fig4_causal_not_tso =
  Test.make ~name:"fig4"
    ~doc:
      "Paper Figure 4: a causally consistent execution that no single \
       write serialization explains.  Allowed by causal memory, forbidden \
       by TSO (and PC)."
    ~expect:
      [
        ("sc", f);
        ("tso", f);
        ("tso-op", f);
        ("pc", f);
        ("pc-g", f);
        ("causal-coh", f);
        ("causal", a);
        ("coh", a);
        ("pram", a);
        ("slow", a);
        ("local", a);
      ]
    [
      [ w "x" 1; w "y" 1 ];
      [ r "y" 1; w "z" 1; r "x" 2 ];
      [ w "x" 2; r "x" 1; r "z" 1; r "y" 1 ];
    ]

(* ------------------------------------------------------------------ *)
(* §5: the Bakery mutual-exclusion violation.                          *)
(* ------------------------------------------------------------------ *)

(* The local subhistories exhibited in §5 for n = 2 (choosing[i] is
   c<i> with true = 1, number[i] is n<i>), all operations labeled, cut
   at the point both processors are about to enter the critical
   section.  Every synchronization read returns 0: each processor
   orders the other's writes after all of its own operations. *)
let bakery_rcpc_violation =
  Test.make ~name:"bakery-sec5"
    ~doc:
      "Paper §5: both processors of the two-process Bakery algorithm pass \
       their entry protocol reading 0 everywhere — both enter the \
       critical section.  Allowed by RC_pc, forbidden by RC_sc."
    ~expect:
      [
        ("sc", f);
        ("tso", a);
        ("tso-op", a);
        ("rc-sc", f);
        ("rc-pc", a);
        ("wo", f);
        ("pc", a);
        ("causal", a);
        ("pram", a);
      ]
    [
      [ wl "c0" 1; rl "n1" 0; wl "n0" 1; wl "c0" 0; rl "c1" 0; rl "n1" 0 ];
      [ wl "c1" 1; rl "n0" 0; wl "n1" 1; wl "c1" 0; rl "c0" 0; rl "n0" 0 ];
    ]

(* ------------------------------------------------------------------ *)
(* Classic litmus tests.                                               *)
(* ------------------------------------------------------------------ *)

let mp =
  Test.make ~name:"mp"
    ~doc:
      "Message passing: the flag (y) is seen but the data (x) is not.  \
       Forbidden down to PRAM (program order of the writer is preserved); \
       allowed by slow and local memory, and by release consistency when \
       nothing is labeled."
    ~expect:
      [
        ("sc", f);
        ("tso", f);
        ("tso-op", f);
        ("pc", f);
        ("pc-g", f);
        ("causal", f);
        ("causal-coh", f);
        ("pram", f);
        ("coh", a);
        ("slow", a);
        ("local", a);
        ("rc-sc", a);
        ("rc-pc", a);
        ("wo", a);
        (* Extended families: with only two locations every nontrivial
           partition separates the data from the flag, so the per-block
           views never see the violation; session guarantees without
           wfr cannot chain the writer's order through the flag read,
           but monotonic writes plus writes-follow-reads can. *)
        ("pc-part(blocks=2)", a);
        ("pc-part(blocks=4)", a);
        ("session(ryw,mr)", a);
        ("session(ryw,mr,mw,wfr)", f);
      ]
    [ [ w "x" 1; w "y" 1 ]; [ r "y" 1; r "x" 0 ] ]

let mp_relacq =
  Test.make ~name:"mp+rel-acq"
    ~doc:
      "Message passing with a release/acquire pair on s: the data is \
       visible after synchronization.  Allowed by both RC flavors."
    ~expect:[ ("rc-sc", a); ("rc-pc", a); ("wo", a); ("sc", a) ]
    [ [ w "x" 1; wl "s" 1 ]; [ rl "s" 1; r "x" 1 ] ]

let mp_relacq_stale =
  Test.make ~name:"mp+rel-acq-stale"
    ~doc:
      "Message passing with a release/acquire pair on s where the data \
       read is stale: the bracketing conditions of release consistency \
       forbid it in both flavors."
    ~expect:
      [
        ("rc-sc", f);
        ("rc-pc", f);
        ("sc", f);
        ("tso", f);
        ("tso-op", f);
        ("pc", f);
        ("causal", f);
        ("pram", f);
        ("coh", a);
        ("slow", a);
        ("local", a);
        ("wo", f);
      ]
    [ [ w "x" 1; wl "s" 1 ]; [ rl "s" 1; r "x" 0 ] ]

let sb_rfi =
  Test.make ~name:"sb+rfi"
    ~doc:
      "Store buffering where each processor first reads its own write \
       back.  The SPARC TSO machine allows it (reads are satisfied from \
       the store buffer), and so does tso-op, SPARC's axioms as a \
       quadruple — but the paper's view-based TSO forbids it: a view is a \
       single sequence, so the own read cannot precede the globally \
       serialized own write.  \
       This is a counterexample to the paper's claimed equivalence with \
       the axiomatic TSO of Sindhu et al.; see EXPERIMENTS.md."
    ~expect:
      [ ("sc", f); ("tso", f); ("tso-op", a); ("pc", a); ("pram", a) ]
    [ [ w "x" 1; r "x" 1; r "y" 0 ]; [ w "y" 1; r "y" 1; r "x" 0 ] ]

let lb =
  Test.make ~name:"lb"
    ~doc:
      "Load buffering: each processor reads the other's later write.  \
       Forbidden by TSO (reads do not bypass program-order-earlier reads, \
       writes do not bypass anything) and by causal memory (the \
       reads-from cycle is causal); allowed by PC and PRAM."
    ~expect:
      [
        ("sc", f);
        ("tso", f);
        ("tso-op", f);
        ("pc", a);
        ("pc-g", a);
        ("causal", f);
        ("causal-coh", f);
        ("coh", a);
        ("pram", a);
        ("slow", a);
        ("local", a);
      ]
    [ [ r "x" 1; w "y" 1 ]; [ r "y" 1; w "x" 1 ] ]

let iriw =
  Test.make ~name:"iriw"
    ~doc:
      "Independent reads of independent writes: two observers disagree on \
       the order of two unrelated writes.  Forbidden by SC and TSO (global \
       write order), allowed by PC, causal and PRAM."
    ~expect:
      [
        ("sc", f);
        ("tso", f);
        ("tso-op", f);
        ("pc", a);
        ("pc-g", a);
        ("causal", a);
        ("pram", a);
        ("coh", a);
      ]
    [
      [ w "x" 1 ];
      [ w "y" 1 ];
      [ r "x" 1; r "y" 0 ];
      [ r "y" 1; r "x" 0 ];
    ]

let corr =
  Test.make ~name:"corr"
    ~doc:
      "Coherence of read-read: a processor reads another's two writes to \
       one location against their program order.  Forbidden by everything \
       that preserves the writer's per-location order — only local memory \
       allows it."
    ~expect:
      [
        ("sc", f);
        ("tso", f);
        ("tso-op", f);
        ("pc", f);
        ("pc-g", f);
        ("coh", f);
        ("causal", f);
        ("causal-coh", f);
        ("pram", f);
        ("slow", f);
        ("local", a);
        ("wo", f);
      ]
    [ [ w "x" 1; w "x" 2 ]; [ r "x" 2; r "x" 1 ] ]

let pc_dash_not_goodman =
  Test.make ~name:"pc-dash-only"
    ~doc:
      "Separates the two processor consistencies (§3.3 cites Ahamad et \
       al. 1992 for their incomparability): DASH PC allows p1's read of \
       x to bypass its earlier writes (partial program order), while \
       Goodman PC preserves full program order in every view, which \
       forces p0 to observe w(y)1 before its read of y.  TSO also allows \
       it (store-buffer flush order w(x)2 before w(x)1), so TSO and \
       Goodman PC are incomparable too."
    ~expect:
      [
        ("sc", f);
        ("tso", a);
        ("tso-op", a);
        ("pc", a);
        ("pc-g", f);
        ("causal", a);
        ("pram", a);
      ]
    [ [ w "x" 1; r "y" 0 ]; [ w "y" 1; w "x" 2; r "x" 1 ] ]

let pc_goodman_not_dash =
  Test.make ~name:"pc-g-only"
    ~doc:
      "The other direction of the PC/PC-G incomparability: a load-buffering \
       causality loop.  Goodman PC has no semi-causality, so independent \
       views absorb the cycle; DASH PC forbids it — the chain r(y)1 ->ppo \
       w(x)2 ->rwb r(x)1 ->ppo w(y)1 closes against the read of w(y)1.  \
       Causal memory also forbids it (the reads-from cycle is causal)."
    ~expect:
      [
        ("sc", f);
        ("tso", f);
        ("tso-op", f);
        ("pc", f);
        ("pc-g", a);
        ("causal", f);
        ("causal-coh", f);
        ("pram", a);
        ("coh", a);
      ]
    [ [ r "x" 1; w "y" 1 ]; [ r "y" 1; w "x" 2; w "x" 1 ] ]

let rwc =
  Test.make ~name:"rwc"
    ~doc:
      "Read-to-write causality: p1 sees x = 1 then misses y; p2 writes y \
       then misses x.  Forbidden by SC, but allowed by TSO — p2's read of \
       x may bypass its buffered write of y (the classic reason RWC needs \
       a fence on x86/SPARC)."
    ~expect:
      [
        ("sc", f);
        ("tso", a);
        ("tso-op", a);
        ("pc", a);
        ("pc-g", a);
        ("causal", a);
        ("pram", a);
        ("coh", a);
      ]
    [ [ w "x" 1 ]; [ r "x" 1; r "y" 0 ]; [ w "y" 1; r "x" 0 ] ]

let corw1 =
  Test.make ~name:"corw1"
    ~doc:
      "A processor reads the value of its own later write (coherence of \
       read-write): forbidden by every model — even local consistency \
       preserves the reader's own program order."
    ~expect:
      [
        ("sc", f);
        ("tso", f);
        ("tso-op", f);
        ("pc", f);
        ("pc-g", f);
        ("causal", f);
        ("causal-coh", f);
        ("coh", f);
        ("pram", f);
        ("slow", f);
        ("local", f);
        ("wo", f);
        ("rc-sc", f);
        ("rc-pc", f);
      ]
    [ [ r "x" 1; w "x" 1 ] ]

let cowr =
  Test.make ~name:"cowr"
    ~doc:
      "After overwriting its own read of another's write, a processor \
       reads its own old value back: w(x)1; r(x)2; r(x)1 with a remote \
       w(x)2.  No placement of the remote write makes both reads legal in \
       any single view, so every model — even local consistency — forbids \
       it."
    ~expect:
      [
        ("sc", f);
        ("tso", f);
        ("tso-op", f);
        ("pc", f);
        ("pc-g", f);
        ("causal", f);
        ("causal-coh", f);
        ("coh", f);
        ("pram", f);
        ("slow", f);
        ("local", f);
        ("wo", f);
        ("rc-sc", f);
        ("rc-pc", f);
      ]
    [ [ w "x" 1; r "x" 2; r "x" 1 ]; [ w "x" 2 ] ]

let sb_labeled =
  Test.make ~name:"sb+labeled"
    ~doc:
      "Store buffering with every operation labeled: the core of the §5 \
       Bakery failure.  RC_sc forbids it (labeled operations are SC); \
       RC_pc allows it (labeled operations are only PC)."
    ~expect:[ ("rc-sc", f); ("rc-pc", a); ("wo", f); ("sc", f); ("pc", a) ]
    [ [ wl "x" 1; rl "y" 0 ]; [ wl "y" 1; rl "x" 0 ] ]

let iriw_labeled =
  Test.make ~name:"iriw+labeled"
    ~doc:
      "IRIW with every operation labeled: a second witness that RC_sc and \
       RC_pc differ — PC lets the observers disagree on the write order \
       even for synchronization accesses."
    ~expect:[ ("rc-sc", f); ("rc-pc", a); ("wo", f) ]
    [
      [ wl "x" 1 ];
      [ wl "y" 1 ];
      [ rl "x" 1; rl "y" 0 ];
      [ rl "y" 1; rl "x" 0 ];
    ]

let wrc_labeled =
  Test.make ~name:"wrc+labeled"
    ~doc:
      "Write-to-read causality with every operation labeled (a labeled \
       Figure 2).  RC_sc and weak ordering forbid it: the labeled \
       serialization carries p0's write before p1's through the \
       intermediate acquire even in views that do not contain that \
       acquire.  RC_pc allows it, PC being blind to the transitive \
       write-to-read chain.  Regression test for the total-order \
       restriction bug (see EXPERIMENTS.md)."
    ~expect:
      [
        ("rc-sc", f);
        ("rc-pc", a);
        ("wo", f);
        ("sc", f);
        ("tso", f);
        ("pc", a);
      ]
    [
      [ wl "x" 1 ];
      [ rl "x" 1; wl "y" 1 ];
      [ rl "y" 1; rl "x" 0 ];
    ]

let stale_read_rt =
  Test.make ~name:"stale-read-rt"
    ~doc:
      "A read that begins after a conflicting write has completed, in \
       real time, and still returns the old value.  Atomic memory (Misra \
       1986; linearizability) forbids it; sequential consistency allows \
       it — SC may reorder non-overlapping operations of different \
       processors.  This is §6's remark that atomic memory is stronger \
       than SC, as a history."
    ~expect:[ ("atomic", f); ("sc", a); ("tso", a); ("pram", a) ]
    [ [ w ~at:(0, 1) "x" 1 ]; [ r ~at:(2, 3) "x" 0 ] ]

let overlapping_read_rt =
  Test.make ~name:"overlap-read-rt"
    ~doc:
      "The same stale read, but the operations overlap in real time: \
       atomic memory allows it (the read may linearize before the \
       write)."
    ~expect:[ ("atomic", a); ("sc", a) ]
    [ [ w ~at:(0, 4) "x" 1 ]; [ r ~at:(2, 3) "x" 0 ] ]

let roundtrip =
  Test.make ~name:"roundtrip"
    ~doc:
      "A processor reads back its own write while another reads it too: \
       allowed by every model (sanity check)."
    ~expect:
      [
        ("sc", a);
        ("tso", a);
        ("tso-op", a);
        ("pc", a);
        ("pc-g", a);
        ("causal", a);
        ("causal-coh", a);
        ("coh", a);
        ("pram", a);
        ("slow", a);
        ("local", a);
        ("rc-sc", a);
        ("rc-pc", a);
        ("wo", a);
      ]
    [ [ w "x" 1; r "x" 1 ]; [ r "x" 1 ] ]

(* ------------------------------------------------------------------ *)
(* The extended families: partition consistency, session guarantees,  *)
(* and causal consistency over objects.                               *)
(* ------------------------------------------------------------------ *)

let part_split =
  Test.make ~name:"part-split"
    ~doc:
      "Message passing through z with an unrelated write to y between: \
       under blocks=2 the locations x and z (interned ids 0 and 2) share \
       a block, so the per-block view carries the writer's order from \
       w(x)1 to w(z)1 and forbids the stale read of x; under blocks=4 \
       they fall in different blocks and the violation hides, as it does \
       under plain coherence."
    ~expect:
      [
        ("sc", f);
        ("pc-g", f);
        ("pc-part(blocks=2)", f);
        ("pc-part(blocks=4)", a);
        ("coh", a);
        ("causal", f);
        ("pram", f);
        ("slow", a);
        ("local", a);
      ]
    [ [ w "x" 1; w "y" 1; w "z" 1 ]; [ r "z" 1; r "x" 0 ] ]

let session_ryw =
  Test.make ~name:"session-ryw"
    ~doc:
      "A processor writes and then misses its own write.  Forbidden by \
       anything preserving own program order per location — and by any \
       session model with the read-your-writes guarantee; monotonic \
       reads alone place no order between a write and a later read."
    ~expect:
      [
        ("sc", f);
        ("coh", f);
        ("pram", f);
        ("slow", f);
        ("local", f);
        ("session(ryw,mr)", f);
        ("session(ryw,mr,mw,wfr)", f);
        ("session(mr)", a);
      ]
    [ [ w "x" 1; r "x" 0 ] ]

let session_wfr =
  Test.make ~name:"session-wfr"
    ~doc:
      "Figure 2 reread through session guarantees (with an unrelated \
       write to z).  Without wfr the observer's view may order w(x)1 \
       after its stale read; with wfr the committed reads-from map \
       forces w(x)1 before p1's w(y)1, and monotonic reads close the \
       cycle through the observer."
    ~expect:
      [
        ("session(mr)", a);
        ("session(ryw,mr)", a);
        ("session(mr,wfr)", f);
        ("session(ryw,mr,mw,wfr)", f);
        ("causal", f);
        ("pram", a);
        ("pc", a);
      ]
    [ [ w "x" 1; w "z" 1 ]; [ r "x" 1; w "y" 1 ]; [ r "y" 1; r "x" 0 ] ]

(* Object operations desugar onto sort-tagged locations (Smem_core.Sort):
   enq/deq are writes/reads on "q:*", inc/rdc on "c:*".  Register models
   see them as plain accesses; causal-obj replays each view against the
   object's sequential specification. *)

let queue_fifo =
  Test.make ~name:"queue-fifo"
    ~doc:
      "Two enqueues dequeued in order by another processor: the FIFO \
       replay succeeds, and as a register history it is sequentially \
       consistent."
    ~expect:[ ("causal-obj", a); ("causal", a); ("sc", a) ]
    [ [ w "q:q" 1; w "q:q" 2 ]; [ r "q:q" 1; r "q:q" 2 ] ]

let queue_skip =
  Test.make ~name:"queue-skip"
    ~doc:
      "The second enqueue dequeued without the first: as a register \
       history the read simply sees the last write, but no FIFO replay \
       can return 2 while 1 is still at the head — object causality \
       forbids what register causality allows."
    ~expect:[ ("causal-obj", f); ("causal", a); ("sc", a) ]
    [ [ w "q:q" 1; w "q:q" 2 ]; [ r "q:q" 2 ] ]

let counter_inc =
  Test.make ~name:"counter-inc"
    ~doc:
      "Two increments observed as a count of 2.  No register model can \
       explain the read (no write carries the value 2); the counter \
       replay counts both increments."
    ~expect:
      [ ("causal-obj", a); ("causal", f); ("sc", f); ("local", f) ]
    [ [ w "c:c" 1; r "c:c" 2 ]; [ w "c:c" 1 ] ]

let counter_stale =
  Test.make ~name:"counter-stale"
    ~doc:
      "An increment followed by reading a count of zero on the same \
       processor: program order puts the increment first in every view, \
       so both the register reading and the counter replay forbid it."
    ~expect:
      [ ("causal-obj", f); ("causal", f); ("sc", f); ("local", f) ]
    [ [ w "c:c" 1; r "c:c" 0 ] ]

let all =
  [
    fig1_tso;
    fig2_pc_not_tso;
    fig3_pram_not_tso;
    fig4_causal_not_tso;
    bakery_rcpc_violation;
    mp;
    mp_relacq;
    mp_relacq_stale;
    sb_rfi;
    lb;
    iriw;
    corr;
    rwc;
    corw1;
    cowr;
    pc_dash_not_goodman;
    pc_goodman_not_dash;
    sb_labeled;
    iriw_labeled;
    wrc_labeled;
    stale_read_rt;
    overlapping_read_rt;
    roundtrip;
    part_split;
    session_ryw;
    session_wfr;
    queue_fifo;
    queue_skip;
    counter_inc;
    counter_stale;
  ]

let find name = List.find_opt (fun (t : Test.t) -> t.Test.name = name) all
