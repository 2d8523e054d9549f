(** Parser for the [smem] litmus format.

    {v
    # store buffering, paper Figure 1
    test sb "store buffering"
    p0: w x 1 ; r y 0
    p1: w y 1 ; r x 0
    expect sc forbidden
    expect tso allowed
    v}

    One test per [test] header.  Processor lines are [p<i>:] followed by
    [;]-separated events; an event is [r <loc> <value>] or
    [w <loc> <value>], with [r*]/[w*] for labeled (acquire/release)
    accesses; an optional [@ <start> <finish>] suffix records a
    real-time interval for the atomic-memory model.  [expect <model-key> allowed|forbidden] lines attach
    expectations.  [#] starts a comment, even inside the quoted doc;
    blank lines separate nothing.  Processors must be declared in order
    [p0, p1, ...].

    Tokens are separated by spaces alone: a tab or a ['\r'] is part of
    the token it touches, and a run of spaces inside the doc reads as
    one.  Locations are numbered by first appearance, processor by
    processor.  The text is read in one pass; a test without a
    processor line is an error at the line of its [test] header. *)

type error = { line : int; message : string }

val pp_error : Format.formatter -> error -> unit

val tests_of_string : string -> (Test.t list, error) result

val test_of_string : string -> (Test.t, error) result
(** Expects exactly one test. *)
