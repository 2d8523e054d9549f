(** Monotonic time source for spans, metrics and benchmarks.

    Readings come from [clock_gettime(CLOCK_MONOTONIC)] via a local C
    stub (no package dependency), so differences between two readings
    are always non-negative and unaffected by NTP steps or manual wall
    clock changes — unlike [Unix.gettimeofday], which this module
    exists to replace for interval measurement.  The epoch is
    unspecified (typically boot time): readings are only meaningful as
    differences. *)

val now : unit -> int
(** Current monotonic reading in nanoseconds, as a native [int].
    63-bit nanoseconds overflow after ~146 years of uptime, so this is
    safe everywhere the toolkit runs; the search counters
    ({!Smem_core.Stats}) and trace events store plain ints. *)

val elapsed_ns : int -> int
(** [elapsed_ns t0] is [now () - t0], clamped to [0] (the clamp only
    matters on platforms that fell back to a non-monotonic source). *)
