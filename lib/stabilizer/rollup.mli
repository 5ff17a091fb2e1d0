(** Aggregation of campaigns and samples into the telemetry layer's
    registries and traces. All rollups are integer sums over run-order
    data, so for a fixed seed the snapshot bytes are identical however
    the runs were scheduled.

    Metric key schema:
    - [campaign.*] / [sample.*] — run population tallies (runs,
      completed, censored, retries, quarantine);
    - [fault.<class>] — censored-run counts per final fault class;
    - [counters.<field>] — hardware-counter totals over *completed*
      runs (one key per {!Stz_machine.Hierarchy.counters} field);
    - [censored.cycles] / [censored.instructions] — what censored runs
      had measured when cut off, kept apart from [counters.*] so the
      completed-run sums stay interpretable;
    - [runtime.epochs] / [runtime.relocations] /
      [runtime.adaptive_triggers], [heap.allocations] / [heap.frees] —
      randomization-machinery totals over completed runs. *)

val of_campaign : Supervisor.campaign -> Stz_telemetry.Metrics.t

val of_sample : Sample.t -> Stz_telemetry.Metrics.t

(** Assemble a per-run outcome stream (as produced by
    {!Sample.collect_outcomes}, run order) into a campaign trace:
    run [i] becomes a ["run"] span on lane [1 + i mod 4]. *)
val trace_of_outcomes :
  (int64 * Outcome.run_outcome) array -> Stz_telemetry.Trace.t
