(** Repeated-run sampling. Each run gets an independent seed derived
    from [base_seed], so the sample is drawn over the space of layouts
    — the paper's point that a single binary is a single layout sample
    no matter how many times it runs.

    Runs that trap ([Interp.Fuel_exhausted], [Call_depth_exceeded],
    allocator OOM, …) no longer abort the loop and destroy the samples
    already gathered: each run is classified through
    {!Outcome.run_outcome}, completed runs land in [times]/[results],
    and every run, censored or not, keeps its outcome in [outcomes].

    With [jobs > 1] the runs execute on a {!Parallel} fork pool. Every
    run is a pure function of its seed, so the merged sample is
    bit-identical to the serial one regardless of worker count or
    completion order; a worker that dies costs exactly the run it was
    executing, censored as {!Outcome.Worker_lost}. *)

type t = {
  times : float array;  (** virtual seconds per *completed* run *)
  cycles : int array;
  results : Runtime.result array;
  outcomes : (int64 * Outcome.run_outcome) array;
      (** each run's seed and classification, in run order: the other
          fields are views of the completed ones, and trace/metrics
          rollups read the censored ones (with the counters they carry,
          see {!Outcome.partial}) from here *)
}

(** [events] forwards to {!Runtime.run}, populating each result's
    telemetry stream; [profiled] likewise enables the per-function
    profiler. Both default to off. *)
val collect :
  ?jobs:int ->
  ?limits:Stz_vm.Interp.limits ->
  ?profile:Stz_faults.Fault.profile ->
  ?events:bool ->
  ?profiled:bool ->
  config:Config.t ->
  base_seed:int64 ->
  runs:int ->
  args:int list ->
  Stz_vm.Ir.program ->
  t

(** The per-run seeds [collect] uses, in order: sequential
    {!Stz_prng.Splitmix.split}s of [base_seed]. Exposed so the
    supervisor's checkpoint/resume can re-derive them. *)
val seeds : base_seed:int64 -> runs:int -> int64 array

(** [collect_outcomes] is the raw classified stream, one entry per run
    (seed, outcome) — nothing censored, nothing re-ordered (the merge
    is in run order even with [jobs > 1]). [profile] injects faults per
    {!Stz_faults.Injector}. *)
val collect_outcomes :
  ?jobs:int ->
  ?limits:Stz_vm.Interp.limits ->
  ?profile:Stz_faults.Fault.profile ->
  ?events:bool ->
  ?profiled:bool ->
  config:Config.t ->
  base_seed:int64 ->
  runs:int ->
  args:int list ->
  Stz_vm.Ir.program ->
  (int64 * Outcome.run_outcome) array

(** An outcome stream as a sample (pure; what {!collect} applies to
    {!collect_outcomes}). *)
val of_outcomes : (int64 * Outcome.run_outcome) array -> t

(** Convenience: just the times of completed runs. *)
val times :
  ?jobs:int ->
  ?limits:Stz_vm.Interp.limits ->
  ?profile:Stz_faults.Fault.profile ->
  config:Config.t ->
  base_seed:int64 ->
  runs:int ->
  args:int list ->
  Stz_vm.Ir.program ->
  float array
