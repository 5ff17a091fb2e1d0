(** Repeated-run sampling. Each run gets an independent seed derived
    from [base_seed], so the sample is drawn over the space of layouts
    — the paper's point that a single binary is a single layout sample
    no matter how many times it runs.

    Runs that trap ([Interp.Fuel_exhausted], [Call_depth_exceeded],
    allocator OOM, …) no longer abort the loop and destroy the samples
    already gathered: each run is classified through
    {!Outcome.run_outcome}, completed runs land in [times]/[results],
    and censored runs are reported in [failures].

    With [jobs > 1] the runs execute on a {!Parallel} fork pool. Every
    run is a pure function of its seed, so the merged sample is
    bit-identical to the serial one regardless of worker count or
    completion order; a worker that dies costs exactly the run it was
    executing, censored as {!Worker_lost}. *)

(** Why a run was censored. Unlike a {!Stz_faults.Fault.fault_class},
    this also covers the gate and harness outcomes that are not faults
    of the run itself (formerly mis-reported as [Unknown_trap]). *)
type failure_kind =
  | Faulted of Stz_faults.Fault.fault_class  (** the run trapped *)
  | Budget_exceeded  (** over the supervisor's cycle budget *)
  | Invalid_result  (** return value differs from the reference *)
  | Worker_lost  (** the parallel worker died mid-run *)
  | Worker_hung
      (** the parallel worker wedged mid-run and was killed by the pool
          watchdog *)

type failure = {
  run : int;  (** run index within the sample *)
  seed : int64;  (** the exact seed that reproduces the failure *)
  kind : failure_kind;
  at_censoring : Runtime.partial option;
      (** what the machine had measured when the run was censored.
          [Some] whenever the run got far enough to measure anything:
          always for {!Budget_exceeded} and {!Invalid_result} (the run
          finished, only the gate rejected it), and for every
          {!Faulted} run whose trap was raised inside the runtime.
          [None] only for {!Worker_lost} and {!Worker_hung} (the
          counters died with the worker process) and for traps raised
          before or outside the runtime. Earlier versions dropped these counters silently;
          rollups count them under the [censored.*] metric keys,
          separate from the [counters.*] sums over completed runs. *)
}

type t = {
  times : float array;  (** virtual seconds per *completed* run *)
  cycles : int array;
  results : Runtime.result array;
  failures : failure list;  (** censored runs, in run order *)
  outcomes : (int64 * Outcome.run_outcome) array;
      (** the raw per-run classification the other fields are views of,
          in run order — what trace/metrics rollups consume *)
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

(** Classify-and-censor an outcome stream into a sample (pure; what
    {!collect} applies to {!collect_outcomes}). *)
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
