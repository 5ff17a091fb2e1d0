(** The szc-style driver (paper §3.1, Figure 2): "compile" a program at
    an optimization level and run it under a STABILIZER configuration —
    the equivalent of substituting szc for the default compiler and
    enabling randomizations with flags. *)

(** [compile ~opt p] applies the optimization pipeline and validates
    the result. *)
val compile : opt:Stz_vm.Opt.level -> Stz_vm.Ir.program -> Stz_vm.Ir.program

(** [build_and_run ~config ~opt ~base_seed ~runs ~args p] compiles then
    collects [runs] timing samples. A run that traps is censored (its
    outcome stays in [Sample.outcomes]) instead of aborting the loop;
    [profiled] turns on the per-function profiler ([szc top]);
    [profile] injects faults via {!Stz_faults.Injector}; [jobs] fans
    the runs out over a {!Parallel} fork pool with a deterministic
    in-run-order merge. *)
val build_and_run :
  ?jobs:int ->
  ?limits:Stz_vm.Interp.limits ->
  ?profile:Stz_faults.Fault.profile ->
  ?events:bool ->
  ?profiled:bool ->
  config:Config.t ->
  opt:Stz_vm.Opt.level ->
  base_seed:int64 ->
  runs:int ->
  args:int list ->
  Stz_vm.Ir.program ->
  Sample.t

(** Compile then run a supervised campaign (retry, quarantine, budgets,
    checkpoint/resume) — see {!Supervisor.run_campaign}. *)
val campaign :
  ?policy:Supervisor.policy ->
  ?profile:Stz_faults.Fault.profile ->
  ?limits:Stz_vm.Interp.limits ->
  ?jobs:int ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?on_record:(Supervisor.record -> unit) ->
  ?telemetry:Stz_telemetry.Trace.t ->
  ?monitor:Stz_monitor.Monitor.t ->
  ?dispatch:Parallel.dispatcher ->
  config:Config.t ->
  opt:Stz_vm.Opt.level ->
  base_seed:int64 ->
  runs:int ->
  args:int list ->
  Stz_vm.Ir.program ->
  Supervisor.campaign

(** Compare two optimization levels of the same program under
    STABILIZER (§6): both arms run as supervised campaigns, arm b on
    a salted base seed, and the verdict is gated — a campaign censored
    below [min_n] usable runs per side, or an arm whose runs all took
    the same time, refuses to conclude. In a verdict, [speedup > 1]
    means the second level is faster.
    [telemetry_a]/[telemetry_b] trace each arm into its own
    {!Stz_telemetry.Trace} (separate traces, exported as two process
    groups). *)
val compare_campaigns :
  ?alpha:float ->
  ?policy:Supervisor.policy ->
  ?profile:Stz_faults.Fault.profile ->
  ?limits:Stz_vm.Interp.limits ->
  ?jobs:int ->
  ?telemetry_a:Stz_telemetry.Trace.t ->
  ?telemetry_b:Stz_telemetry.Trace.t ->
  min_n:int ->
  config:Config.t ->
  base_seed:int64 ->
  runs:int ->
  args:int list ->
  Stz_vm.Opt.level ->
  Stz_vm.Opt.level ->
  Stz_vm.Ir.program ->
  Supervisor.campaign * Supervisor.campaign * Experiment.gated
