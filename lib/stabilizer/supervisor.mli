(** Supervised, resumable experiment campaigns. A campaign is [runs]
    supervised runs of one program under one configuration: every run is
    classified through {!Outcome.run_outcome} instead of aborting the
    loop, failed runs are retried a bounded number of times with fresh
    derived seeds, seeds that produced failures are quarantined, cycle
    and fuel budgets are calibrated from the first successful runs, and
    the whole campaign state checkpoints to a durable checksummed
    {!Stz_store.Artifact} container so an interrupted sweep resumes
    exactly where it stopped — with a final sample bit-identical to an
    uninterrupted campaign's (same seeds, same cycle counts). A
    checkpoint corrupted by a crash or torn write resumes from its
    longest valid record prefix ({!recover}); even the supervisor state
    record (quarantine list, calibrated budgets) is reconstructed
    bit-exactly from the surviving run records when it is lost.

    Never raises on run failures: under any fault profile the campaign
    completes and reports what happened. *)

type policy = {
  max_retries : int;  (** retry attempts per run beyond the first *)
  calibration_runs : int;
      (** successful runs observed before budgets are frozen; budgets
          are then 8 × the calibration maximum (cycles / fuel) *)
  hang_grace : float option;
      (** fixed watchdog grace in seconds; [None] (the default)
          calibrates it before each dispatch as 25 × the longest
          wall-clock attempt seen so far (the reference probe, and each
          delivered run's attempts timed where they executed), at least
          1 s *)
}

val default_policy : policy

(** Compact, checkpointable payload of a completed run. [seconds] is
    recomputed from [cycles] on load, so resumed times are bit-identical. *)
type completed = {
  cycles : int;
  seconds : float;
  return_value : int;
  instructions : int;
  counters : Stz_machine.Hierarchy.counters;
      (** the full hardware-counter sample ([counters.cycles = cycles],
          [counters.instructions = instructions]) *)
  epochs : int;
  relocations : int;
  adaptive_triggers : int;
  allocations : int;
  frees : int;
}

type stored_outcome =
  | Done of completed
  | Trapped of Stz_faults.Fault.fault_class * Runtime.partial option
      (** counters at the trap, when the run measured anything *)
  | Budget_exceeded of Runtime.partial
  | Invalid_result of Runtime.partial
  | Worker_lost
      (** the parallel worker executing the run died before reporting —
          see {!Outcome.run_outcome} *)
  | Worker_hung
      (** the parallel worker executing the run went silent past the
          watchdog grace and was SIGKILLed — see {!Outcome.run_outcome} *)

(** Compact outcome tag, same vocabulary as {!Outcome.tag}. *)
val stored_tag : stored_outcome -> string

type record = {
  run : int;
  seed : int64;  (** seed of the final attempt *)
  retries : int;
  outcome : stored_outcome;  (** censored unless [Done] *)
}

type campaign = {
  base_seed : int64;
  runs : int;
  profile_fp : string;  (** {!Stz_faults.Fault.fingerprint} *)
  config_desc : string;  (** {!Config.describe} *)
  records : record list;  (** ascending run order *)
  quarantined : int64 list;  (** every seed that produced a failure *)
  budget_cycles : int option;  (** calibrated; [None] until frozen *)
  budget_fuel : int option;
  reference : int option;  (** expected return value, from a clean run *)
}

type summary = {
  runs : int;
  completed : int;
  censored : int;
  retried_runs : int;  (** runs that needed at least one retry *)
  total_retries : int;
  quarantined : int;
  budget_exceeded : int;
  invalid : int;
  worker_lost : int;  (** runs censored because their worker died *)
  worker_hung : int;  (** runs censored because their worker hung *)
  by_class : (Stz_faults.Fault.fault_class * int) list;
      (** final-outcome trap tallies, every class listed *)
}

(** Raised only for unusable campaign setups: [runs < 1]; a
    [~checkpoint] file that exists but belongs to a different campaign
    (other seed, run count, fault profile or configuration) or is
    unrecoverably corrupt while [~resume:true]; or a wedge-armed fault
    profile with [jobs < 2] (a wedge can only be survived by the pool
    watchdog, which needs a fork boundary). Run failures never
    raise. *)
exception Mismatch of string

(** [run_campaign ~config ~base_seed ~runs ~args p] executes the
    campaign. [profile] injects faults via {!Stz_faults.Injector}
    (default {!Stz_faults.Fault.none}). With [checkpoint], progress is
    written to that file ({!save}) as runs finish; with [resume] also set,
    an existing file's finished runs are loaded and skipped, and
    calibrated budgets, the reference value and the quarantine list are
    restored so the continuation behaves exactly as the uninterrupted
    campaign would. [on_record] observes each finished run (useful for
    progress display — and for tests that kill a campaign mid-flight).

    [jobs] (default 1) sets the {!Parallel} worker count. One loop
    executes the campaign in waves: until the cycle/fuel budgets freeze
    (they change the limits of later runs), it dispatches the next
    [calibration_runs - completed] pending runs together, all without a
    budget, then dispatches the remainder at once. A run executes
    without a budget exactly when fewer than [calibration_runs] runs
    before it completed, so a wave holds only runs a one-at-a-time loop
    would also have run unbudgeted. {!Parallel} reports results in task
    order, and each is quarantined, reported through [on_record] and
    checkpointed as it arrives, so samples, checkpoints and outcome CSVs
    are bit-identical to a serial campaign's for any worker count. With
    [jobs <= 1] every run executes in-process. With [jobs > 1] every
    wave goes through [dispatch] under the watchdog, so a wedge during
    calibration is as survivable as one in the fan-out. A worker that
    dies censors exactly the run it was executing as {!Worker_lost};
    the rest of its task stripe is re-spawned. A worker that goes
    silent past the watchdog grace ([policy.hang_grace], calibrated
    when [None]) is SIGKILLed and its run censored as {!Worker_hung} —
    results it finished before wedging are salvaged from its pipe
    first, so hang recovery costs exactly the wedged run and the
    campaign stays bit-identical across worker counts.

    [telemetry] streams the campaign into a {!Stz_telemetry.Trace}:
    every run contributes its attempt spans (produced worker-side and
    shipped back with the result, then merged in run order, so the
    deterministic stream is byte-identical for any [jobs]); reference
    probe, budget freeze and checkpoint writes land on the control
    lane; the physical pool's lifecycle is not traced. On resume,
    checkpointed runs re-enter the trace as synthetic ["restored"]
    spans so the timeline stays consistent.

    [monitor] receives every finished run as a streaming observation
    ({!Stz_monitor.Monitor.observe_completed} /
    [observe_censored]). Records are fed strictly in run order —
    checkpointed runs first (on resume), then delivered runs — so the
    monitor's estimator state, and therefore its stopping verdict, is a
    pure function of the record sequence: byte-identical for any [jobs]
    and for interrupted-then-resumed versus uninterrupted campaigns.
    Each observation emits a ["monitor"] control-lane instant and the
    campaign ends with a ["monitor-verdict"] instant when [telemetry]
    is also armed. The monitor is updated before [on_record] fires, so
    a progress callback can print {!Stz_monitor.Monitor.status_line}
    reflecting the run it was called for.

    [dispatch] (default {!Parallel.pool_dispatcher}) decides how task
    batches reach the fork pool on the [jobs > 1] path — the campaign
    daemon passes {!Parallel.batched} so an external fair-share
    scheduler can meter run slots. Every dispatcher reports in task
    order, so any conforming one yields byte-identical artifacts. *)
val run_campaign :
  ?policy:policy ->
  ?profile:Stz_faults.Fault.profile ->
  ?limits:Stz_vm.Interp.limits ->
  ?jobs:int ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?on_record:(record -> unit) ->
  ?telemetry:Stz_telemetry.Trace.t ->
  ?monitor:Stz_monitor.Monitor.t ->
  ?dispatch:Parallel.dispatcher ->
  config:Config.t ->
  base_seed:int64 ->
  runs:int ->
  args:int list ->
  Stz_vm.Ir.program ->
  campaign

(** Times (virtual seconds) of completed runs, in run order — the
    campaign's sample. *)
val times : campaign -> float array

val summarize : campaign -> summary

(** The [szc campaign] exit code of a finished campaign's summary: 3
    when every run was censored, 2 when fewer than [min_n] runs
    completed (no verdict possible), else 0. [szcd] reports the same
    code for a tenant's campaign. *)
val exit_code : min_n:int -> summary -> int

(** Min-N-gated comparison of two campaigns' samples (§6 procedure with
    the censoring gate in front). *)
val verdict :
  ?alpha:float -> min_n:int -> campaign -> campaign -> Experiment.gated

(** One record of a version-3 checkpoint after its [meta] record. *)
type checkpoint_item =
  | Run of record
  | State of int64 list * int option * int option
      (** quarantined seeds, calibrated cycle and fuel budgets *)

(** The checkpoint's {!Stz_store.Log} (kind ["szc-checkpoint"]). Its
    meta is the campaign's identity and reference, records and state
    left empty. {!load}, {!recover} and {!check} add the
    supervisor-state rules on top. *)
module Checkpoint :
  Stz_store.Log.S with type meta = campaign and type item = checkpoint_item

(** Checkpoint IO. [save] rewrites the whole {!Checkpoint} durably:
    temp file, fsync of file and parent directory, then rename — a
    crash at any point leaves either the old checkpoint or the new one,
    never a torn file. *)
val save : string -> campaign -> unit

(** Strict load: a container must parse completely (header, every
    record checksum, meta and state present, every field the writer
    emits in every record). A file that is not a container, or any
    corruption, is an [Error]. *)
val load : string -> (campaign, string) result

(** Lenient load: salvages the longest valid record prefix of a
    corrupted container. A missing state record (quarantine, budgets)
    is reconstructed from the surviving run records — bit-exactly, so a
    resume from the salvaged prefix matches an uninterrupted campaign.
    Returns the campaign plus [Some note] describing what was salvaged,
    or [None] when the file was intact. [Error] only when not even the
    meta record survives (or the file is missing, unreadable or not a
    container). *)
val recover : string -> (campaign * string option, string) result

(** {!Stz_store.Log.check} over {!recover} and {!save}: a checkpoint
    whose state had to be re-derived is salvageable, and its repair
    writes the re-derived state. *)
val check : repair:bool -> string -> Stz_store.Log.verdict
