(** The STABILIZER runtime: wires a program, a configuration and a
    machine model in its initial state into an interpreter environment,
    runs the program, and reports timing.

    With code randomization on, function entries go through the
    trap/relocate machinery of {!Stz_layout.Code_rand}; the
    re-randomization timer is virtual (simulated cycles) and fires at
    the next function entry after an epoch expires, matching the
    paper's "re-randomization occurs when the next trap executes".
    Global references and calls then pay one extra data access through
    the caller's relocation table, and stack randomization pays the
    pad-table load per call — the instrumentation the compiler pass
    inserts in the real system. *)

type result = {
  cycles : int;
  virtual_seconds : float;  (** cycles at the model's 3.2 GHz clock *)
  return_value : int;
  counters : Stz_machine.Hierarchy.counters;
  relocations : int;  (** 0 unless code randomization is on *)
  epochs : int;  (** re-randomizations performed + 1 *)
  adaptive_triggers : int;
      (** epochs cut short by the §8 adaptive trigger (0 unless
          [Config.adaptive]) *)
  heap_stats : Stz_alloc.Allocator.stats;
  profile : Profiler.entry list option;
      (** hottest-first per-function attribution when [profile] was
          requested *)
  events : Stz_telemetry.Event.t list;
      (** run-local telemetry, clocked in simulated cycles from 0 — an
          ["execute"] span wrapping ["rerandomize"] instants. Empty
          unless [events] was requested, so the default path allocates
          nothing. *)
}

(** What the machine had measured when a run died mid-flight. *)
type partial = {
  p_cycles : int;
  p_counters : Stz_machine.Hierarchy.counters;
  p_epochs : int;
  p_relocations : int;
  p_adaptive_triggers : int;
}

(** Raised by {!run} in place of any non-fatal trap from the
    interpreter or a fault injector: the original exception plus the
    partial counters and a closed (well-formed) event stream, so
    censored runs keep their measurements. [Stack_overflow] and
    [Assert_failure] still propagate raw — those are harness bugs, not
    run outcomes. *)
exception
  Trap of {
    trap : exn;
    partial : partial;
    events : Stz_telemetry.Event.t list;
  }

val partial_of_result : result -> partial

(** [run ~config ~seed p ~args] executes one complete run. [seed]
    drives every random choice (link order, heap shuffling, code
    placement, stack pads), so runs are reproducible; vary the seed to
    sample the layout space. [machine_factory] substitutes a non-default
    machine model, and each such run gets a fresh instance from it.
    Runs without a factory share one default machine per process,
    reset ({!Stz_machine.Hierarchy.reset}) before each run, so each
    charges exactly as on a fresh one; a run that starts while another
    holds it (one nested in the other's callbacks) gets a fresh one.
    [env_wrap] is applied to the fully-built interpreter environment
    just before execution — the hook through which
    {!Stz_faults.Injector} injects allocation failures, heap poisoning
    and preemption spikes. *)
val run :
  ?limits:Stz_vm.Interp.limits ->
  ?profile:bool ->
  ?events:bool ->
  ?machine_factory:(unit -> Stz_machine.Hierarchy.t) ->
  ?env_wrap:(Stz_vm.Interp.env -> Stz_vm.Interp.env) ->
  config:Config.t ->
  seed:int64 ->
  Stz_vm.Ir.program ->
  args:int list ->
  result
