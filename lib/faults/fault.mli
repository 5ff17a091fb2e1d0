(** Fault taxonomy and injection profiles. A profile assigns each fault
    class an independent per-run arming probability; the {!Injector}
    draws arming decisions deterministically from the run seed, so a
    faulty run is exactly reproducible from its seed — the property the
    supervisor's quarantine list and checkpoint/resume rely on. *)

type fault_class =
  | Fuel_starvation  (** run aborted by [Interp.Fuel_exhausted] *)
  | Depth_blowout  (** run aborted by [Interp.Call_depth_exceeded] *)
  | Alloc_failure  (** malloc failed (injected or genuine arena OOM) *)
  | Preemption_spike
      (** OS-preemption-like cycle inflation; the run completes but may
          blow the supervisor's cycle budget *)
  | Seed_poisoning
      (** a layout draw that silently corrupts the computation; detected
          only by comparing the result against the reference value *)
  | Unknown_trap  (** any other exception escaping a run *)

val all_classes : fault_class list
val class_to_string : fault_class -> string
val class_of_string : string -> fault_class option

(** Raised by the injector's wrapped [malloc] when an allocation
    failure fault fires. *)
exception Injected_oom

type profile = {
  fuel_starvation : float;  (** per-run arming probability, [0,1] *)
  depth_blowout : float;
  alloc_failure : float;
  preemption_spike : float;
  seed_poisoning : float;
  wedge : float;
      (** probability the run wedges — spins forever at its first
          function entry without trapping or finishing. A wedged run
          can only be survived by the parallel pool's hung-worker
          watchdog, which SIGKILLs the worker and censors the run as
          [Worker_hung]; the supervisor therefore refuses wedge-armed
          profiles below [jobs >= 2]. Not part of any preset. *)
  fuel_fraction : float;
      (** fuel left to a starved run, as a fraction of its limit *)
  starved_depth : int;  (** call-depth limit under a depth blowout *)
  oom_after : int;  (** allocations served before the injected OOM *)
  spike_cycles : int;  (** magnitude of one preemption spike *)
  spike_rate : float;  (** per-function-entry spike probability *)
}

(** No faults; the identity profile. *)
val none : profile

(** ~10% of runs fail or are perturbed; the acceptance-test profile. *)
val light : profile

(** Every class armed often; stress profile for the selftest. *)
val heavy : profile

(** [chaos] arms every fault class on every run. *)
val chaos : profile

val named : (string * profile) list

(** Parse ["none"], ["light"], ["heavy"], ["chaos"], or a
    comma-separated [key=prob] list over keys [fuel], [depth], [oom],
    [preempt], [poison] and [wedge] (e.g. ["fuel=0.1,oom=0.05"]),
    starting from {!none}. *)
val profile_of_string : string -> (profile, string) result

(** The [key=prob] parser behind both fault-profile spellings: [s] is
    a preset from [named] or a comma-separated list folded over [none],
    each key applied through its setter in [keys]. Errors name [what]
    (["fault"], ["storage fault"]) and list the keys in order. *)
val parse_profile :
  what:string ->
  named:(string * 'p) list ->
  none:'p ->
  keys:(string * ('p -> float -> 'p)) list ->
  string ->
  ('p, string) result

(** Stable fingerprint of a profile, stored in checkpoints so a resumed
    campaign refuses to continue under different fault assumptions. *)
val fingerprint : profile -> string
