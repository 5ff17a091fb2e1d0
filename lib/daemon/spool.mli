(** The daemon's durable state: one directory per campaign under
    [<spool>/<tenant>/<id>/], holding the campaign's manifest (what to
    run), its artifacts (checkpoint, CSV, optional trace and ledger)
    and its result (how it ended). Everything durable goes through
    {!Stz_store.Artifact}, so a SIGKILLed daemon leaves a spool that
    {!scan} + {!repair} can always bring back: a campaign directory
    with a result record is finished; one without is interrupted and
    resumes through the supervisor's checkpoint path.

    Tenant and campaign identifiers are filesystem tokens
    ([A-Za-z0-9._-], not starting with a dot, at most 64 bytes) —
    anything else is rejected at admission, so a hostile id can never
    escape the spool directory. *)

(** What one campaign runs: the subset of [szc campaign] options a
    manifest can carry. [opt] and [faults] / [storage_faults] are kept
    in their CLI string spellings and parsed by {!resolve}. *)
type spec = {
  bench : string;
  runs : int;
  seed : int;
  scale : float;
  opt : string;  (** optimization level, ["O0".."O3"] *)
  faults : string;  (** run fault profile, e.g. ["light"] *)
  storage_faults : string;  (** storage fault profile for artifact writes *)
  storage_seed : int;
  retries : int;
  min_n : int;
  ledger : bool;  (** append a history ledger entry (arms the monitor) *)
  trace : bool;  (** export a Chrome trace *)
}

val default_spec : spec

(** JSON round-trip for the wire and the manifest. Floats travel as
    ["%.17g"] strings, so a spec survives the trip bit-identically. *)
val spec_to_json : spec -> Stz_telemetry.Json.t

val spec_of_json : Stz_telemetry.Json.t -> (spec, string) result

(** A spec's strings parsed into what the runner executes. *)
type resolved = {
  workload : Stz_workloads.Profile.t;  (** the benchmark, scaled *)
  level : Stz_vm.Opt.level;
  profile : Stz_faults.Fault.profile;
  storage : Stz_faults.Storage.profile;
}

(** Parse a spec into what a runner executes, or the first reason it
    cannot run one (bad runs, retries, min_n or scale, unknown
    benchmark, unparsable option strings). *)
val resolve : spec -> (resolved, string) result

(** {!resolve} with the result ignored. *)
val validate : spec -> (unit, string) result

val token_ok : string -> bool

(** {1 Layout} *)

val dir : spool:string -> tenant:string -> id:string -> string
val manifest_path : string -> string
val checkpoint_path : string -> string
val csv_path : string -> string
val ledger_path : string -> string
val trace_path : string -> string
val result_path : string -> string
val pid_path : string -> string

(** {1 Manifest and result records} *)

val write_manifest : dir:string -> spec -> unit
val read_manifest : dir:string -> (spec, string) result

(** How a campaign ended. [Finished] carries the [szc campaign] exit
    code (0 verdict-capable, 2 insufficient uncensored runs, 3
    aborted) and the summary line its stream ends with; a result
    written without a line reads back as ["campaign finished"]. *)
type outcome = Finished of { exit_code : int; line : string } | Cancelled

val outcome_state : outcome -> string
val write_result : dir:string -> outcome -> unit
val read_result : dir:string -> (outcome, string) result

(** Runs recorded in the campaign's checkpoint (completed and censored
    alike); 0 when the checkpoint is missing or unreadable. The honest
    progress count for a campaign with no live runner — an aborted
    campaign reports what it actually ran, not its plan. *)
val completed_runs : dir:string -> int

(** [(run, progress line)] for each run in the checkpoint's longest
    valid prefix ({!Stabilizer.Supervisor.recover}), in run order; [[]]
    when nothing survives. *)
val progress : dir:string -> (int * string) list

(** The runner's pid file — advisory, for stale-runner cleanup on
    daemon restart; never trusted further than a [kill]. *)
val write_pid : dir:string -> int -> unit

val read_pid : dir:string -> int option
val clear_pid : dir:string -> unit

(** {1 Recovery} *)

type entry = {
  tenant : string;
  id : string;
  entry_dir : string;
  spec : spec;
  result : outcome option;  (** [None] — interrupted, resume it *)
}

(** Walk the spool. Campaign directories whose manifest is unreadable
    or fails {!validate} are reported in the second list (reason
    attached) and left untouched for operator inspection. *)
val scan : spool:string -> entry list * (string * string) list

(** Repair one campaign directory after a crash, [szc fsck --repair]
    style: promote a rename-dropped [*.tmp] over a missing target,
    rewrite a salvageable checkpoint or ledger from its longest valid
    record prefix, drop a checkpoint too corrupt to salvage (the
    campaign restarts from zero rather than dying), and delete
    checksum-mismatched CSV/trace payloads (they are rewritten at
    completion). Returns a human-readable note per action taken. *)
val repair : dir:string -> string list
