(** Admission control: per-tenant quotas plus a global run budget.
    Overload is answered with a typed rejection at submit time, never
    with queue collapse — a campaign that is admitted will run.

    Accounting is reservation-based: {!admit} atomically reserves the
    campaign slot and its planned runs, {!release} returns them when
    the campaign reaches any terminal state (finished, cancelled,
    drained). Resumed campaigns re-reserve their full run count — the
    budget bounds work the daemon has {e promised}, not work left. *)

type limits = {
  max_campaigns_per_tenant : int;  (** concurrent in-flight campaigns *)
  max_runs_per_tenant : int;  (** total runs across a tenant's in-flight campaigns *)
  global_run_budget : int;  (** total runs in flight across all tenants *)
}

val default_limits : limits

type t

val create : limits -> t

(** Why an admission was refused — typed so the ops plane can count
    rejections by cause. *)
type reject = Campaign_quota | Run_quota | Global_budget

(** Stable metric-key form: ["campaign-quota"], ["run-quota"],
    ["global-budget"]. *)
val reject_key : reject -> string

(** Reserve one campaign of [runs] runs for [tenant];
    [Error (why, reason)] (the [reason] suitable for a [Rejected]
    reply) when any quota would be exceeded. *)
val admit : t -> tenant:string -> runs:int -> (unit, reject * string) result

(** Unconditionally re-reserve (crash-recovery and runner-restart
    paths): the admission promise predates the crash and is never
    dropped, even if the quota has since filled — the counters really
    are incremented, so the matching {!release} stays balanced and
    later admissions see the true in-flight load. *)
val readmit : t -> tenant:string -> runs:int -> unit

val release : t -> tenant:string -> runs:int -> unit

(** In-flight campaign count, all tenants. *)
val in_flight : t -> int

(** Runs currently reserved against the global budget. *)
val global_runs : t -> int

val limits : t -> limits

(** Tenants the quota tracks — the ops plane's quota-occupancy gauge.
    A tenant is tracked from its first admission attempt until a
    release leaves it with no campaign and no run. *)
val tenants : t -> int
