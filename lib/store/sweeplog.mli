(** The layout-sweep ledger: the durable record of a [szc layout sweep]
    campaign, a {!Log} of kind ["szc-sweep"] — one [meta] record
    pinning the sweep's identity, then one [case] record per swept
    index, appended strictly in index order. *)

(** Sweep identity. {!resume} refuses a file whose meta differs. *)
type meta = {
  version : int;
  fuzz_seed : int64;  (** keys the {!Stz_workloads.Fuzz} meta-space *)
  count : int;
  layout_seeds : int;  (** K layout seeds per case (ANOVA treatments) *)
  variants : int;  (** W workload variants per case (ANOVA subjects) *)
  threshold : float;  (** layout η² at or above which a case is shrunk *)
  shrink_budget : int;
}

type verdict =
  | Measured  (** full matrix completed; η² decomposition recorded *)
  | Trapped  (** some cell trapped; case censored, no decomposition *)
  | Crashed  (** worker died mid-case (censored) *)
  | Hung  (** watchdog killed the worker (censored) *)

(** One swept program. Effect-size floats are stored as hex float
    literals, so records round-trip bit-exactly. [structure .. conflict_cycles]
    describe the case's #1 conflict pair (empty/zero when none). *)
type case = {
  index : int;
  case_seed : int64;
  verdict : verdict;
  eta2 : float;  (** classic layout η²: SS_layout / SS_total *)
  partial_eta2 : float;  (** SS_layout / (SS_layout + SS_error) *)
  workload_share : float;  (** SS_subjects / SS_total *)
  residual_share : float;  (** SS_error / SS_total *)
  mean_cycles : int;
  instrs : int;  (** static instruction count of the case program *)
  structure : string;  (** structure of the top conflict pair, or "" *)
  victim : int;  (** fid whose lines/slots were evicted, or -1 *)
  evictor : int;  (** fid doing the evicting, or -1 *)
  conflict_events : int;
  conflict_cycles : int;  (** estimated cycles charged to the top pair *)
  repro : string;  (** reproducer file name, "" unless shrunk *)
  repro_instrs : int;
  shrink_steps : int;
  detail : string;  (** one-line diagnosis (newlines sanitized) *)
}

val verdict_to_string : verdict -> string
val verdict_of_string : string -> verdict option

(** {!Log.S.resume} refuses a file whose meta differs, naming the
    differing fields. *)
include Log.S with type meta := meta and type item = case
