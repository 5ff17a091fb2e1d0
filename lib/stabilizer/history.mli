(** Bridge between finished campaigns and the cross-campaign
    regression history ({!Stz_store.Ledger}): appends one ledger entry
    per campaign, and decides — from ledger entries alone — whether the
    latest campaign regressed against its baseline, using effect-size
    confidence intervals (Kalibera & Jones: report effect sizes with
    CIs, not bare p-values).

    Everything here is deterministic: the entry is a pure function of
    the campaign records (so a SIGKILLed + resumed campaign appends a
    ledger record bit-identical to an uninterrupted one), and the
    regression decision is a pure function of two entries. *)

(** [append ?monitor ~bench ~opt ~scale path c] appends the ledger
    entry of a finished campaign to the history ledger at [path]
    ({!Stz_store.Ledger.append}: the new entry's sequence number, or
    why the ledger refused it). [szc campaign --ledger] and the [szcd]
    runner both call it, so a tenant's ledger is byte-identical to a
    solo run's.

    The entry is labelled [bench]; its fingerprint is the campaign's
    full configuration identity — benchmark, optimization level,
    workload scale, randomization config and fault profile. Two
    campaigns with equal fingerprints measured the same thing; two with
    equal labels measure comparable workloads (e.g. the same benchmark
    at O1 vs O2). Moments are computed with streaming (Welford)
    estimators over completed-run times in run order — the same numbers
    the live monitor converges to. The verdict is [monitor]'s final
    stopping verdict, or ["-"] for an unmonitored campaign. *)
val append :
  ?monitor:Stz_monitor.Monitor.t ->
  bench:string ->
  opt:Stz_vm.Opt.level ->
  scale:float ->
  string ->
  Supervisor.campaign ->
  (int, string) result

type decision =
  | No_regression  (** CI does not confirm a slowdown *)
  | Regression  (** latest is slower: CI excludes zero, d >= 0.2 *)
  | Improvement  (** latest is faster, same evidence bar *)
  | Not_comparable of string  (** too little data to decide either way *)

type comparison = {
  baseline_seq : int;  (** ledger position of the baseline entry *)
  latest_seq : int;
  d : float;  (** Cohen's d, positive = latest slower *)
  ci_low : float;
  ci_high : float;
  ratio : float;  (** latest mean / baseline mean; 0 when baseline is 0 *)
  same_fingerprint : bool;
  decision : decision;
}

(** [compare_entries ~baseline ~latest] with their ledger sequence
    numbers. The rule is fixed: a 95% CI, a practical-significance
    floor of d = 0.2 (Cohen's "small"), and at least 3 completed runs
    per side, below which the decision is {!Not_comparable}. *)
val compare_entries :
  baseline:int * Stz_store.Ledger.entry ->
  latest:int * Stz_store.Ledger.entry ->
  comparison

val describe : comparison -> string
