(** Plain-text and CSV rendering of samples and comparisons, for piping
    experiment output into external analysis (R, gnuplot, spreadsheets). *)

(** CSV of one sample set: header ["run,seconds,cycles"]. *)
val csv_of_sample : Sample.t -> string

(** Campaign health on one line, e.g.
    ["runs 30/34, 3 retried (5 retries), 4 quarantined seeds, 1
     budget-exceeded, 0 invalid, 2 fuel-starvation, 1 alloc-failure,
     power(d=0.50)=0.46, detectable d=0.74"]. The trailing power clause
    ({!Stz_stats.Power} at the completed-run count) is omitted when no
    run completed. *)
val campaign_line : Supervisor.summary -> string

(** One finished run on one line, as [szc campaign] prints it and
    [szcd] streams it: ["run   7:    1234567 cycles (0.000386 s)"], or
    ["run   8: censored: budget-exceeded  (retries=3)"]. *)
val run_line : Supervisor.record -> string

(** Long-format CSV of every run outcome of a campaign, for external
    analysis. Header:
    ["run,seed,retries,outcome,cycles,seconds,value,l1i_misses,l1d_misses,l2_misses,l3_misses,itlb_misses,dtlb_misses,branch_mispredictions,epochs,relocations"]
    — the first seven columns unchanged from earlier versions, the
    hardware-counter and randomization columns appended after [value].
    Censored runs with counters-at-censoring fill [cycles] and the
    counter columns (leaving [seconds]/[value] empty); runs that
    measured nothing leave every numeric field empty. When at least one
    run completed, two ['#']-prefixed footer comment lines state the
    achieved power at d = 0.5 and the detectable effect at 0.8 power
    for the completed-run count. *)
val csv_of_campaign : Supervisor.campaign -> string

(** Five-number summary plus mean/sd on one line. *)
val summary_line : float array -> string
