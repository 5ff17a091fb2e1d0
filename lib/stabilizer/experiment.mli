(** The push-button evaluation workflow of §2.4-2.5: run both versions
    under STABILIZER, check normality, then apply the matching test —
    Student's t-test when both samples are plausibly Gaussian, the
    Wilcoxon signed-rank test otherwise (exactly the paper's §6
    procedure) — and, across a whole suite, one-way within-subjects
    ANOVA. *)

type comparison = {
  mean_a : float;
  mean_b : float;
  speedup : float;  (** mean_a / mean_b: > 1 when b is faster *)
  normal_a : bool;  (** Shapiro-Wilk at alpha on sample a *)
  normal_b : bool;
  used_ttest : bool;  (** false = Wilcoxon fallback *)
  p_value : float;
  significant : bool;  (** p < alpha *)
  alpha : float;
  equal_variance : bool;
      (** Brown-Forsythe at alpha across the two samples; [false] means
          the spreads differ, so a mean-shift verdict (especially a
          t-test one) deserves the warning {!describe} attaches *)
  variance_p : float;  (** the Brown-Forsythe p-value *)
}

(** [compare_samples ?alpha a b]; requires >= 3 samples each. When the
    Wilcoxon fallback is needed and lengths match, the signed-rank test
    is used, else the rank-sum test. *)
val compare_samples : ?alpha:float -> float array -> float array -> comparison

(** Gated comparison. A campaign whose censored (trapped,
    budget-exceeded, invalid) runs leave fewer than [min_n] usable
    samples per side gets {!Insufficient}, never a verdict — a censored
    sample is a biased sample, so refusing is the sound answer.
    [min_n] is clamped to at least 3 ({!compare_samples}'s own floor).
    An arm whose runs all took the same time gets {!Constant}: it is
    one layout measured [n] times, and one layout supports no verdict
    (nor a normality test). *)
type gated =
  | Verdict of comparison
  | Insufficient of { min_n : int; n_a : int; n_b : int }
  | Constant of { arm : string; n : int; seconds : float }
      (** [arm] is ["a"] or ["b"] (["a"] when both are constant) *)

val compare_samples_gated :
  ?alpha:float -> min_n:int -> float array -> float array -> gated

val describe_gated : gated -> string

(** Run two program versions under a configuration and compare their
    time samples. *)
val compare_programs :
  ?alpha:float ->
  ?limits:Stz_vm.Interp.limits ->
  config:Config.t ->
  base_seed:int64 ->
  runs:int ->
  args:int list ->
  Stz_vm.Ir.program ->
  Stz_vm.Ir.program ->
  comparison

(** Suite-wide treatment evaluation: [suite_anova samples] where
    [samples.(i)] are the per-benchmark sample pairs (same benchmark,
    treatment A and B). Each benchmark contributes its mean under each
    treatment; one-way within-subjects ANOVA partitions out
    between-benchmark differences (§6.1). *)
val suite_anova : (float array * float array) array -> Stz_stats.Anova.result

(** Render a one-line verdict, e.g.
    ["speedup 1.042, t-test p=0.003 (significant)"] *)
val describe : comparison -> string
