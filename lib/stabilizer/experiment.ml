module Stats = Stz_stats

type comparison = {
  mean_a : float;
  mean_b : float;
  speedup : float;
  normal_a : bool;
  normal_b : bool;
  used_ttest : bool;
  p_value : float;
  significant : bool;
  alpha : float;
  equal_variance : bool;
  variance_p : float;
}

let compare_samples ?(alpha = 0.05) a b =
  if Array.length a < 3 || Array.length b < 3 then
    invalid_arg "Experiment.compare_samples: needs >= 3 samples each";
  let normal_a = Stats.Shapiro.normal ~alpha a in
  let normal_b = Stats.Shapiro.normal ~alpha b in
  let used_ttest = normal_a && normal_b in
  let p_value =
    if used_ttest then (Stats.Ttest.welch a b).Stats.Ttest.p_value
    else if Array.length a = Array.length b then
      (Stats.Wilcoxon.signed_rank a b).Stats.Wilcoxon.p_value
    else (Stats.Wilcoxon.rank_sum a b).Stats.Wilcoxon.p_value
  in
  let mean_a = Stats.Desc.mean a in
  let mean_b = Stats.Desc.mean b in
  (* Brown-Forsythe guards the verdict's fine print: Welch's correction
     tolerates unequal variances, but when the spreads differ the
     "speedup" is a shift in distributions, not a clean mean shift —
     the paper's Table 1 variance comparisons live on this test. *)
  let variance_p = (Stats.Levene.brown_forsythe [ a; b ]).Stats.Levene.p_value in
  {
    mean_a;
    mean_b;
    speedup = mean_a /. mean_b;
    normal_a;
    normal_b;
    used_ttest;
    p_value;
    significant = p_value < alpha;
    alpha;
    equal_variance = not (variance_p < alpha);
    variance_p;
  }

type gated =
  | Verdict of comparison
  | Insufficient of { min_n : int; n_a : int; n_b : int }
  | Constant of { arm : string; n : int; seconds : float }

let compare_samples_gated ?alpha ~min_n a b =
  (* compare_samples itself needs >= 3 per side; the gate can only be
     stricter than that. *)
  let min_n = Stdlib.max 3 min_n in
  let n_a = Array.length a and n_b = Array.length b in
  let constant x = Stats.Desc.min x = Stats.Desc.max x in
  if n_a < min_n || n_b < min_n then Insufficient { min_n; n_a; n_b }
  else if constant a then Constant { arm = "a"; n = n_a; seconds = a.(0) }
  else if constant b then Constant { arm = "b"; n = n_b; seconds = b.(0) }
  else Verdict (compare_samples ?alpha a b)

let compare_programs ?alpha ?limits ~config ~base_seed ~runs ~args pa pb =
  let a = Sample.times ?limits ~config ~base_seed ~runs ~args pa in
  let b =
    Sample.times ?limits ~config
      ~base_seed:(Int64.add base_seed 0x5EEDL)
      ~runs ~args pb
  in
  compare_samples ?alpha a b

let suite_anova samples =
  if Array.length samples < 2 then
    invalid_arg "Experiment.suite_anova: needs >= 2 benchmarks";
  let data =
    Array.map
      (fun (a, b) -> [| Stats.Desc.mean a; Stats.Desc.mean b |])
      samples
  in
  Stats.Anova.within_subjects data

let describe c =
  Printf.sprintf "speedup %.3f, %s p=%.4f (%s)%s" c.speedup
    (if c.used_ttest then "t-test" else "Wilcoxon")
    c.p_value
    (if c.significant then "significant" else "not significant")
    (if c.equal_variance then ""
     else
       Printf.sprintf
         "; warning: unequal variances (Brown-Forsythe p=%.4f)%s"
         c.variance_p
         (if c.used_ttest then
            " — Welch-corrected, but the mean comparison summarizes \
             distributions with different spreads"
          else ""))

let describe_gated = function
  | Verdict c -> describe c
  | Insufficient { min_n; n_a; n_b } ->
      Printf.sprintf
        "no verdict: %d/%d uncensored runs, need %d per side (censored \
         campaign — collect more runs)"
        n_a n_b min_n
  | Constant { arm; n; seconds } ->
      Printf.sprintf
        "no verdict: all %d runs of arm %s took %.6f s — one layout \
         measured %d times (randomize the layout)"
        n arm seconds n
