module Ledger = Stz_store.Ledger
module Welford = Stz_monitor.Welford
module Effect = Stz_stats.Effect
module Power = Stz_stats.Power

let append ?monitor ~bench ~opt ~scale path (c : Supervisor.campaign) =
  let w = Welford.create () in
  List.iter
    (fun (r : Supervisor.record) ->
      match r.Supervisor.outcome with
      | Supervisor.Done d -> Welford.add w d.Supervisor.seconds
      | _ -> ())
    c.Supervisor.records;
  let completed = Welford.count w in
  Ledger.append path
    {
      Ledger.label = bench;
      fingerprint =
        Printf.sprintf "%s|%s|%h|%s|%s" bench
          (Stz_vm.Opt.level_to_string opt)
          scale c.Supervisor.config_desc c.Supervisor.profile_fp;
      base_seed = c.Supervisor.base_seed;
      runs = c.Supervisor.runs;
      completed;
      censored = List.length c.Supervisor.records - completed;
      mean = Welford.mean w;
      sd = Welford.std_dev w;
      min = Welford.min w;
      max = Welford.max w;
      skewness = Welford.skewness w;
      kurtosis = Welford.kurtosis w;
      detectable_effect =
        (if completed < 1 then 0.0 else Power.detectable_effect ~n:completed ());
      verdict =
        (match monitor with
        | Some m ->
            Stz_monitor.Monitor.verdict_to_string (Stz_monitor.Monitor.advise m)
        | None -> "-");
    }

type decision = No_regression | Regression | Improvement | Not_comparable of string

type comparison = {
  baseline_seq : int;
  latest_seq : int;
  d : float;
  ci_low : float;
  ci_high : float;
  ratio : float;
  same_fingerprint : bool;
  decision : decision;
}

(* The decision rule is fixed, so its size under H0 is one number. *)
let confidence = 0.95
let min_effect = 0.2
let min_n = 3

let compare_entries ~baseline:(baseline_seq, (b : Ledger.entry))
    ~latest:(latest_seq, (l : Ledger.entry)) =
  let moments (e : Ledger.entry) =
    { Effect.n = e.Ledger.completed; mean = e.Ledger.mean; sd = e.Ledger.sd }
  in
  (* Positive d = latest slower (larger mean time). *)
  let d, ci_low, ci_high =
    Effect.cohen_d_ci_moments ~confidence (moments l) (moments b)
  in
  let decision =
    if l.Ledger.completed < min_n || b.Ledger.completed < min_n then
      Not_comparable
        (Printf.sprintf "need %d completed runs per side (have %d vs %d)"
           min_n l.Ledger.completed b.Ledger.completed)
    else if ci_low > 0.0 && d >= min_effect then Regression
    else if ci_high < 0.0 && -.d >= min_effect then Improvement
    else No_regression
  in
  {
    baseline_seq;
    latest_seq;
    d;
    ci_low;
    ci_high;
    ratio =
      (if b.Ledger.mean = 0.0 then 0.0 else l.Ledger.mean /. b.Ledger.mean);
    same_fingerprint = l.Ledger.fingerprint = b.Ledger.fingerprint;
    decision;
  }

let describe c =
  let verdict =
    match c.decision with
    | Regression -> "REGRESSION"
    | Improvement -> "improvement"
    | No_regression -> "no regression"
    | Not_comparable why -> "insufficient data: " ^ why
  in
  Printf.sprintf
    "entry %d vs baseline %d%s: time ratio %.4f, effect d = %.3f, %.0f%% CI \
     [%.3f, %.3f] -> %s"
    c.latest_seq c.baseline_seq
    (if c.same_fingerprint then "" else " (different configuration)")
    c.ratio c.d
    (100.0 *. confidence)
    c.ci_low c.ci_high verdict
