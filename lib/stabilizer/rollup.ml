module H = Stz_machine.Hierarchy
module Fault = Stz_faults.Fault
module Metrics = Stz_telemetry.Metrics
module Trace = Stz_telemetry.Trace

let add_counters m prefix (c : H.counters) =
  List.iter (fun (k, v) -> Metrics.add m (prefix ^ "." ^ k) v) (H.counters_fields c)

let add_partial m (pp : Runtime.partial) =
  Metrics.add m "censored.cycles" pp.Runtime.p_cycles;
  Metrics.add m "censored.instructions" pp.Runtime.p_counters.H.instructions

let of_campaign (c : Supervisor.campaign) =
  let m = Metrics.create () in
  let s = Supervisor.summarize c in
  Metrics.set m "campaign.runs" s.Supervisor.runs;
  Metrics.set m "campaign.completed" s.Supervisor.completed;
  Metrics.set m "campaign.censored" s.Supervisor.censored;
  Metrics.set m "campaign.retried_runs" s.Supervisor.retried_runs;
  Metrics.set m "campaign.total_retries" s.Supervisor.total_retries;
  Metrics.set m "campaign.quarantined" s.Supervisor.quarantined;
  Metrics.set m "campaign.budget_exceeded" s.Supervisor.budget_exceeded;
  Metrics.set m "campaign.invalid_result" s.Supervisor.invalid;
  Metrics.set m "campaign.worker_lost" s.Supervisor.worker_lost;
  Metrics.set m "campaign.worker_hung" s.Supervisor.worker_hung;
  List.iter
    (fun (cls, n) ->
      Metrics.set m ("fault." ^ Fault.class_to_string cls) n)
    s.Supervisor.by_class;
  List.iter
    (fun (r : Supervisor.record) ->
      match r.Supervisor.outcome with
      | Supervisor.Done d ->
          add_counters m "counters" d.Supervisor.counters;
          Metrics.add m "runtime.epochs" d.Supervisor.epochs;
          Metrics.add m "runtime.relocations" d.Supervisor.relocations;
          Metrics.add m "runtime.adaptive_triggers" d.Supervisor.adaptive_triggers;
          Metrics.add m "heap.allocations" d.Supervisor.allocations;
          Metrics.add m "heap.frees" d.Supervisor.frees
      | Supervisor.Trapped (_, Some pp)
      | Supervisor.Budget_exceeded pp
      | Supervisor.Invalid_result pp -> add_partial m pp
      | Supervisor.Trapped (_, None)
      | Supervisor.Worker_lost
      | Supervisor.Worker_hung -> ())
    c.Supervisor.records;
  m

let of_sample (s : Sample.t) =
  let m = Metrics.create () in
  let runs = Array.length s.Sample.outcomes in
  let completed = Array.length s.Sample.results in
  Metrics.set m "sample.runs" runs;
  Metrics.set m "sample.completed" completed;
  Metrics.set m "sample.censored" (runs - completed);
  Array.iter
    (fun (_, outcome) ->
      let censor key =
        Metrics.add m key 1;
        Option.iter (add_partial m) (Outcome.partial outcome)
      in
      match outcome with
      | Outcome.Completed r ->
          add_counters m "counters" r.Runtime.counters;
          Metrics.add m "runtime.epochs" r.Runtime.epochs;
          Metrics.add m "runtime.relocations" r.Runtime.relocations;
          Metrics.add m "runtime.adaptive_triggers" r.Runtime.adaptive_triggers;
          Metrics.add m "heap.allocations"
            r.Runtime.heap_stats.Stz_alloc.Allocator.allocations;
          Metrics.add m "heap.frees" r.Runtime.heap_stats.Stz_alloc.Allocator.frees
      | Outcome.Trapped (cls, _) -> censor ("fault." ^ Fault.class_to_string cls)
      | Outcome.Budget_exceeded _ -> censor "fault.budget_exceeded"
      | Outcome.Invalid_result _ -> censor "fault.invalid_result"
      | Outcome.Worker_lost -> censor "fault.worker_lost"
      | Outcome.Worker_hung -> censor "fault.worker_hung")
    s.Sample.outcomes;
  m

let trace_of_outcomes outcomes =
  let tr = Trace.create () in
  Array.iteri
    (fun i (seed, outcome) ->
      Trace.add_run tr ~run:i
        (Spans.of_outcome ~name:"run"
           ~args:[ ("run", Stz_telemetry.Json.Int i); Spans.seed_arg seed ]
           outcome))
    outcomes;
  tr
