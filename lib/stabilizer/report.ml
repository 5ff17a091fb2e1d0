module Desc = Stz_stats.Desc
module Power = Stz_stats.Power

let csv_of_sample (s : Sample.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "run,seconds,cycles\n";
  Array.iteri
    (fun i t -> Buffer.add_string buf (Printf.sprintf "%d,%.9f,%d\n" i t s.Sample.cycles.(i)))
    s.Sample.times;
  Buffer.contents buf

(* Power of the collected sample at Cohen's conventional medium effect
   (d = 0.5), and the smallest effect detectable at the conventional
   0.8 power — §2.3's "how many runs do I need?" answered for the runs
   actually kept. *)
let power_part completed =
  if completed < 1 then ""
  else
    Printf.sprintf ", power(d=0.50)=%.2f, detectable d=%.2f"
      (Power.two_sample ~effect:0.5 ~n:completed ())
      (Power.detectable_effect ~n:completed ())

let campaign_line (s : Supervisor.summary) =
  let faults =
    List.filter_map
      (fun (cls, n) ->
        if n > 0 then
          Some (Printf.sprintf "%d %s" n (Stz_faults.Fault.class_to_string cls))
        else None)
      s.Supervisor.by_class
  in
  let faults_part =
    match faults with [] -> "" | l -> ", " ^ String.concat ", " l
  in
  Printf.sprintf
    "runs %d/%d, %d retried (%d retries), %d quarantined seed%s, %d \
     budget-exceeded, %d invalid%s%s%s"
    s.Supervisor.completed s.Supervisor.runs s.Supervisor.retried_runs
    s.Supervisor.total_retries s.Supervisor.quarantined
    (if s.Supervisor.quarantined = 1 then "" else "s")
    s.Supervisor.budget_exceeded s.Supervisor.invalid
    ((if s.Supervisor.worker_lost > 0 then
        Printf.sprintf ", %d worker-lost" s.Supervisor.worker_lost
      else "")
    ^
    if s.Supervisor.worker_hung > 0 then
      Printf.sprintf ", %d worker-hung" s.Supervisor.worker_hung
    else "")
    faults_part
    (power_part s.Supervisor.completed)

let run_line (r : Supervisor.record) =
  Printf.sprintf "run %3d: %s%s" r.Supervisor.run
    (match r.Supervisor.outcome with
    | Supervisor.Done d ->
        Printf.sprintf "%10d cycles (%.6f s)" d.Supervisor.cycles
          d.Supervisor.seconds
    | censored -> "censored: " ^ Supervisor.stored_tag censored)
    (if r.Supervisor.retries > 0 then
       Printf.sprintf "  (retries=%d)" r.Supervisor.retries
     else "")

let csv_of_campaign (c : Supervisor.campaign) =
  let module H = Stz_machine.Hierarchy in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "run,seed,retries,outcome,cycles,seconds,value,l1i_misses,l1d_misses,l2_misses,l3_misses,itlb_misses,dtlb_misses,branch_mispredictions,epochs,relocations\n";
  let counter_cols (k : H.counters) epochs relocations =
    Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%d,%d" k.H.l1i_misses k.H.l1d_misses
      k.H.l2_misses k.H.l3_misses k.H.itlb_misses k.H.dtlb_misses
      k.H.branch_mispredictions epochs relocations
  in
  List.iter
    (fun (r : Supervisor.record) ->
      let tag = Supervisor.stored_tag r.Supervisor.outcome in
      match r.Supervisor.outcome with
      | Supervisor.Done d ->
          Buffer.add_string buf
            (Printf.sprintf "%d,%Ld,%d,%s,%d,%.9f,%d,%s\n" r.Supervisor.run
               r.Supervisor.seed r.Supervisor.retries tag d.Supervisor.cycles
               d.Supervisor.seconds d.Supervisor.return_value
               (counter_cols d.Supervisor.counters d.Supervisor.epochs
                  d.Supervisor.relocations))
      | Supervisor.Trapped (_, Some pp)
      | Supervisor.Budget_exceeded pp
      | Supervisor.Invalid_result pp ->
          (* Censored runs keep their counters-at-censoring (cycles
             too), only seconds/value stay empty: the run never produced
             a valid time or value, but the machine state is real. *)
          Buffer.add_string buf
            (Printf.sprintf "%d,%Ld,%d,%s,%d,,,%s\n" r.Supervisor.run
               r.Supervisor.seed r.Supervisor.retries tag pp.Runtime.p_cycles
               (counter_cols pp.Runtime.p_counters pp.Runtime.p_epochs
                  pp.Runtime.p_relocations))
      | Supervisor.Trapped (_, None)
      | Supervisor.Worker_lost
      | Supervisor.Worker_hung ->
          Buffer.add_string buf
            (Printf.sprintf "%d,%Ld,%d,%s,,,,,,,,,,,,\n" r.Supervisor.run
               r.Supervisor.seed r.Supervisor.retries tag))
    c.Supervisor.records;
  (* Footer comments ('#'-prefixed, ignored by CSV readers configured
     for them): power of the collected sample, so an exported campaign
     carries its own "was N enough?" answer. Deterministic — a pure
     function of the completed-run count. *)
  let completed =
    List.length
      (List.filter
         (fun (r : Supervisor.record) ->
           match r.Supervisor.outcome with Supervisor.Done _ -> true | _ -> false)
         c.Supervisor.records)
  in
  if completed >= 1 then begin
    Buffer.add_string buf
      (Printf.sprintf "# power(d=0.50) at n=%d per group: %.6f\n" completed
         (Stz_stats.Power.two_sample ~effect:0.5 ~n:completed ()));
    Buffer.add_string buf
      (Printf.sprintf "# detectable effect at power 0.80: d=%.6f\n"
         (Stz_stats.Power.detectable_effect ~n:completed ()))
  end;
  Buffer.contents buf

let summary_line xs =
  Printf.sprintf
    "n=%d min=%.6f q1=%.6f median=%.6f q3=%.6f max=%.6f mean=%.6f sd=%.6f"
    (Array.length xs) (Desc.min xs) (Desc.quantile xs 0.25) (Desc.median xs)
    (Desc.quantile xs 0.75) (Desc.max xs) (Desc.mean xs)
    (if Array.length xs >= 2 then Desc.std_dev xs else 0.0)
