(* szc: the STABILIZER compiler-driver CLI (paper §3.1, Figure 2).
   Instead of wrapping clang/gcc it "compiles" (optimizes) generated
   benchmark programs and runs them on the simulated machine under a
   chosen randomization configuration. *)

open Cmdliner

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Shared options                                                      *)
(* ------------------------------------------------------------------ *)

let bench_arg =
  let doc = "Benchmark name (one of the 18 SPEC-like workloads; see `szc list')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)

(* [--runs] below [least] is a usage error: one line on stderr, exit 1. *)
let runs_at_least least =
  let check n =
    if n >= least then Ok n
    else Error (Printf.sprintf "--runs must be at least %d, got %d" least n)
  in
  Term.(
    term_result'
      (const check
      $ Arg.(value & opt int 30 & info [ "runs"; "n" ] ~docv:"N" ~doc:"Number of runs.")))

let runs_term = runs_at_least 1

let seed_term =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Base random seed.")

let scale_term =
  Arg.(
    value
    & opt float 1.0
    & info [ "scale" ] ~docv:"F" ~doc:"Scale workload iteration counts by $(docv).")

let jobs_term =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Execute runs on $(docv) forked workers. Results are merged in \
           run order, so outputs are bit-identical to $(b,--jobs 1).")

let level_conv =
  Arg.conv
    ( (fun s ->
        match Stz_vm.Opt.level_of_string s with
        | Some l -> Ok l
        | None -> Error (`Msg ("unknown optimization level " ^ s))),
      fun fmt l -> Format.pp_print_string fmt (Stz_vm.Opt.level_to_string l) )

let opt_term =
  Arg.(
    value & opt level_conv Stz_vm.Opt.O2
    & info [ "O"; "opt" ] ~docv:"LEVEL" ~doc:"Optimization level (O0..O3).")

let flag names doc = Arg.(value & flag & info names ~doc)

let alloc_conv =
  Arg.conv
    ( (fun s ->
        match Stz_alloc.Allocator.kind_of_string s with
        | Some k -> Ok k
        | None -> Error (`Msg ("unknown allocator " ^ s))),
      fun fmt k -> Format.pp_print_string fmt (Stz_alloc.Allocator.kind_to_string k) )

let config_term =
  let make no_code no_stack no_heap onetime baseline adaptive interval shuffle_n
      alloc block_grain fixed_tables link_random env_bytes =
    let base = if baseline then Stabilizer.Config.baseline else Stabilizer.Config.stabilizer in
    {
      Stabilizer.Config.code = base.Stabilizer.Config.code && not no_code;
      stack = base.Stabilizer.Config.stack && not no_stack;
      heap = base.Stabilizer.Config.heap && not no_heap;
      rerandomize = base.Stabilizer.Config.rerandomize && not onetime;
      interval_cycles = interval;
      adaptive;
      adaptive_threshold = base.Stabilizer.Config.adaptive_threshold;
      shuffle_n;
      base_allocator = alloc;
      granularity =
        (if block_grain then Stz_layout.Code_rand.Block_grain
         else Stz_layout.Code_rand.Function_grain);
      reloc_style =
        (if fixed_tables then Stz_layout.Code_rand.Fixed_table
         else Stz_layout.Code_rand.Adjacent_table);
      link_order =
        (if link_random then Stabilizer.Config.Random_link
         else Stabilizer.Config.Declaration);
      env_bytes;
    }
  in
  Term.(
    const make
    $ flag [ "no-code" ] "Disable code randomization."
    $ flag [ "no-stack" ] "Disable stack randomization."
    $ flag [ "no-heap" ] "Disable heap randomization."
    $ flag [ "onetime" ] "Randomize once at startup; no re-randomization."
    $ flag [ "baseline" ] "Disable all randomizations."
    $ flag [ "adaptive" ]
        "Also re-randomize when the miss rate spikes (paper §8 future work)."
    $ Arg.(
        value
        & opt int Stabilizer.Config.stabilizer.Stabilizer.Config.interval_cycles
        & info [ "interval" ] ~docv:"CYCLES" ~doc:"Re-randomization interval.")
    $ Arg.(value & opt int 256 & info [ "shuffle-n" ] ~docv:"N" ~doc:"Shuffling parameter N.")
    $ Arg.(
        value
        & opt alloc_conv Stz_alloc.Allocator.Segregated
        & info [ "alloc" ] ~docv:"KIND" ~doc:"Base allocator: segregated, tlsf or diehard.")
    $ flag [ "block-grain" ] "Randomize at basic-block granularity (paper §8)."
    $ flag [ "fixed-tables" ]
        "Use fixed-absolute-address relocation tables (PowerPC/x86-32 ABI, §3.5)."
    $ flag [ "link-random" ] "Randomize static link order (baseline layouts)."
    $ Arg.(
        value & opt int 0
        & info [ "env-bytes" ] ~docv:"BYTES" ~doc:"Environment block size (shifts the stack)."))

let lookup_bench name scale =
  match Stz_workloads.Spec.find name with
  | Some prof -> Ok (Stz_workloads.Profile.scale scale prof)
  | None -> Error (`Msg (Printf.sprintf "unknown benchmark %S; try `szc list'" name))

let faults_term =
  let fault_conv =
    Arg.conv
      ( (fun s ->
          match Stz_faults.Fault.profile_of_string s with
          | Ok p -> Ok p
          | Error e -> Error (`Msg e)),
        fun fmt p -> Format.pp_print_string fmt (Stz_faults.Fault.fingerprint p) )
  in
  Arg.(
    value
    & opt fault_conv Stz_faults.Fault.none
    & info [ "faults" ] ~docv:"PROFILE"
        ~doc:
          "Fault-injection profile: none, light, heavy, chaos, or a \
           key=prob list over fuel, depth, oom, preempt, poison, wedge \
           (e.g. $(b,fuel=0.1,oom=0.05)). A wedge spins the run forever; \
           it is only survivable with $(b,--jobs) >= 2, where the pool \
           watchdog kills the hung worker and censors the run.")

let storage_faults_term =
  let storage_conv =
    Arg.conv
      ( (fun s ->
          match Stz_faults.Storage.profile_of_string s with
          | Ok p -> Ok p
          | Error e -> Error (`Msg e)),
        fun fmt p ->
          Format.pp_print_string fmt (Stz_faults.Storage.fingerprint p) )
  in
  Arg.(
    value
    & opt storage_conv Stz_faults.Storage.none
    & info [ "storage-faults" ] ~docv:"PROFILE"
        ~doc:
          "Storage fault-injection profile applied to every artifact write \
           (checkpoints, CSV, trace, metrics): none, light, heavy, chaos, \
           or a key=prob list over torn, flip, short, rename (e.g. \
           $(b,torn=0.1,rename=0.2)). Faults are drawn deterministically \
           from $(b,--storage-seed); `szc fsck' diagnoses and repairs the \
           damage.")

let storage_seed_term =
  Arg.(
    value & opt int 1
    & info [ "storage-seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the storage-fault stream (independent of $(b,--seed), \
           so the same campaign can be replayed under different storage \
           weather).")

let min_n_term =
  Arg.(
    value & opt int 3
    & info [ "min-n" ] ~docv:"N"
        ~doc:
          "Minimum uncensored runs per side below which no verdict is \
           emitted (exit code 2).")

let retries_term =
  Arg.(
    value
    & opt int Stabilizer.Supervisor.default_policy.Stabilizer.Supervisor.max_retries
    & info [ "retries" ] ~docv:"K"
        ~doc:"Retry attempts per failed run, each with a fresh derived seed.")

let policy_of retries =
  { Stabilizer.Supervisor.default_policy with Stabilizer.Supervisor.max_retries = retries }

(* ------------------------------------------------------------------ *)
(* Telemetry options (shared by run / compare / campaign)              *)
(* ------------------------------------------------------------------ *)

let trace_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON trace of the runs, clocked in \
           simulated cycles. For a fixed seed the bytes are identical \
           whatever $(b,--jobs) is; load it at chrome://tracing or Perfetto.")

let metrics_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a flat `key value' metrics snapshot (hardware-counter \
           totals, censoring tallies, epochs/relocations, retries).")

(* Every exported artifact goes through the durable store path: temp
   file + fsync + rename, plus a CRC32 sidecar (path.sum) that `szc
   fsck' and `szc check-trace' verify. The payload itself stays plain
   (Chrome can still load a trace, a spreadsheet the CSV). *)
let write_file path contents =
  Stz_store.Artifact.write_with_sum path contents;
  Printf.printf "# wrote %s\n" path

let top_table ~top ~total_cycles entries =
  let module H = Stz_machine.Hierarchy in
  Printf.printf "%-16s %9s %12s %7s %8s %8s %7s %7s %6s %6s %8s\n" "function"
    "calls" "excl.cycles" "share" "l1i" "l1d" "l2" "l3" "itlb" "dtlb" "br.miss";
  List.iteri
    (fun i (e : Stabilizer.Profiler.entry) ->
      if i < top then begin
        let c = e.Stabilizer.Profiler.counters in
        Printf.printf "%-16s %9d %12d %6.2f%% %8d %8d %7d %7d %6d %6d %8d\n"
          e.Stabilizer.Profiler.name e.Stabilizer.Profiler.calls
          e.Stabilizer.Profiler.exclusive_cycles
          (100.0
          *. float_of_int e.Stabilizer.Profiler.exclusive_cycles
          /. float_of_int (max 1 total_cycles))
          c.H.l1i_misses c.H.l1d_misses c.H.l2_misses c.H.l3_misses
          c.H.itlb_misses c.H.dtlb_misses c.H.branch_mispredictions
      end)
    entries

let merged_profile (sample : Stabilizer.Sample.t) =
  Stabilizer.Profiler.merge_entries
    (Array.to_list
       (Array.map
          (fun (r : Stabilizer.Runtime.result) ->
            Option.value ~default:[] r.Stabilizer.Runtime.profile)
          sample.Stabilizer.Sample.results))

(* ------------------------------------------------------------------ *)
(* szc list                                                            *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Printf.printf "%-12s %9s %5s %6s %8s %8s\n" "benchmark" "functions" "hot"
      "blocks" "churn" "code(B)";
    List.iter
      (fun prof ->
        let p = Stz_workloads.Generate.program prof in
        Printf.printf "%-12s %9d %5d %6d %8.2f %8d\n" prof.Stz_workloads.Profile.name
          prof.Stz_workloads.Profile.functions prof.Stz_workloads.Profile.hot_functions
          (Array.fold_left
             (fun acc f -> acc + Array.length f.Stz_vm.Ir.blocks)
             0 p.Stz_vm.Ir.funcs)
          prof.Stz_workloads.Profile.heap_churn
          (Stz_vm.Ir.program_size_bytes p))
      Stz_workloads.Spec.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark suite.") Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* szc run                                                             *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let run bench runs seed scale opt csv config jobs trace metrics =
    let* prof = lookup_bench bench scale in
    let p = Stz_workloads.Generate.program prof in
    let sample =
      Stabilizer.Driver.build_and_run ~jobs ~config ~opt
        ~events:(trace <> None) ~base_seed:(Int64.of_int seed) ~runs
        ~args:Stz_workloads.Generate.default_args p
    in
    (match csv with
    | Some path -> write_file path (Stabilizer.Report.csv_of_sample sample)
    | None -> ());
    (match trace with
    | Some path ->
        let tr =
          Stabilizer.Rollup.trace_of_outcomes sample.Stabilizer.Sample.outcomes
        in
        write_file path
          (Stz_telemetry.Export.chrome_string (Stz_telemetry.Trace.events tr))
    | None -> ());
    (match metrics with
    | Some path ->
        write_file path
          (Stz_telemetry.Metrics.snapshot (Stabilizer.Rollup.of_sample sample))
    | None -> ());
    let times = sample.Stabilizer.Sample.times in
    Printf.printf "# %s under %s, %s, %d runs\n" bench
      (Stabilizer.Config.describe config)
      (Stz_vm.Opt.level_to_string opt)
      runs;
    Array.iteri
      (fun i r ->
        Printf.printf "run %2d: %10d cycles (%.6f s)  epochs=%d relocations=%d%s\n" i
          r.Stabilizer.Runtime.cycles r.Stabilizer.Runtime.virtual_seconds
          r.Stabilizer.Runtime.epochs r.Stabilizer.Runtime.relocations
          (if r.Stabilizer.Runtime.adaptive_triggers > 0 then
             Printf.sprintf " adaptive=%d" r.Stabilizer.Runtime.adaptive_triggers
           else ""))
      sample.Stabilizer.Sample.results;
    let completed = Array.length times in
    if completed = 0 then begin
      Printf.eprintf "szc: run aborted: every run was censored\n";
      Ok 3
    end
    else begin
      let mean = Stz_stats.Desc.mean times in
      if completed < 2 then Printf.printf "mean %.6f s\n" mean
      else
        Printf.printf "mean %.6f s   sd %.6f   cv %.4f\n" mean
          (Stz_stats.Desc.std_dev times)
          (Stz_stats.Desc.std_dev times /. mean);
      if completed >= 3 && Stz_stats.Desc.min times < Stz_stats.Desc.max times
      then begin
        let sw = Stz_stats.Shapiro.test times in
        Printf.printf "Shapiro-Wilk: W = %.4f, p = %.4f -> %s\n" sw.Stz_stats.Shapiro.w
          sw.Stz_stats.Shapiro.p_value
          (if sw.Stz_stats.Shapiro.p_value >= 0.05 then "plausibly normal"
           else "not normal")
      end;
      Ok 0
    end
  in
  let term =
    Term.(
      term_result
        (const run $ bench_arg $ runs_term $ seed_term $ scale_term $ opt_term
        $ Arg.(
            value
            & opt (some string) None
            & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the samples as CSV.")
        $ config_term $ jobs_term $ trace_term $ metrics_term))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a benchmark under a randomization configuration.")
    term

(* ------------------------------------------------------------------ *)
(* szc compare                                                         *)
(* ------------------------------------------------------------------ *)

let compare_cmd =
  let run bench runs seed scale config opt_a opt_b profile min_n retries jobs
      trace metrics =
    let* prof = lookup_bench bench scale in
    let p = Stz_workloads.Generate.program prof in
    let arm () = Option.map (fun _ -> Stz_telemetry.Trace.create ()) trace in
    let tel_a = arm () and tel_b = arm () in
    let a, b, verdict =
      Stabilizer.Driver.compare_campaigns ~policy:(policy_of retries) ~profile
        ~jobs ?telemetry_a:tel_a ?telemetry_b:tel_b ~min_n ~config
        ~base_seed:(Int64.of_int seed) ~runs
        ~args:Stz_workloads.Generate.default_args opt_a opt_b p
    in
    (match (trace, tel_a, tel_b) with
    | Some path, Some ta, Some tb ->
        write_file path
          (Stz_telemetry.Export.chrome_groups_string
             [
               ( "arm-a " ^ Stz_vm.Opt.level_to_string opt_a,
                 Stz_telemetry.Trace.events ta );
               ( "arm-b " ^ Stz_vm.Opt.level_to_string opt_b,
                 Stz_telemetry.Trace.events tb );
             ])
    | _ -> ());
    (match metrics with
    | Some path ->
        let m = Stz_telemetry.Metrics.create () in
        let graft prefix c =
          List.iter
            (fun (k, v) -> Stz_telemetry.Metrics.set m (prefix ^ "." ^ k) v)
            (Stz_telemetry.Metrics.to_assoc (Stabilizer.Rollup.of_campaign c))
        in
        graft "arm_a" a;
        graft "arm_b" b;
        write_file path (Stz_telemetry.Metrics.snapshot m)
    | None -> ());
    Printf.printf "# %s: %s vs %s under %s (%d runs each)\n" bench
      (Stz_vm.Opt.level_to_string opt_a)
      (Stz_vm.Opt.level_to_string opt_b)
      (Stabilizer.Config.describe config)
      runs;
    Printf.printf "%s campaign: %s\n"
      (Stz_vm.Opt.level_to_string opt_a)
      (Stabilizer.Report.campaign_line (Stabilizer.Supervisor.summarize a));
    Printf.printf "%s campaign: %s\n"
      (Stz_vm.Opt.level_to_string opt_b)
      (Stabilizer.Report.campaign_line (Stabilizer.Supervisor.summarize b));
    (match verdict with
    | Stabilizer.Experiment.Verdict c ->
        Printf.printf "mean %s = %.6f s, mean %s = %.6f s\n"
          (Stz_vm.Opt.level_to_string opt_a)
          c.Stabilizer.Experiment.mean_a
          (Stz_vm.Opt.level_to_string opt_b)
          c.Stabilizer.Experiment.mean_b;
        Printf.printf "speedup of %s over %s: %.4f\n"
          (Stz_vm.Opt.level_to_string opt_b)
          (Stz_vm.Opt.level_to_string opt_a)
          c.Stabilizer.Experiment.speedup
    | Stabilizer.Experiment.Insufficient _ | Stabilizer.Experiment.Constant _
      -> ());
    Printf.printf "%s\n" (Stabilizer.Experiment.describe_gated verdict);
    match verdict with
    | Stabilizer.Experiment.Verdict _ -> Ok 0
    | Stabilizer.Experiment.Insufficient _ | Stabilizer.Experiment.Constant _
      -> Ok 2
  in
  let term =
    Term.(
      term_result
        (const run $ bench_arg $ runs_term $ seed_term $ scale_term $ config_term
        $ Arg.(
            value & opt level_conv Stz_vm.Opt.O1
            & info [ "opt-a" ] ~docv:"LEVEL" ~doc:"First optimization level.")
        $ Arg.(
            value & opt level_conv Stz_vm.Opt.O2
            & info [ "opt-b" ] ~docv:"LEVEL" ~doc:"Second optimization level.")
        $ faults_term $ min_n_term $ retries_term $ jobs_term $ trace_term
        $ metrics_term))
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Statistically compare two optimization levels of a benchmark \
          (supervised campaigns; exit 2 when censoring leaves fewer than \
          --min-n usable runs, or when every run of an arm takes the same \
          time, as under --baseline).")
    term

(* ------------------------------------------------------------------ *)
(* szc nist                                                            *)
(* ------------------------------------------------------------------ *)

let nist_cmd =
  let run seed =
    Printf.printf "# NIST SP 800-22 over heap-address index bits (paper #3.2)\n";
    List.iter
      (fun r -> Format.printf "%a@." Stabilizer.Heap_randomness.pp_report r)
      (Stabilizer.Heap_randomness.table ~seed:(Int64.of_int seed) ());
    0
  in
  Cmd.v
    (Cmd.info "nist" ~doc:"Randomness of allocator address streams (paper #3.2).")
    Term.(const run $ seed_term)

(* ------------------------------------------------------------------ *)
(* szc disasm                                                          *)
(* ------------------------------------------------------------------ *)

let disasm_cmd =
  let run bench scale opt funcs emit =
    let* prof = lookup_bench bench scale in
    let p = Stabilizer.Driver.compile ~opt (Stz_workloads.Generate.program prof) in
    (match emit with
    | Some path ->
        let oc = open_out path in
        output_string oc (Stz_vm.Text.to_string p);
        close_out oc;
        Printf.printf "# wrote %s\n" path
    | None -> ());
    Printf.printf "# %s at %s: %d functions, %d globals, %d bytes\n" bench
      (Stz_vm.Opt.level_to_string opt)
      (Array.length p.Stz_vm.Ir.funcs)
      (Array.length p.Stz_vm.Ir.globals)
      (Stz_vm.Ir.program_size_bytes p);
    Array.iteri
      (fun i f -> if i < funcs then Format.printf "%a@." Stz_vm.Ir.pp_func f)
      p.Stz_vm.Ir.funcs;
    Ok 0
  in
  let term =
    Term.(
      term_result
        (const run $ bench_arg $ scale_term $ opt_term
        $ Arg.(
            value & opt int 2
            & info [ "funcs" ] ~docv:"N" ~doc:"How many functions to print.")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "emit" ] ~docv:"FILE"
                ~doc:"Write the whole program in the textual IR format.")))
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Print a benchmark's IR after optimization.") term

(* ------------------------------------------------------------------ *)
(* szc power                                                           *)
(* ------------------------------------------------------------------ *)

let power_cmd =
  let run bench runs seed scale pct config =
    let* prof = lookup_bench bench scale in
    let p = Stz_workloads.Generate.program prof in
    (* Pilot sample to estimate the timing variability under this
       configuration. *)
    let pilot =
      Stabilizer.Sample.times ~config ~base_seed:(Int64.of_int seed) ~runs
        ~args:Stz_workloads.Generate.default_args p
    in
    if Array.length pilot < 2 then begin
      Printf.eprintf
        "szc: power aborted: %d of %d pilot runs completed, need 2\n"
        (Array.length pilot) runs;
      Ok 3
    end
    else begin
      let cv = Stz_stats.Desc.std_dev pilot /. Stz_stats.Desc.mean pilot in
      Printf.printf "# %s under %s: pilot of %d runs, cv = %.4f\n" bench
        (Stabilizer.Config.describe config)
        runs cv;
      let effect =
        Stz_stats.Power.effect_of_speedup ~speedup:(1.0 +. (pct /. 100.0)) ~cv
      in
      Printf.printf
        "a %.2f%% change is a standardized effect of d = %.2f at this variability\n"
        pct effect;
      Printf.printf "runs per version for 80%% power at alpha = 0.05: %d\n"
        (Stz_stats.Power.required_runs ~effect ());
      Printf.printf "runs per version for 95%% power:                 %d\n"
        (Stz_stats.Power.required_runs ~effect ~power:0.95 ());
      let detectable =
        Stz_stats.Power.detectable_effect ~n:runs () *. cv *. 100.0
      in
      Printf.printf
        "with the pilot's %d runs you can detect changes of about %.2f%%\n" runs
        detectable;
      Ok 0
    end
  in
  let term =
    Term.(
      term_result
        (const run $ bench_arg $ runs_at_least 2 $ seed_term $ scale_term
        $ Arg.(
            value & opt float 1.0
            & info [ "change" ] ~docv:"PCT"
                ~doc:"Performance change of interest, in percent.")
        $ config_term))
  in
  Cmd.v
    (Cmd.info "power"
       ~doc:
         "How many runs are needed to detect a given performance change \
          (paper §2.3)?")
    term

(* ------------------------------------------------------------------ *)
(* szc exec                                                            *)
(* ------------------------------------------------------------------ *)

let exec_cmd =
  let run path arg seed config =
    match
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Stz_vm.Text.of_string text
    with
    | exception Sys_error e -> Error (`Msg e)
    | exception Stz_vm.Text.Parse_error { line; message } ->
        Error (`Msg (Printf.sprintf "%s:%d: %s" path line message))
    | p -> (
        (* Reproducers that exhaust their fuel or call depth are normal
           input here: a censored run is reported, not raised. *)
        match
          Stabilizer.Outcome.run ~config ~seed:(Int64.of_int seed) p
            ~args:[ arg ]
        with
        | Stabilizer.Outcome.Completed r ->
            Printf.printf "result = %d\n" r.Stabilizer.Runtime.return_value;
            Printf.printf "cycles = %d (%.6f s) under %s\n"
              r.Stabilizer.Runtime.cycles r.Stabilizer.Runtime.virtual_seconds
              (Stabilizer.Config.describe config);
            Ok 0
        | censored ->
            Printf.eprintf "szc exec: run censored: %s\n"
              (Stabilizer.Outcome.to_string censored);
            Ok 3)
  in
  let term =
    Term.(
      term_result
        (const run
        $ Arg.(
            required
            & pos 0 (some file) None
            & info [] ~docv:"FILE" ~doc:"Program in the textual IR format.")
        $ Arg.(
            value & opt int 1 & info [ "arg" ] ~docv:"N" ~doc:"Argument passed to main.")
        $ seed_term $ config_term))
  in
  Cmd.v
    (Cmd.info "exec"
       ~doc:
         "Run a textual-IR program under a configuration. Exit 0 when the \
          run completes, 3 when it traps (its outcome is named on stderr).")
    term

(* ------------------------------------------------------------------ *)
(* szc top                                                             *)
(* ------------------------------------------------------------------ *)

let top_cmd =
  let run bench runs seed scale opt top config jobs =
    let* prof = lookup_bench bench scale in
    let p = Stz_workloads.Generate.program prof in
    let sample =
      Stabilizer.Driver.build_and_run ~jobs ~config ~opt ~profiled:true
        ~base_seed:(Int64.of_int seed) ~runs
        ~args:Stz_workloads.Generate.default_args p
    in
    let completed = Array.length sample.Stabilizer.Sample.results in
    if completed = 0 then Error (`Msg "every run was censored; nothing to rank")
    else begin
      let total = Array.fold_left ( + ) 0 sample.Stabilizer.Sample.cycles in
      Printf.printf
        "# %s under %s, %s: hottest functions over %d completed runs\n" bench
        (Stabilizer.Config.describe config)
        (Stz_vm.Opt.level_to_string opt)
        completed;
      Printf.printf
        "# exclusive per-function counters, summed across runs (layouts)\n";
      top_table ~top ~total_cycles:total (merged_profile sample);
      Ok 0
    end
  in
  let term =
    Term.(
      term_result
        (const run $ bench_arg $ runs_term $ seed_term $ scale_term $ opt_term
        $ Arg.(
            value & opt int 12
            & info [ "top" ] ~docv:"N" ~doc:"How many functions to show.")
        $ config_term $ jobs_term))
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Rank functions by exclusive cycles across a whole sample of \
          layouts, with cache/TLB/branch miss attribution — the paper §8 \
          layout-problem detector. Per-run profiles are merged, so a \
          function that is only hot under unlucky layouts still surfaces; \
          --runs 1 profiles one layout.")
    term

(* ------------------------------------------------------------------ *)
(* szc check-trace                                                     *)
(* ------------------------------------------------------------------ *)

let check_trace_cmd =
  let run path =
    match
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      text
    with
    | exception Sys_error e -> Error (`Msg e)
    | text -> (
        match Stz_store.Artifact.verify_sum path with
        | Error e ->
            Error (`Msg (Printf.sprintf "%s: checksum mismatch: %s" path e))
        | Ok has_sum -> (
            match Stz_telemetry.Export.validate_chrome_string text with
            | Ok (spans, points) ->
                Printf.printf "%s: ok (%d spans, %d point events%s)\n" path
                  spans points
                  (if has_sum then ", checksum verified" else "");
                Ok 0
            | Error e ->
                Error (`Msg (Printf.sprintf "%s: invalid trace: %s" path e))))
  in
  let term =
    Term.(
      term_result
        (const run
        $ Arg.(
            required
            & pos 0 (some file) None
            & info [] ~docv:"FILE" ~doc:"Chrome trace_event JSON file.")))
  in
  Cmd.v
    (Cmd.info "check-trace"
       ~doc:
         "Validate a --trace output file: JSON parse, traceEvents \
          structure, non-negative timestamps, at least one real event; \
          when a .sum sidecar exists the file's CRC-32 is verified \
          first. Exit 0 when valid, 1 otherwise (used by CI).")
    term

(* ------------------------------------------------------------------ *)
(* szc fsck                                                            *)
(* ------------------------------------------------------------------ *)

(* Every record-container kind fsck knows: kind, what to call it, the
   item noun (singular, plural), and its check. A container of unknown
   kind goes to the first entry, whose check reports it
   unrecoverable. *)
let fsck_kinds =
  let open Stz_store in
  let module Ck = Stabilizer.Supervisor in
  let module Op = Stz_telemetry.Oplog in
  [
    (Ck.Checkpoint.kind, "checkpoint container", ("record", "records"), Ck.check);
    (Ledger.kind, "ledger", ("entry", "entries"), Ledger.check);
    (Op.kind, "oplog", ("record", "records"), Op.check);
    (Fuzzlog.kind, "fuzz ledger", ("case", "cases"), Fuzzlog.check);
    (Sweeplog.kind, "sweep ledger", ("case", "cases"), Sweeplog.check);
  ]

let fsck_cmd =
  let fsck_one ~repair path =
    if not (Sys.file_exists path) then (
      Printf.printf "%s: missing (skipped)\n" path;
      0)
    else
      let contents =
        match Stz_store.Artifact.read_file path with
        | Ok text -> text
        | Error e -> raise (Sys_error e)
      in
      if Stz_store.Artifact.is_container contents then (
        (* Containers carry their kind in the header; dispatch on it so
           a ledger is checked as a ledger, not misdiagnosed as a broken
           checkpoint. A damaged file still yields its kind via salvage. *)
        let kind = Stz_store.Artifact.((salvage_string contents).kind) in
        let _, what, (one, many), check =
          Option.value ~default:(List.hd fsck_kinds)
            (List.find_opt (fun (k, _, _, _) -> Some k = kind) fsck_kinds)
        in
        let count n = Printf.sprintf "%d %s" n (if n = 1 then one else many) in
        match check ~repair path with
        | Stz_store.Log.Intact n ->
            Printf.printf "%s: ok (%s, %s)\n" path what (count n);
            0
        | Salvageable (note, n) ->
            Printf.printf "%s: salvageable — %s\n" path note;
            if repair then
              Printf.printf
                "%s: repaired (rewritten from the salvaged prefix, %s)\n" path
                (count n);
            2
        | Unrecoverable e ->
            Printf.printf "%s: unrecoverable — %s\n" path e;
            if repair then
              Printf.printf "%s: moved aside to %s.corrupt\n" path path;
            3)
      else
        match Stz_store.Artifact.verify_sum path with
        | Error e ->
            Printf.printf "%s: checksum mismatch — %s\n" path e;
            2
        | Ok true ->
            Printf.printf "%s: ok (checksum verified)\n" path;
            0
        | Ok false ->
            Printf.printf "%s: unknown artifact (no .sum sidecar)\n" path;
            1
  in
  let run repair paths =
    match
      List.fold_left (fun acc p -> Stdlib.max acc (fsck_one ~repair p)) 0 paths
    with
    | code -> Ok code
    | exception Sys_error e -> Error (`Msg e)
  in
  let term =
    Term.(
      term_result
        (const run
        $ Arg.(value & flag & info [ "repair" ]
              ~doc:
                "Rewrite a salvageable record container from its \
                 longest valid record prefix; move an unrecoverable file \
                 aside to FILE.corrupt.")
        $ Arg.(
            non_empty
            & pos_all string []
            & info [] ~docv:"FILE"
                ~doc:
                  "Artifacts to check (record containers, CSVs, \
                   traces)." )))
  in
  let kinds =
    String.concat ", " (List.map (fun (_, what, _, _) -> what ^ "s") fsck_kinds)
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         (Printf.sprintf
            "Verify artifact integrity: record containers (%s, told apart \
             by their header kind) are fully parsed (header, per-record \
             CRC-32, record structure); other artifacts are verified \
             against their .sum sidecar. Exit 0 all ok, 1 unknown artifact \
             or IO error, 2 salvageable corruption (or checksum mismatch), \
             3 unrecoverable. The overall exit code is the worst per-file \
             code."
            kinds))
    term

(* ------------------------------------------------------------------ *)
(* szc campaign                                                        *)
(* ------------------------------------------------------------------ *)

let campaign_cmd =
  let run bench runs seed scale opt csv config profile min_n retries checkpoint
      resume quiet jobs trace metrics storage_faults storage_seed
      monitor_live ledger =
    let* prof = lookup_bench bench scale in
    let p = Stz_workloads.Generate.program prof in
    let telemetry = Option.map (fun _ -> Stz_telemetry.Trace.create ()) trace in
    (* The monitor is armed by --monitor (live status) and by --ledger
       (its final verdict goes into the history entry). *)
    let monitor =
      if monitor_live || ledger <> None then
        Some (Stz_monitor.Monitor.create ())
      else None
    in
    if Stz_faults.Storage.active storage_faults then
      Stz_faults.Storage.arm ~seed:(Int64.of_int storage_seed) storage_faults;
    Fun.protect ~finally:Stz_faults.Storage.disarm @@ fun () ->
    match
      Stabilizer.Driver.campaign ~policy:(policy_of retries) ~profile ~jobs
        ?checkpoint ~resume ?telemetry ?monitor
        ~on_record:(fun r ->
          if not quiet then
            Printf.printf "%s\n%!" (Stabilizer.Report.run_line r);
          (* Records are delivered in run order whatever --jobs is, and
             the monitor was updated just before this callback, so the
             status stream is byte-identical across worker counts. *)
          match (monitor_live, monitor) with
          | true, Some m ->
              Printf.printf "%s\n%!" (Stz_monitor.Monitor.status_line m)
          | _ -> ())
        ~config ~opt ~base_seed:(Int64.of_int seed) ~runs
        ~args:Stz_workloads.Generate.default_args p
    with
    | exception Stabilizer.Supervisor.Mismatch msg ->
        Printf.eprintf "szc: campaign aborted: %s\n" msg;
        Ok 3
    | campaign ->
        let summary = Stabilizer.Supervisor.summarize campaign in
        (match (trace, telemetry) with
        | Some path, Some tr ->
            write_file path
              (Stz_telemetry.Export.chrome_string
                 (Stz_telemetry.Trace.events tr))
        | _ -> ());
        (match metrics with
        | Some path ->
            write_file path
              (Stz_telemetry.Metrics.snapshot
                 (Stabilizer.Rollup.of_campaign campaign))
        | None -> ());
        (match csv with
        | Some path ->
            write_file path (Stabilizer.Report.csv_of_campaign campaign)
        | None -> ());
        Printf.printf "# %s under %s, %s, %d runs, faults %s\n" bench
          (Stabilizer.Config.describe config)
          (Stz_vm.Opt.level_to_string opt)
          runs
          (Stz_faults.Fault.fingerprint profile);
        Printf.printf "%s\n" (Stabilizer.Report.campaign_line summary);
        let times = Stabilizer.Supervisor.times campaign in
        if Array.length times > 0 then
          Printf.printf "%s\n" (Stabilizer.Report.summary_line times);
        (match monitor with
        | Some m when monitor_live ->
            Printf.printf "monitor verdict: %s\n"
              (Stz_monitor.Monitor.verdict_to_string
                 (Stz_monitor.Monitor.advise m))
        | _ -> ());
        let ledger_failed =
          match ledger with
          | None -> None
          | Some path -> (
              match
                Stabilizer.History.append ?monitor ~bench ~opt ~scale path
                  campaign
              with
              | Ok seq ->
                  Printf.printf "ledger: entry %d appended to %s\n" seq path;
                  None
              | Error e -> Some (Printf.sprintf "ledger %s: %s" path e))
        in
        match ledger_failed with
        | Some msg ->
            Printf.eprintf "szc: campaign aborted: %s\n" msg;
            Ok 3
        | None ->
            let code = Stabilizer.Supervisor.exit_code ~min_n summary in
            (match code with
            | 3 ->
                Printf.eprintf "szc: campaign aborted: every run was censored\n"
            | 2 ->
                Printf.printf
                  "no verdict possible: %d uncensored runs, need %d (exit 2)\n"
                  summary.Stabilizer.Supervisor.completed min_n
            | _ -> ());
            Ok code
  in
  let term =
    Term.(
      term_result
        (const run $ bench_arg $ runs_term $ seed_term $ scale_term $ opt_term
        $ Arg.(
            value
            & opt (some string) None
            & info [ "csv" ] ~docv:"FILE"
                ~doc:"Write the long-format outcome CSV (one row per run).")
        $ config_term $ faults_term $ min_n_term $ retries_term
        $ Arg.(
            value
            & opt (some string) None
            & info [ "checkpoint" ] ~docv:"FILE"
                ~doc:
                  "Checkpoint file (checksummed artifact container), \
                   written durably as runs finish.")
        $ flag [ "resume" ]
            "Resume the campaign from --checkpoint if the file exists. A \
             corrupted checkpoint resumes from its longest valid prefix."
        $ flag [ "quiet" ] "Suppress per-run progress lines."
        $ jobs_term $ trace_term $ metrics_term
        $ storage_faults_term $ storage_seed_term
        $ flag [ "monitor" ]
            "Stream live statistics after every finished run (running \
             moments, quartiles, normality, CI half-width, power, drift \
             alarms) and print the final sequential-stopping verdict. \
             Deterministic: byte-identical for any --jobs."
        $ Arg.(
            value
            & opt (some string) None
            & info [ "ledger" ] ~docv:"FILE"
                ~doc:
                  "Append this campaign's summary (moments, effect \
                   sizes, monitor verdict) to the history ledger at \
                   $(docv), creating it if missing — the baseline store \
                   for szc regress.")))
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a supervised, resumable experiment campaign: per-run fault \
          classification, bounded retry with fresh seeds, seed quarantine, \
          calibrated budgets, durable checksummed checkpoint/resume, live \
          statistical monitoring (--monitor), history recording \
          (--ledger), and a hung-worker watchdog when --jobs >= 2. Exit \
          codes: 0 enough uncensored runs, 2 fewer than --min-n, 3 \
          aborted.")
    term

(* ------------------------------------------------------------------ *)
(* szc history                                                         *)
(* ------------------------------------------------------------------ *)

let entry_detail (e : Stz_store.Ledger.entry) =
  Printf.sprintf
    "label              %s\n\
     fingerprint        %s\n\
     base_seed          %Ld\n\
     runs               %d\n\
     completed          %d\n\
     censored           %d\n\
     mean               %.9f s\n\
     sd                 %.9f s\n\
     min                %.9f s\n\
     max                %.9f s\n\
     skewness           %.6f\n\
     kurtosis           %.6f\n\
     detectable effect  d=%.4f (0.8 power)\n\
     verdict            %s\n"
    e.Stz_store.Ledger.label e.Stz_store.Ledger.fingerprint
    e.Stz_store.Ledger.base_seed e.Stz_store.Ledger.runs
    e.Stz_store.Ledger.completed e.Stz_store.Ledger.censored
    e.Stz_store.Ledger.mean e.Stz_store.Ledger.sd e.Stz_store.Ledger.min
    e.Stz_store.Ledger.max e.Stz_store.Ledger.skewness
    e.Stz_store.Ledger.kurtosis e.Stz_store.Ledger.detectable_effect
    e.Stz_store.Ledger.verdict

let history_cmd =
  let run path show =
    match Stz_store.Ledger.load path with
    | Error e -> Error (`Msg (Printf.sprintf "%s: %s" path e))
    | Ok ((), entries) -> (
        match show with
        | Some n when n < 0 ->
            Error (`Msg (Printf.sprintf "--show must be at least 0, got %d" n))
        | Some n -> (
            match List.nth_opt entries n with
            | None ->
                Error
                  (`Msg
                    (Printf.sprintf "%s: no entry %d (ledger has %d)" path n
                       (List.length entries)))
            | Some e ->
                Printf.printf "# entry %d of %s\n%s" n path (entry_detail e);
                Ok 0)
        | None ->
            Printf.printf "# %s: %d entr%s\n" path (List.length entries)
              (if List.length entries = 1 then "y" else "ies");
            if entries <> [] then
              Printf.printf "# %4s  %-16s %5s %5s %5s  %-14s %-17s %s\n" "seq"
                "label" "runs" "done" "cens" "mean" "verdict" "fingerprint";
            List.iteri
              (fun i (e : Stz_store.Ledger.entry) ->
                Printf.printf "%6d  %-16s %5d %5d %5d  %.6e  %-17s %s\n" i
                  e.Stz_store.Ledger.label e.Stz_store.Ledger.runs
                  e.Stz_store.Ledger.completed e.Stz_store.Ledger.censored
                  e.Stz_store.Ledger.mean e.Stz_store.Ledger.verdict
                  e.Stz_store.Ledger.fingerprint)
              entries;
            Ok 0)
  in
  let term =
    Term.(
      term_result
        (const run
        $ Arg.(
            required
            & pos 0 (some file) None
            & info [] ~docv:"LEDGER" ~doc:"History ledger written by szc \
                                           campaign --ledger.")
        $ Arg.(
            value
            & opt (some int) None
            & info [ "show" ] ~docv:"SEQ"
                ~doc:"Show every recorded field of one entry instead of \
                      the listing.")))
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:
         "List the campaigns recorded in a history ledger (one line per \
          entry, oldest first), or show one entry in full with --show. \
          The ledger is strict-loaded: a corrupt file is refused — run \
          szc fsck --repair first.")
    term

(* ------------------------------------------------------------------ *)
(* szc regress                                                         *)
(* ------------------------------------------------------------------ *)

let regress_cmd =
  let run path label baseline =
    match Stz_store.Ledger.load path with
    | Error e -> Error (`Msg (Printf.sprintf "%s: %s" path e))
    | Ok ((), entries) -> (
        let indexed = List.mapi (fun i e -> (i, e)) entries in
        let wanted (e : Stz_store.Ledger.entry) =
          match label with None -> true | Some l -> e.Stz_store.Ledger.label = l
        in
        match List.rev (List.filter (fun (_, e) -> wanted e) indexed) with
        | [] ->
            Printf.printf "no matching entries in %s (exit 3)\n" path;
            Ok 3
        | ((latest_seq, latest) as latest_pair) :: earlier_rev -> (
            let base =
              match baseline with
              | Some seq ->
                  List.find_opt (fun (i, _) -> i = seq && i <> latest_seq)
                    indexed
              | None ->
                  (* Default baseline: the oldest earlier entry measuring
                     the same benchmark — the first recorded state of the
                     world, so a slow drift across many campaigns is
                     still compared against the original. *)
                  List.find_opt
                    (fun (_, (e : Stz_store.Ledger.entry)) ->
                      e.Stz_store.Ledger.label = latest.Stz_store.Ledger.label)
                    (List.rev earlier_rev)
            in
            match base with
            | None ->
                Printf.printf
                  "no baseline to compare entry %d against (exit 3)\n"
                  latest_seq;
                Ok 3
            | Some base_pair -> (
                let c =
                  Stabilizer.History.compare_entries ~baseline:base_pair
                    ~latest:latest_pair
                in
                Printf.printf "%s\n" (Stabilizer.History.describe c);
                match c.Stabilizer.History.decision with
                | Stabilizer.History.Regression -> Ok 2
                | Stabilizer.History.No_regression
                | Stabilizer.History.Improvement ->
                    Ok 0
                | Stabilizer.History.Not_comparable _ -> Ok 3)))
  in
  let term =
    Term.(
      term_result
        (const run
        $ Arg.(
            required
            & pos 0 (some file) None
            & info [] ~docv:"LEDGER" ~doc:"History ledger written by szc \
                                           campaign --ledger.")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "label" ] ~docv:"BENCH"
                ~doc:"Compare the latest entry with this label (default: \
                      the latest entry in the ledger).")
        $ Arg.(
            value
            & opt (some int) None
            & info [ "baseline" ] ~docv:"SEQ"
                ~doc:"Compare against this ledger entry (default: the \
                      oldest earlier entry with the same label).")))
  in
  Cmd.v
    (Cmd.info "regress"
       ~doc:
         "Decide, from the history ledger alone, whether the latest \
          recorded campaign regressed against its baseline: Cohen's d \
          with a 95% confidence interval recomputed from the stored \
          moments (bit-exact — floats are stored as hex). Exit 0 no \
          confirmed regression (or a confirmed improvement), 2 regression \
          (CI excludes zero and d >= 0.2), 3 insufficient data (fewer \
          than 3 completed runs on either side, or no baseline).")
    term

(* ------------------------------------------------------------------ *)
(* szc selftest                                                        *)
(* ------------------------------------------------------------------ *)

let selftest_cmd =
  let module S = Stabilizer in
  let module F = Stz_faults.Fault in
  let run budget seed jobs =
    let t0 = Sys.time () in
    let within_budget () = Sys.time () -. t0 < float_of_int budget in
    let failures = ref [] and checks = ref 0 and skipped = ref 0 in
    let check name ok =
      incr checks;
      if not ok then failures := name :: !failures
    in
    (* Each step runs only while the budget lasts. A skipped step is
       counted and fails the selftest: "ok" means every step ran. *)
    let step f = if within_budget () then f () else incr skipped in
    let tiny =
      {
        Stz_workloads.Profile.default with
        Stz_workloads.Profile.name = "selftest";
        functions = 8;
        hot_functions = 4;
        iterations = 12;
        inner_trips = 6;
        seed = 0x5E1F_7E57L;
      }
    in
    let p = Stz_workloads.Generate.program tiny in
    (* VM shift semantics: the interpreter (and through it the
       optimizer's constant folder) must clamp shift amounts into
       [0, 62] without dropping odd amounts — a regression here skews
       every workload that shifts by an odd count. *)
    let shl = Stz_vm.Interp.eval_binop Stz_vm.Ir.Shl in
    let shr = Stz_vm.Interp.eval_binop Stz_vm.Ir.Shr in
    check "shift semantics: shl 1 doubles" (shl 21 1 = 42);
    check "shift semantics: shr 3 odd amount" (shr 80 3 = 10);
    check "shift semantics: 63 clamps to 62" (shl 1 63 = 1 lsl 62);
    check "shift semantics: asr keeps sign" (shr (-16) 2 = -4);
    let config = S.Config.stabilizer in
    let base_seed = Int64.of_int seed in
    let policy = { S.Supervisor.default_policy with S.Supervisor.max_retries = 2 } in
    let campaign ?(jobs = jobs) ?checkpoint ?(resume = false) profile =
      S.Supervisor.run_campaign ~policy ~profile ~jobs ?checkpoint ~resume
        ~config ~base_seed ~runs:10 ~args:[ 1 ] p
    in
    (* One campaign per single fault class at probability 1, plus every
       preset: none of them may raise, and the books must balance. *)
    let single name f = (name, { F.none with F.seed_poisoning = 0.0 } |> f) in
    let profiles =
      [
        single "fuel" (fun pr -> { pr with F.fuel_starvation = 1.0 });
        (* starved_depth 1 forbids the hot->leaf call chain, so depth
           blowout actually fires on this shallow workload. *)
        single "depth" (fun pr ->
            { pr with F.depth_blowout = 1.0; F.starved_depth = 1 });
        single "oom" (fun pr -> { pr with F.alloc_failure = 1.0 });
        single "preempt" (fun pr -> { pr with F.preemption_spike = 1.0 });
        single "poison" (fun pr -> { pr with F.seed_poisoning = 1.0 });
      ]
      @ F.named
    in
    List.iter
      (fun (name, profile) ->
        step @@ fun () ->
          match campaign profile with
          | exception e ->
              check
                (Printf.sprintf "%s: campaign raised %s" name
                   (Printexc.to_string e))
                false
          | c ->
              let s = S.Supervisor.summarize c in
              Printf.printf "%-8s %s\n%!" name (S.Report.campaign_line s);
              check
                (name ^ ": books balance")
                (s.S.Supervisor.completed + s.S.Supervisor.censored
                = s.S.Supervisor.runs);
              check
                (name ^ ": retries bounded")
                (List.for_all
                   (fun r ->
                     r.S.Supervisor.retries <= policy.S.Supervisor.max_retries)
                   c.S.Supervisor.records))
      profiles;
    (* The budget and reference gates, checked directly: address-level
       faults cannot change these workloads' answers (every load follows
       a store to the same location), so Invalid_result is exercised
       against a doctored reference instead. *)
    step (fun () ->
      match
        S.Outcome.run ~config ~seed:base_seed p ~args:[ 1 ]
      with
      | S.Outcome.Completed r ->
          check "budget gate censors slow runs"
            (match S.Outcome.check ~budget_cycles:(r.S.Runtime.cycles - 1) r with
            | S.Outcome.Budget_exceeded _ -> true
            | _ -> false);
          check "reference gate flags corrupted answers"
            (match S.Outcome.check ~reference:(r.S.Runtime.return_value + 1) r with
            | S.Outcome.Invalid_result _ -> true
            | _ -> false);
          check "clean runs pass both gates"
            (S.Outcome.check ~budget_cycles:r.S.Runtime.cycles
               ~reference:r.S.Runtime.return_value r
            = S.Outcome.Completed r)
      | o ->
          check
            (Printf.sprintf "clean run completed (got %s)" (S.Outcome.to_string o))
            false);
    (* Checkpoint round-trip + resume identity under the heavy profile. *)
    step (fun () ->
      let path = Filename.temp_file "szc-selftest" ".json" in
      let c1 = campaign ~checkpoint:path F.heavy in
      (match S.Supervisor.load path with
      | Error e -> check ("checkpoint load: " ^ e) false
      | Ok c2 ->
          check "checkpoint round-trips records"
            (c1.S.Supervisor.records = c2.S.Supervisor.records));
      let c3 = campaign ~checkpoint:path ~resume:true F.heavy in
      check "resume over a finished campaign is the identity"
        (c1.S.Supervisor.records = c3.S.Supervisor.records
        && S.Supervisor.times c1 = S.Supervisor.times c3);
      Sys.remove path);
    (* Parallel determinism: --jobs N must be bit-identical to serial. *)
    if jobs > 1 then step (fun () ->
      let serial = campaign ~jobs:1 F.light in
      let par = campaign ~jobs F.light in
      check
        (Printf.sprintf "--jobs %d campaign is bit-identical to serial" jobs)
        (S.Report.csv_of_campaign serial = S.Report.csv_of_campaign par
        && serial = par));
    List.iter (fun f -> Printf.eprintf "selftest FAILED: %s\n" f) (List.rev !failures);
    let verdict =
      if !failures <> [] then "FAILED" else if !skipped > 0 then "incomplete" else "ok"
    in
    Printf.printf "selftest %s: %d checks, %d steps skipped (%.1fs)\n" verdict
      !checks !skipped (Sys.time () -. t0);
    if verdict = "ok" then 0 else 3
  in
  let term =
    Term.(
      const run
      $ Arg.(
          value & opt int 30
          & info [ "budget-seconds" ] ~docv:"S"
              ~doc:
                "CPU-time budget; once it is spent, later steps are skipped \
                 and the selftest exits 3.")
      $ seed_term $ jobs_term)
  in
  Cmd.v
    (Cmd.info "selftest"
       ~doc:
         "Smoke-test the fault-injection harness: one small campaign per \
          fault class and preset profile, plus checkpoint/resume identity. \
          Exit 0 when every step ran and passed, 3 on a failure or a step \
          skipped over the budget.")
    term

(* ------------------------------------------------------------------ *)
(* szc remote: client for the szcd campaign daemon                     *)
(* ------------------------------------------------------------------ *)

let remote_socket_term =
  Arg.(
    value
    & opt string (Filename.concat (Filename.get_temp_dir_name ()) "szcd.sock")
    & info [ "socket" ] ~docv:"PATH" ~doc:"szcd Unix-domain socket.")

let deadline_term =
  Arg.(
    value & opt float 600.0
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Overall deadline: connection retries, reconnects and waits all \
           stop once this many seconds have elapsed.")

let retry_seed_term =
  Arg.(
    value & opt int 1
    & info [ "retry-seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the reconnect-backoff jitter stream — deterministic per \
           seed, decorrelated across clients.")

let tenant_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TENANT" ~doc:"Tenant name.")

let id_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"ID" ~doc:"Campaign id.")

let remote_deadline deadline = Unix.gettimeofday () +. deadline

let remote_rpc ~socket ~deadline ~seed req =
  let deadline = remote_deadline deadline in
  let seed = Int64.of_int seed in
  match Stz_daemon.Client.connect ~socket ~deadline ~seed () with
  | Error e -> Error e
  | Ok t ->
      let r = Stz_daemon.Client.rpc t ~deadline req in
      Stz_daemon.Client.close t;
      r

(* The daemon rides identity facts along on status replies; render
   them as one supplementary line (absent when talking to an old
   daemon, so the output stays a superset of the old format). *)
let print_status_info info =
  if info <> [] then begin
    let field k = List.assoc_opt k info in
    let uptime =
      match field "uptime_ms" with
      | Some ms -> (
          match int_of_string_opt ms with
          | Some ms -> Printf.sprintf ", up %.1fs" (float_of_int ms /. 1000.)
          | None -> "")
      | None -> ""
    in
    let drained =
      match field "last_drain" with
      | Some t -> Printf.sprintf ", last drain %s" t
      | None -> ""
    in
    match field "version" with
    | Some v -> Printf.printf "daemon %s%s%s\n" v uptime drained
    | None -> ()
  end

let print_stats (s : Stz_daemon.Protocol.stats) =
  let open Stz_daemon.Protocol in
  Printf.printf "%s up %.1fs, slots %d/%d%s\n" s.s_version
    (float_of_int s.s_uptime_ms /. 1000.)
    s.s_slots_busy s.s_slots_total
    (if s.s_draining then ", draining" else "");
  List.iter
    (fun (k, (h : Stz_telemetry.Ops.hist_summary)) ->
      Printf.printf "hist %s count %d min %d p50 %d p90 %d p99 %d max %d\n" k
        h.h_count h.h_min h.h_p50 h.h_p90 h.h_p99 h.h_max)
    s.s_hists;
  List.iter
    (fun r ->
      Printf.printf
        "tenant %s active %d queued %d held %d completed %d runs %d deficit %d\n"
        r.tr_tenant r.tr_active r.tr_queued r.tr_held r.tr_completed r.tr_runs
        r.tr_deficit)
    s.s_tenants

let print_response = function
  | Stz_daemon.Protocol.Pong -> Printf.printf "pong\n"
  | Stz_daemon.Protocol.Accepted { id; state } ->
      Printf.printf "accepted %s (%s)\n" id state
  | Stz_daemon.Protocol.Rejected { reason } -> Printf.printf "rejected: %s\n" reason
  | Stz_daemon.Protocol.Status_is { state; completed; runs; exit_code; info } ->
      Printf.printf "state %s, runs %d/%d%s\n" state completed runs
        (match exit_code with
        | Some c -> Printf.sprintf ", exit %d" c
        | None -> "");
      print_status_info info
  | Stz_daemon.Protocol.Draining { in_flight } ->
      Printf.printf "draining (%d in flight)\n" in_flight
  | Stz_daemon.Protocol.Cancelled -> Printf.printf "cancelled\n"
  | Stz_daemon.Protocol.Summary { exit_code; line } ->
      Printf.printf "%s (exit %d)\n" line exit_code
  | Stz_daemon.Protocol.Progress { run; line } ->
      Printf.printf "run %d: %s\n" run line
  | Stz_daemon.Protocol.Stats_is s -> print_stats s
  | Stz_daemon.Protocol.Error_frame msg -> Printf.printf "protocol error: %s\n" msg

let remote_submit_cmd =
  let run socket deadline retry_seed tenant id bench runs seed scale opt_s
      faults storage_faults storage_seed retries min_n ledger trace wait quiet =
    let spec =
      {
        Stz_daemon.Spool.bench;
        runs;
        seed;
        scale;
        opt = opt_s;
        faults;
        storage_faults;
        storage_seed;
        retries;
        min_n;
        ledger;
        trace;
      }
    in
    match Stz_daemon.Spool.validate spec with
    | Error e ->
        Printf.eprintf "szc remote submit: %s\n" e;
        1
    | Ok () ->
        if not wait then (
          match
            remote_rpc ~socket ~deadline ~seed:retry_seed
              (Stz_daemon.Protocol.Submit { tenant; id; spec })
          with
          | Ok resp ->
              print_response resp;
              (match resp with
              | Stz_daemon.Protocol.Accepted _ -> 0
              | Stz_daemon.Protocol.Rejected _ -> 2
              | _ -> 1)
          | Error e ->
              Printf.eprintf "szc remote submit: %s\n" e;
              1)
        else (
          match
            Stz_daemon.Client.submit_and_wait ~socket
              ~deadline:(remote_deadline deadline)
              ~seed:(Int64.of_int retry_seed) ~tenant ~id ~spec
              ~progress:(fun _ line ->
                if not quiet then Printf.printf "%s\n%!" line)
          with
          | Ok (exit_code, line) ->
              Printf.printf "%s\n" line;
              exit_code
          | Error e ->
              Printf.eprintf "szc remote submit: %s\n" e;
              1)
  in
  let term =
    Term.(
      const run $ remote_socket_term $ deadline_term $ retry_seed_term
      $ tenant_arg $ id_arg
      $ Arg.(
          required & pos 2 (some string) None
          & info [] ~docv:"BENCH" ~doc:"Benchmark name.")
      $ runs_term $ seed_term $ scale_term
      $ Arg.(
          value & opt string "O2"
          & info [ "O"; "opt" ] ~docv:"LEVEL" ~doc:"Optimization level (O0..O3).")
      $ Arg.(
          value & opt string "none"
          & info [ "faults" ] ~docv:"PROFILE" ~doc:"Run fault profile.")
      $ Arg.(
          value & opt string "none"
          & info [ "storage-faults" ] ~docv:"PROFILE"
              ~doc:"Storage fault profile for the runner's artifact writes.")
      $ storage_seed_term $ retries_term $ min_n_term
      $ flag [ "ledger" ]
          "Append a history ledger entry in the campaign's spool directory \
           (arms the monitor, as `szc campaign --ledger' does)."
      $ flag [ "trace" ] "Export a Chrome trace into the spool directory."
      $ flag [ "wait" ]
          "Follow the campaign to completion and exit with its campaign \
           exit code; reconnects (idempotent resubmit + re-attach) across \
           daemon restarts."
      $ flag [ "quiet" ] "With --wait, suppress per-run progress lines.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a campaign to szcd. Resubmitting the same TENANT ID with \
          the same spec is idempotent; a different spec is rejected.")
    term

let remote_attach_cmd =
  let run socket deadline retry_seed tenant id from_run quiet =
    match
      Stz_daemon.Client.attach ~socket ~deadline:(remote_deadline deadline)
        ~seed:(Int64.of_int retry_seed) ~tenant ~id ~from_run
        ~progress:(fun _ line -> if not quiet then Printf.printf "%s\n%!" line)
    with
    | Ok (exit_code, line) ->
        Printf.printf "%s\n" line;
        exit_code
    | Error e ->
        Printf.eprintf "szc remote attach: %s\n" e;
        1
  in
  let term =
    Term.(
      const run $ remote_socket_term $ deadline_term $ retry_seed_term
      $ tenant_arg $ id_arg
      $ Arg.(
          value & opt int 0
          & info [ "from-run" ] ~docv:"N"
              ~doc:"Replay finished runs from $(docv) before following live.")
      $ flag [ "quiet" ] "Suppress per-run progress lines.")
  in
  Cmd.v
    (Cmd.info "attach"
       ~doc:
         "Attach to a running (or finished) campaign's progress stream, \
          reconnecting across daemon restarts; exits with the campaign's \
          exit code.")
    term

let remote_simple name doc req ok_of =
  let run socket deadline retry_seed tenant id =
    match remote_rpc ~socket ~deadline ~seed:retry_seed (req ~tenant ~id) with
    | Ok resp ->
        print_response resp;
        ok_of resp
    | Error e ->
        Printf.eprintf "szc remote %s: %s\n" name e;
        1
  in
  let term =
    Term.(
      const run $ remote_socket_term $ deadline_term $ retry_seed_term
      $ tenant_arg $ id_arg)
  in
  Cmd.v (Cmd.info name ~doc) term

let remote_status_cmd =
  remote_simple "status" "Query a campaign's state."
    (fun ~tenant ~id -> Stz_daemon.Protocol.Status { tenant; id })
    (function Stz_daemon.Protocol.Status_is _ -> 0 | _ -> 1)

let remote_cancel_cmd =
  remote_simple "cancel"
    "Cancel a running campaign (it checkpoints and stops at the next batch \
     boundary)."
    (fun ~tenant ~id -> Stz_daemon.Protocol.Cancel { tenant; id })
    (function Stz_daemon.Protocol.Cancelled -> 0 | _ -> 1)

let remote_noarg name doc req ok_of =
  let run socket deadline retry_seed =
    match remote_rpc ~socket ~deadline ~seed:retry_seed req with
    | Ok resp ->
        print_response resp;
        ok_of resp
    | Error e ->
        Printf.eprintf "szc remote %s: %s\n" name e;
        1
  in
  let term =
    Term.(const run $ remote_socket_term $ deadline_term $ retry_seed_term)
  in
  Cmd.v (Cmd.info name ~doc) term

let remote_ping_cmd =
  remote_noarg "ping" "Check the daemon is alive." Stz_daemon.Protocol.Ping
    (function Stz_daemon.Protocol.Pong -> 0 | _ -> 1)

let remote_drain_cmd =
  remote_noarg "drain"
    "Ask the daemon to drain: stop admitting, checkpoint every in-flight \
     campaign, exit 0."
    Stz_daemon.Protocol.Drain
    (function Stz_daemon.Protocol.Draining _ -> 0 | _ -> 1)

let remote_top_cmd =
  let fmt_us v =
    if v >= 10_000 then Printf.sprintf "%.1fms" (float_of_int v /. 1000.)
    else Printf.sprintf "%dus" v
  in
  let render ~raw (s : Stz_daemon.Protocol.stats) =
    let open Stz_daemon.Protocol in
    if raw then begin
      (* Machine-readable dump (one snapshot per blank-line-separated
         block): what the CI gauntlet parses. *)
      print_stats s;
      List.iter (fun (k, v) -> Printf.printf "counter %s %d\n" k v) s.s_counters;
      List.iter (fun (k, v) -> Printf.printf "gauge %s %d\n" k v) s.s_gauges;
      print_newline ();
      flush stdout
    end
    else begin
      if Unix.isatty Unix.stdout then print_string "\027[H\027[2J";
      Printf.printf "szcd %s  up %.1fs  slots %d/%d%s\n" s.s_version
        (float_of_int s.s_uptime_ms /. 1000.)
        s.s_slots_busy s.s_slots_total
        (if s.s_draining then "  DRAINING" else "");
      (match List.assoc_opt "loop.tick_us" s.s_hists with
      | Some (h : Stz_telemetry.Ops.hist_summary) ->
          Printf.printf "tick   p50 %s  p90 %s  p99 %s  max %s  (%d ticks)\n"
            (fmt_us h.h_p50) (fmt_us h.h_p90) (fmt_us h.h_p99) (fmt_us h.h_max)
            h.h_count
      | None -> ());
      (match List.assoc_opt "sched.batch" s.s_hists with
      | Some (h : Stz_telemetry.Ops.hist_summary) ->
          Printf.printf "batch  p50 %d  p90 %d  p99 %d  max %d  (%d grants)\n"
            h.h_p50 h.h_p90 h.h_p99 h.h_max h.h_count
      | None -> ());
      Printf.printf "%-16s %6s %6s %6s %9s %9s %8s\n" "TENANT" "ACTIVE"
        "QUEUED" "HELD" "DONE" "RUNS" "DEFICIT";
      let rows =
        List.sort
          (fun a b ->
            match compare (b.tr_held, b.tr_active) (a.tr_held, a.tr_active) with
            | 0 -> String.compare a.tr_tenant b.tr_tenant
            | c -> c)
          s.s_tenants
      in
      List.iter
        (fun r ->
          Printf.printf "%-16s %6d %6d %6d %9d %9d %8d\n" r.tr_tenant
            r.tr_active r.tr_queued r.tr_held r.tr_completed r.tr_runs
            r.tr_deficit)
        rows;
      if rows = [] then print_string "(no in-flight campaigns)\n";
      flush stdout
    end
  in
  let run socket deadline retry_seed interval count once raw =
    let count = if once then 1 else count in
    let interval = Float.max 0.1 (Float.min 60.0 interval) in
    let deadline = remote_deadline deadline in
    let fail e =
      Printf.eprintf "szc remote top: %s\n" e;
      1
    in
    match
      Stz_daemon.Client.connect ~socket ~deadline
        ~seed:(Int64.of_int retry_seed) ()
    with
    | Error e -> fail e
    | Ok t ->
        (* One connection, one [stats] request per refresh. The daemon
           draining or the deadline ends the view: fine after at least
           one snapshot, an error before any. *)
        let rec poll seen =
          match Stz_daemon.Client.rpc t ~deadline Stz_daemon.Protocol.Stats with
          | Ok (Stz_daemon.Protocol.Stats_is s) ->
              render ~raw s;
              let seen = seen + 1 in
              let now = Unix.gettimeofday () in
              if (count > 0 && seen >= count) || now >= deadline then 0
              else begin
                Unix.sleepf (Float.min interval (deadline -. now));
                poll seen
              end
          | Ok resp ->
              print_response resp;
              1
          | Error e -> if seen > 0 then 0 else fail e
        in
        Fun.protect
          ~finally:(fun () -> Stz_daemon.Client.close t)
          (fun () -> poll 0)
  in
  let term =
    Term.(
      const run $ remote_socket_term $ deadline_term $ retry_seed_term
      $ Arg.(
          value & opt float 2.0
          & info [ "interval" ] ~docv:"SECONDS"
              ~doc:
                "Refresh period for the live view, clamped to 0.1-60 s: \
                 one stats request per refresh.")
      $ Arg.(
          value & opt int 0
          & info [ "count" ] ~docv:"N"
              ~doc:
                "Exit after $(docv) snapshots (0 = keep refreshing until \
                 the deadline or the daemon drains).")
      $ flag [ "once" ] "Print a single snapshot and exit (same as --count 1)."
      $ flag [ "raw" ]
          "Machine-readable output: one line per tenant row, histogram, \
           counter and gauge — no screen clearing (for scripts and CI).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live per-tenant view of a szcd daemon: active/queued campaigns, \
          held run slots, completed runs and DRR deficit per tenant, plus \
          event-loop tick-latency and grant-batch percentiles from the \
          daemon's ops histograms. Sorted by held slots (the busiest \
          tenant first).")
    term

(* ------------------------------------------------------------------ *)
(* szc fuzz                                                            *)
(* ------------------------------------------------------------------ *)

(* Shared by szc fuzz and szc layout sweep. *)
let progress ~quiet = if quiet then ignore else Printf.printf "%s\n%!"

let print_reproducers out =
  List.iter (fun r -> Printf.printf "reproducer: %s\n" (Filename.concat out r))

let fuzz_cmd =
  let run seed count jobs out resume rand_runs shrink_budget plant watchdog
      quiet =
    let* plant =
      match plant with
      | None -> Ok None
      | Some "shift-clamp" -> Ok (Some Stz_vm.Opt.Shift_clamp)
      | Some other ->
          Error (`Msg (Printf.sprintf "unknown planted bug %S" other))
    in
    let cfg =
      {
        Stabilizer.Fuzzer.fuzz_seed = Int64.of_int seed;
        count;
        jobs;
        out_dir = out;
        resume;
        rand_runs;
        shrink_budget;
        plant;
        watchdog = (if watchdog <= 0.0 then None else Some watchdog);
        log = progress ~quiet;
      }
    in
    match Stabilizer.Fuzzer.run_campaign cfg with
    | Error e ->
        Printf.eprintf "szc: fuzz aborted: %s\n" e;
        Ok 3
    | Ok s ->
        Printf.printf
          "fuzz: %d case%s — %d clean, %d trapped, %d failed, %d crashed, %d \
           hung\n"
          s.Stabilizer.Fuzzer.total
          (if s.Stabilizer.Fuzzer.total = 1 then "" else "s")
          s.Stabilizer.Fuzzer.clean s.Stabilizer.Fuzzer.trapped
          s.Stabilizer.Fuzzer.failed s.Stabilizer.Fuzzer.crashed
          s.Stabilizer.Fuzzer.hung;
        print_reproducers out s.Stabilizer.Fuzzer.reproducers;
        Ok (if s.Stabilizer.Fuzzer.failed > 0 then 2 else 0)
  in
  let term =
    Term.(
      term_result
        (const run
        $ Arg.(
            value & opt int 1
            & info [ "seed" ] ~docv:"SEED"
                ~doc:
                  "Fuzz seed. Every case is a pure function of (seed, \
                   index): the same seed and count always produce a \
                   byte-identical ledger and reproducer set.")
        $ Arg.(
            value & opt int 200
            & info [ "count"; "n" ] ~docv:"N"
                ~doc:"Number of generated programs to fuzz.")
        $ jobs_term
        $ Arg.(
            value & opt string "fuzz-out"
            & info [ "out" ] ~docv:"DIR"
                ~doc:
                  "Output directory for the fuzz ledger (fuzz.log) and \
                   shrunk reproducers (repro-*.szt, runnable with `szc \
                   exec').")
        $ flag [ "resume" ]
            "Continue an interrupted campaign from its ledger (self-heals \
             a torn tail first) instead of starting over. The finished \
             ledger is byte-identical to an uninterrupted run's."
        $ Arg.(
            value & opt int 2
            & info [ "rand-runs" ] ~docv:"N"
                ~doc:
                  "Randomization seeds per case for the layout-invariance \
                   oracle.")
        $ Arg.(
            value & opt int 2000
            & info [ "shrink-budget" ] ~docv:"N"
                ~doc:
                  "Maximum predicate evaluations while minimizing a failing \
                   program.")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "plant" ] ~docv:"BUG"
                ~doc:
                  "Arm a known optimizer bug (test hook; currently \
                   $(b,shift-clamp)) to prove the oracles catch it.")
        $ Arg.(
            value & opt float 30.0
            & info [ "watchdog" ] ~docv:"SECONDS"
                ~doc:
                  "Hang grace per case; a silent worker is SIGKILLed and \
                   the case censored. Forces fork isolation even at --jobs \
                   1; 0 disables (cases then run in-process at --jobs 1).")
        $ flag [ "quiet" ] "Suppress per-case progress output."))
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing of the VM/optimizer stack: sample whole \
          generator configurations from a seed-deterministic meta-space, \
          then require (a) O0/O1/O2/O3 result equality with validated \
          pipeline outputs, (b) result invariance across layout/heap \
          randomization seeds, and (c) hardware-counter sanity. Failing \
          cases are shrunk to minimal reproducers; worker crashes and \
          hangs are censored, never fatal. Exit 0 clean, 2 when \
          reproducers were found, 3 when the harness aborted.")
    term

(* ------------------------------------------------------------------ *)
(* szc explain / szc layout sweep                                      *)
(* ------------------------------------------------------------------ *)

(* The attribution workloads: any SPEC-like profile, plus the planted
   layout-sensitivity programs that exercise the profiler itself. *)
let lookup_explain_workload name scale =
  match name with
  | "pathological" ->
      Ok
        ( Stz_workloads.Pathological.program (),
          Stz_workloads.Pathological.default_args )
  | "conflict" ->
      Ok (Stz_workloads.Conflict.program (), Stz_workloads.Conflict.default_args)
  | "conflict-control" ->
      Ok (Stz_workloads.Conflict.control (), Stz_workloads.Conflict.default_args)
  | _ ->
      let* prof = lookup_bench name scale in
      Ok (Stz_workloads.Generate.program prof, Stz_workloads.Generate.default_args)

(* Workload variants for the ANOVA's subject factor: ~5% argument steps
   around the workload's default, wide enough to register as a workload
   stratum yet narrow against any genuine layout swing. *)
let explain_variants ~variants base_args =
  List.init variants (fun v ->
      List.map (fun a -> a + (v * Stdlib.max 1 (a / 20))) base_args)

let explain_cmd =
  let run bench seeds variants seed scale jobs baseline csv trace =
    let* p, base_args = lookup_explain_workload bench scale in
    let config =
      if baseline then Stabilizer.Config.baseline else Stabilizer.Config.one_time
    in
    match
      Stz_attrib.Explain.run ~jobs ~config ~base_seed:(Int64.of_int seed)
        ~seeds ~variants:(explain_variants ~variants base_args) p
    with
    | Error e ->
        Printf.eprintf "szc: explain aborted: %s\n" e;
        Ok 3
    | Ok report ->
        print_string (Stz_attrib.Explain.to_string report);
        (match csv with
        | Some path -> write_file path (Stz_attrib.Explain.csv report)
        | None -> ());
        (match trace with
        | Some path -> write_file path (Stz_attrib.Explain.trace_string report)
        | None -> ());
        Ok (if report.Stz_attrib.Explain.decomposition = None then 2 else 0)
  in
  let term =
    Term.(
      term_result
        (const run
        $ Arg.(
            required
            & pos 0 (some string) None
            & info [] ~docv:"WORKLOAD"
                ~doc:
                  "Workload to attribute: a benchmark name (see `szc \
                   list'), or one of the planted programs $(b,pathological), \
                   $(b,conflict), $(b,conflict-control).")
        $ Arg.(
            value & opt int 8
            & info [ "seeds"; "k" ] ~docv:"K"
                ~doc:
                  "Layout seeds (the ANOVA's treatment factor), split \
                   deterministically from $(b,--seed).")
        $ Arg.(
            value & opt int 4
            & info [ "variants"; "w" ] ~docv:"W"
                ~doc:
                  "Workload argument variants (the ANOVA's subject \
                   factor), ~5% steps around the workload's default \
                   arguments.")
        $ seed_term $ scale_term $ jobs_term
        $ flag [ "baseline" ]
            "Attribute the unrandomized layout instead of one-time \
             randomized layouts (every seed then measures the same \
             deterministic placement)."
        $ Arg.(
            value
            & opt (some string) None
            & info [ "csv" ] ~docv:"FILE"
                ~doc:
                  "Write the ranked conflict table as CSV (decomposition \
                   in a `#' footer).")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "trace" ] ~docv:"FILE"
                ~doc:
                  "Write a Chrome trace_event JSON view of the K x W cycle \
                   matrix: one group per variant, one lane per layout \
                   seed.")))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Attribute layout bias: run WORKLOAD under K one-time layout \
          seeds x W argument variants on conflict-instrumented machines, \
          decompose cycle variance (within-subjects ANOVA) into layout / \
          workload / residual with eta-squared effect sizes, and rank \
          which function pairs conflict in which hardware structure at \
          what estimated cycle cost. Exit 0 with a decomposition, 2 when \
          too many cells were censored to decompose, 3 on abort.")
    term

let layout_sweep_cmd =
  let run seed count jobs out resume layout_seeds variants threshold
      shrink_budget watchdog quiet =
    let cfg =
      {
        Stz_attrib.Sweep.fuzz_seed = Int64.of_int seed;
        count;
        jobs;
        out_dir = out;
        resume;
        layout_seeds;
        variants;
        threshold;
        shrink_budget;
        watchdog = (if watchdog <= 0.0 then None else Some watchdog);
        log = progress ~quiet;
      }
    in
    match Stz_attrib.Sweep.run_campaign cfg with
    | Error e ->
        Printf.eprintf "szc: layout sweep aborted: %s\n" e;
        Ok 3
    | Ok s ->
        Printf.printf
          "layout sweep: %d case%s — %d measured, %d trapped, %d crashed, %d \
           hung; max layout eta2 %.3f, %d offender%s at threshold %.2f\n"
          s.Stz_attrib.Sweep.total
          (if s.Stz_attrib.Sweep.total = 1 then "" else "s")
          s.Stz_attrib.Sweep.measured s.Stz_attrib.Sweep.trapped
          s.Stz_attrib.Sweep.crashed s.Stz_attrib.Sweep.hung
          s.Stz_attrib.Sweep.max_eta2
          (List.length s.Stz_attrib.Sweep.offenders)
          (if List.length s.Stz_attrib.Sweep.offenders = 1 then "" else "s")
          threshold;
        print_reproducers out s.Stz_attrib.Sweep.reproducers;
        Ok 0
  in
  let term =
    Term.(
      term_result
        (const run
        $ Arg.(
            value & opt int 1
            & info [ "seed" ] ~docv:"SEED"
                ~doc:
                  "Sweep seed keying the fuzz meta-space. Every case is a \
                   pure function of (seed, index): the same seed and \
                   count always produce a byte-identical ledger and \
                   reproducer set.")
        $ Arg.(
            value & opt int 25
            & info [ "count"; "n" ] ~docv:"N"
                ~doc:"Number of generated programs to sweep.")
        $ jobs_term
        $ Arg.(
            value & opt string "sweep-out"
            & info [ "out" ] ~docv:"DIR"
                ~doc:
                  "Output directory for the sweep ledger (sweep.log) and \
                   shrunk worst-offender reproducers (repro-*.szt, \
                   runnable with `szc exec').")
        $ flag [ "resume" ]
            "Continue an interrupted sweep from its ledger (self-heals a \
             torn tail first) instead of starting over. The finished \
             ledger is byte-identical to an uninterrupted run's."
        $ Arg.(
            value & opt int 6
            & info [ "layout-seeds"; "k" ] ~docv:"K"
                ~doc:"Layout seeds per case (ANOVA treatments).")
        $ Arg.(
            value & opt int 4
            & info [ "variants"; "w" ] ~docv:"W"
                ~doc:"Workload argument variants per case (ANOVA subjects).")
        $ Arg.(
            value & opt float 0.5
            & info [ "threshold" ] ~docv:"ETA2"
                ~doc:
                  "Layout eta-squared at or above which a case counts as \
                   an offender and is shrunk to a reproducer.")
        $ Arg.(
            value & opt int 200
            & info [ "shrink-budget" ] ~docv:"N"
                ~doc:
                  "Maximum predicate evaluations while minimizing an \
                   offender (each evaluation reruns the full K x W \
                   matrix; keep small).")
        $ Arg.(
            value & opt float 60.0
            & info [ "watchdog" ] ~docv:"SECONDS"
                ~doc:
                  "Hang grace per case; a silent worker is SIGKILLed and \
                   the case censored. Forces fork isolation even at \
                   --jobs 1; 0 disables.")
        $ flag [ "quiet" ] "Suppress per-case progress output."))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Worst-case layout search: walk the fuzzer's seed-deterministic \
          program meta-space, measure each program's layout eta-squared \
          with the `szc explain' machinery (K one-time layout seeds x W \
          argument variants), and shrink programs whose layout share of \
          cycle variance meets the threshold into minimal reproducers. \
          Crash-isolated, watchdogged, and resumable: the CRC-framed \
          ledger self-heals a torn tail and a resumed sweep converges to \
          a byte-identical ledger. Exit 0 on completion, 3 on abort.")
    term

let layout_cmd =
  Cmd.group
    (Cmd.info "layout"
       ~doc:"Layout-bias tooling: worst-case layout sweeps (`szc layout sweep').")
    [ layout_sweep_cmd ]

let remote_cmd =
  Cmd.group
    (Cmd.info "remote"
       ~doc:
         "Talk to a szcd campaign daemon: submit/status/attach/cancel/\
          drain/ping/top with deadline, exponential backoff and \
          deterministic jitter.")
    [
      remote_submit_cmd; remote_status_cmd; remote_attach_cmd;
      remote_cancel_cmd; remote_drain_cmd; remote_ping_cmd; remote_top_cmd;
    ]

let () =
  (* A peer (daemon socket, pipe, pager) dying mid-write must surface
     as EPIPE and a censoring event, never kill the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let info =
    Cmd.info "szc" ~version:"1.0.0"
      ~doc:"STABILIZER driver: run simulated benchmarks under layout randomization."
  in
  (* Exit-code contract: 0 = verdict/success, 1 = usage or bad input,
     2 = insufficient uncensored samples, 3 = campaign aborted. fsck
     reuses the numbers with its own meaning: 0 = intact, 1 = unknown
     artifact, 2 = salvageable corruption, 3 = unrecoverable. *)
  match
    Cmd.eval_value
      (Cmd.group info
         [
           list_cmd; run_cmd; compare_cmd; campaign_cmd; selftest_cmd; nist_cmd;
           disasm_cmd; top_cmd; check_trace_cmd; fsck_cmd;
           exec_cmd; power_cmd; history_cmd; regress_cmd; fuzz_cmd;
           explain_cmd; layout_cmd; remote_cmd;
         ])
  with
  | Ok (`Ok code) -> exit code
  | Ok (`Help | `Version) -> exit 0
  | Error _ -> exit 1
