module S = Stabilizer
module P = Stz_workloads.Profile

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A small, fast workload for runtime tests. *)
let tiny =
  {
    P.default with
    P.name = "tiny";
    functions = 8;
    hot_functions = 4;
    iterations = 20;
    inner_trips = 8;
    seed = 0x7E57L;
  }

let tiny_program = lazy (Stz_workloads.Generate.program tiny)

let run config seed =
  S.Runtime.run ~config ~seed (Lazy.force tiny_program) ~args:[ 1 ]

(* ------------------------------------------------------------------ *)
(* Config                                                              *)
(* ------------------------------------------------------------------ *)

let config_describe () =
  Alcotest.(check string) "full" "code.heap.stack" (S.Config.describe S.Config.stabilizer);
  Alcotest.(check string) "baseline" "baseline" (S.Config.describe S.Config.baseline);
  Alcotest.(check string) "code only" "code" (S.Config.describe S.Config.code_only);
  Alcotest.(check string) "code+stack" "code.stack" (S.Config.describe S.Config.code_stack);
  Alcotest.(check string) "one-time" "code.heap.stack.onetime"
    (S.Config.describe S.Config.one_time);
  Alcotest.(check string) "non-default settings named"
    "code.heap.stack.onetime interval=5000 alloc=tlsf env-bytes=64"
    (S.Config.describe
       {
         S.Config.one_time with
         interval_cycles = 5000;
         base_allocator = Stz_alloc.Allocator.Tlsf;
         env_bytes = 64;
       })

let config_independent_toggles () =
  (* §2.5: randomizations are independently selectable; all eight
     combinations must run. *)
  List.iter
    (fun (code, stack, heap) ->
      let config = { S.Config.stabilizer with code; stack; heap } in
      let r = run config 1L in
      check_bool "ran" true (r.S.Runtime.cycles > 0))
    [
      (false, false, false); (true, false, false); (false, true, false);
      (false, false, true); (true, true, false); (true, false, true);
      (false, true, true); (true, true, true);
    ]

(* ------------------------------------------------------------------ *)
(* Runtime                                                             *)
(* ------------------------------------------------------------------ *)

let runtime_deterministic_by_seed () =
  let r1 = run S.Config.stabilizer 42L in
  let r2 = run S.Config.stabilizer 42L in
  check_int "same cycles" r1.S.Runtime.cycles r2.S.Runtime.cycles;
  check_int "same relocations" r1.S.Runtime.relocations r2.S.Runtime.relocations

let runtime_seed_changes_layout_not_result () =
  let r1 = run S.Config.stabilizer 1L in
  let r2 = run S.Config.stabilizer 2L in
  check_int "same program result" r1.S.Runtime.return_value r2.S.Runtime.return_value;
  check_bool "different timing" true (r1.S.Runtime.cycles <> r2.S.Runtime.cycles)

let runtime_all_configs_same_value () =
  (* Layout affects time only: every configuration computes the same
     answer as the plain build. *)
  let reference = (run S.Config.baseline 1L).S.Runtime.return_value in
  List.iter
    (fun config ->
      check_int
        ("same value under " ^ S.Config.describe config)
        reference
        (run config 5L).S.Runtime.return_value)
    [
      S.Config.stabilizer; S.Config.one_time; S.Config.code_only;
      S.Config.code_stack;
      { S.Config.baseline with link_order = S.Config.Random_link };
      { S.Config.stabilizer with granularity = Stz_layout.Code_rand.Block_grain };
      { S.Config.stabilizer with base_allocator = Stz_alloc.Allocator.Tlsf };
      { S.Config.stabilizer with base_allocator = Stz_alloc.Allocator.Diehard };
      { S.Config.stabilizer with reloc_style = Stz_layout.Code_rand.Fixed_table };
      { S.Config.baseline with env_bytes = 4096 };
    ]

let runtime_baseline_has_no_relocations () =
  let r = run S.Config.baseline 1L in
  check_int "no relocations" 0 r.S.Runtime.relocations;
  check_int "one epoch" 1 r.S.Runtime.epochs

let runtime_code_randomization_relocates () =
  let r = run S.Config.code_only 1L in
  check_bool "relocations happened" true (r.S.Runtime.relocations > 0)

let runtime_rerandomization_epochs () =
  let config = { S.Config.stabilizer with interval_cycles = 20_000 } in
  let r = run config 1L in
  check_bool "multiple epochs" true (r.S.Runtime.epochs > 3);
  let one = run S.Config.one_time 1L in
  check_int "one-time has a single epoch" 1 one.S.Runtime.epochs;
  (* More epochs mean more relocations. *)
  let fewer = run { config with interval_cycles = 1_000_000 } 1L in
  check_bool "interval controls epochs" true (fewer.S.Runtime.epochs < r.S.Runtime.epochs)

let runtime_overhead_positive () =
  let base = run S.Config.baseline 1L in
  let full = run S.Config.stabilizer 1L in
  check_bool "randomization costs something" true
    (full.S.Runtime.cycles > base.S.Runtime.cycles);
  check_bool "but less than 2x" true
    (full.S.Runtime.cycles < 2 * base.S.Runtime.cycles)

let runtime_heap_stats () =
  let r = run S.Config.stabilizer 1L in
  let s = r.S.Runtime.heap_stats in
  check_bool "allocations happened" true (s.Stz_alloc.Allocator.allocations > 0);
  check_bool "reserved covers live" true
    (s.Stz_alloc.Allocator.reserved_bytes >= s.Stz_alloc.Allocator.live_bytes)

let runtime_virtual_seconds () =
  let r = run S.Config.baseline 1L in
  Alcotest.(check (float 1e-12))
    "seconds = cycles / 3.2GHz"
    (float_of_int r.S.Runtime.cycles /. 3.2e9)
    r.S.Runtime.virtual_seconds

let runtime_env_bytes_changes_timing () =
  let a = run S.Config.baseline 1L in
  let b = run { S.Config.baseline with env_bytes = 4096 + 64 } 1L in
  (* The Mytkowicz effect: environment size shifts the stack and with it
     cache behaviour. (It must at least not crash; timing usually moves.) *)
  check_int "same result" a.S.Runtime.return_value b.S.Runtime.return_value

(* Runs without a [machine_factory] share the process's spare machine,
   reset before each run. A sequence of them, traps included, must give
   what the same runs give each on a fresh machine: the return value or
   the trap, cycles, every counter, relocations, epochs, heap stats and
   events, and a trap's partial counters. *)
let runtime_reused_machine_is_fresh () =
  let p = Lazy.force tiny_program in
  let outcome ?machine_factory ?limits ?env_wrap config seed =
    match
      S.Runtime.run ?machine_factory ?limits ?env_wrap ~events:true ~config ~seed p
        ~args:[ 1 ]
    with
    | r -> Ok r
    | exception S.Runtime.Trap { trap; partial; events } ->
        Error (Printexc.to_string trap, partial, events)
  in
  let mallocs = ref 0 in
  let full =
    S.Runtime.run ~config:S.Config.stabilizer ~seed:4L p ~args:[ 1 ]
      ~env_wrap:(fun env ->
        {
          env with
          Stz_vm.Interp.malloc =
            (fun ~size ->
              incr mallocs;
              env.Stz_vm.Interp.malloc ~size);
        })
  in
  let mallocs = !mallocs in
  check_bool "the program allocates" true (mallocs >= 2);
  (* [malloc] raises halfway through the run's allocations. *)
  let failing_malloc () env =
    let left = ref (mallocs / 2) in
    {
      env with
      Stz_vm.Interp.malloc =
        (fun ~size ->
          if !left = 0 then failwith "injected malloc failure";
          decr left;
          env.Stz_vm.Interp.malloc ~size);
    }
  in
  (* The first function entry runs a whole other program, which finds
     the spare machine taken. *)
  let nested () env =
    let first = ref true in
    {
      env with
      Stz_vm.Interp.enter_function =
        (fun ~fid ->
          if !first then begin
            first := false;
            ignore (run S.Config.baseline 9L)
          end;
          env.Stz_vm.Interp.enter_function ~fid);
    }
  in
  let tight =
    Stz_vm.Interp.limits ~max_instructions:(full.S.Runtime.counters.instructions / 2) ()
  in
  List.iter
    (fun (name, limits, wrapper, config, seed, traps) ->
      let shared = outcome ?limits ?env_wrap:(Option.map (fun f -> f ()) wrapper) config seed in
      let fresh =
        outcome
          ~machine_factory:(fun () -> Stz_machine.Hierarchy.create ())
          ?limits ?env_wrap:(Option.map (fun f -> f ()) wrapper) config seed
      in
      (match shared with
      | Ok r ->
          check_bool (name ^ ": completes") false traps;
          check_bool (name ^ ": events recorded") true (r.S.Runtime.events <> [])
      | Error (_, partial, _) ->
          check_bool (name ^ ": traps") true traps;
          check_bool (name ^ ": traps mid-run") true (partial.S.Runtime.p_cycles > 0));
      if shared <> fresh then
        Alcotest.failf "%s: the reused machine gave another outcome than a fresh one" name)
    [
      ("baseline", None, None, S.Config.baseline, 1L, false);
      ("one_time", None, None, S.Config.one_time, 2L, false);
      ("stabilizer", None, None, S.Config.stabilizer, 3L, false);
      ("fuel trap", Some tight, None, S.Config.stabilizer, 4L, true);
      ("malloc trap", None, Some failing_malloc, S.Config.stabilizer, 4L, true);
      ("nested", None, Some nested, S.Config.one_time, 5L, false);
      ("after the traps", None, None, S.Config.stabilizer, 4L, false);
    ]

(* ------------------------------------------------------------------ *)
(* Sample                                                              *)
(* ------------------------------------------------------------------ *)

let sample_shapes () =
  let s =
    S.Sample.collect ~config:S.Config.stabilizer ~base_seed:3L ~runs:5 ~args:[ 1 ]
      (Lazy.force tiny_program)
  in
  check_int "times" 5 (Array.length s.S.Sample.times);
  check_int "cycles" 5 (Array.length s.S.Sample.cycles);
  check_int "results" 5 (Array.length s.S.Sample.results);
  Array.iter (fun t -> check_bool "positive" true (t > 0.0)) s.S.Sample.times

let sample_deterministic () =
  let t1 =
    S.Sample.times ~config:S.Config.stabilizer ~base_seed:9L ~runs:4 ~args:[ 1 ]
      (Lazy.force tiny_program)
  in
  let t2 =
    S.Sample.times ~config:S.Config.stabilizer ~base_seed:9L ~runs:4 ~args:[ 1 ]
      (Lazy.force tiny_program)
  in
  Alcotest.(check (array (float 0.0))) "same base seed, same samples" t1 t2

let sample_runs_vary () =
  let t =
    S.Sample.times ~config:S.Config.stabilizer ~base_seed:11L ~runs:6 ~args:[ 1 ]
      (Lazy.force tiny_program)
  in
  let distinct = List.sort_uniq compare (Array.to_list t) in
  check_bool "independent layouts differ" true (List.length distinct > 1)

(* ------------------------------------------------------------------ *)
(* Experiment                                                          *)
(* ------------------------------------------------------------------ *)

let normal_samples ~seed ~mu n =
  let g = Stz_prng.Xorshift.create ~seed in
  Array.init n (fun _ ->
      let u1 = Stz_prng.Xorshift.next_float g +. 1e-12 in
      let u2 = Stz_prng.Xorshift.next_float g in
      mu +. (sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)))

let experiment_null () =
  let a = normal_samples ~seed:1L ~mu:10.0 30 in
  let b = normal_samples ~seed:2L ~mu:10.0 30 in
  let c = S.Experiment.compare_samples a b in
  check_bool "uses t-test on normal data" true c.S.Experiment.used_ttest;
  check_bool "not significant" false c.S.Experiment.significant

let experiment_detects_effect () =
  let a = normal_samples ~seed:3L ~mu:10.0 30 in
  let b = normal_samples ~seed:4L ~mu:12.0 30 in
  let c = S.Experiment.compare_samples a b in
  check_bool "significant" true c.S.Experiment.significant;
  check_bool "speedup < 1 (b slower... a/b with b larger)" true
    (c.S.Experiment.speedup < 1.0)

let experiment_falls_back_to_wilcoxon () =
  (* Exponential samples fail Shapiro-Wilk: the §6 fallback kicks in. *)
  let expo seed =
    let g = Stz_prng.Xorshift.create ~seed in
    Array.init 30 (fun _ -> -.log (Stz_prng.Xorshift.next_float g +. 1e-12))
  in
  let c = S.Experiment.compare_samples (expo 5L) (expo 6L) in
  check_bool "non-normal detected" false
    (c.S.Experiment.normal_a && c.S.Experiment.normal_b);
  check_bool "wilcoxon used" false c.S.Experiment.used_ttest

let experiment_flags_unequal_variance () =
  let a = normal_samples ~seed:21L ~mu:10.0 30 in
  let wide =
    Array.map
      (fun x -> 10.0 +. (8.0 *. (x -. 10.0)))
      (normal_samples ~seed:22L ~mu:10.0 30)
  in
  let c = S.Experiment.compare_samples a wide in
  check_bool "unequal variances detected" false c.S.Experiment.equal_variance;
  check_bool "variance p small" true (c.S.Experiment.variance_p < 0.05);
  let described = S.Experiment.describe c in
  let has sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "describe warns" true (has "unequal variances" described);
  (* Matched spreads stay quiet. *)
  let b = normal_samples ~seed:23L ~mu:10.0 30 in
  let c' = S.Experiment.compare_samples a b in
  check_bool "equal variances pass" true c'.S.Experiment.equal_variance;
  check_bool "no warning" false (has "unequal variances" (S.Experiment.describe c'))

let experiment_requires_samples () =
  Alcotest.check_raises "too few"
    (Invalid_argument "Experiment.compare_samples: needs >= 3 samples each")
    (fun () -> ignore (S.Experiment.compare_samples [| 1.0 |] [| 1.0; 2.0; 3.0 |]))

let experiment_suite_anova () =
  (* 10 benchmarks, each ~2% faster under treatment B: the suite-wide
     ANOVA must find the effect that individual noise might hide. *)
  let samples =
    Array.init 10 (fun i ->
        let mu = 10.0 +. float_of_int i in
        ( normal_samples ~seed:(Int64.of_int (100 + i)) ~mu 20,
          Array.map (fun x -> x *. 0.98)
            (normal_samples ~seed:(Int64.of_int (200 + i)) ~mu 20) ))
  in
  let r = S.Experiment.suite_anova samples in
  check_bool "suite effect found" true (r.Stz_stats.Anova.p_value < 0.05)

let experiment_suite_anova_null () =
  let samples =
    Array.init 10 (fun i ->
        let mu = 10.0 +. float_of_int i in
        ( normal_samples ~seed:(Int64.of_int (300 + i)) ~mu 20,
          normal_samples ~seed:(Int64.of_int (400 + i)) ~mu 20 ))
  in
  let r = S.Experiment.suite_anova samples in
  check_bool "no effect claimed" true (r.Stz_stats.Anova.p_value > 0.05)

let experiment_describe () =
  let a = normal_samples ~seed:7L ~mu:10.0 10 in
  let b = normal_samples ~seed:8L ~mu:10.0 10 in
  let s = S.Experiment.describe (S.Experiment.compare_samples a b) in
  check_bool "mentions test" true
    (String.length s > 10)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let driver_compile_validates () =
  let p = Lazy.force tiny_program in
  List.iter
    (fun opt -> ignore (S.Driver.compile ~opt p))
    [ Stz_vm.Opt.O0; Stz_vm.Opt.O1; Stz_vm.Opt.O2; Stz_vm.Opt.O3 ]

let driver_build_and_run () =
  let s =
    S.Driver.build_and_run ~config:S.Config.stabilizer ~opt:Stz_vm.Opt.O2
      ~base_seed:1L ~runs:4 ~args:[ 1 ] (Lazy.force tiny_program)
  in
  check_int "runs" 4 (Array.length s.S.Sample.times)

let driver_o1_beats_o0 () =
  match
    S.Driver.compare_campaigns ~min_n:3 ~config:S.Config.stabilizer
      ~base_seed:1L ~runs:8 ~args:[ 1 ] Stz_vm.Opt.O0 Stz_vm.Opt.O1
      (Lazy.force tiny_program)
  with
  | _, _, S.Experiment.Verdict c ->
      (* speedup = mean(O0) / mean(O1) > 1 when O1 is faster. *)
      check_bool "O1 faster than O0" true (c.S.Experiment.speedup > 1.0)
  | _, _, gated -> Alcotest.fail (S.Experiment.describe_gated gated)

(* ------------------------------------------------------------------ *)
(* Adaptive re-randomization (paper §8)                                *)
(* ------------------------------------------------------------------ *)

let adaptive_mode_runs () =
  let config = { S.Config.stabilizer with adaptive = true } in
  let r = run config 1L in
  let plain = run S.Config.stabilizer 1L in
  check_int "same result" plain.S.Runtime.return_value r.S.Runtime.return_value;
  check_bool "at least as many epochs" true
    (r.S.Runtime.epochs >= plain.S.Runtime.epochs);
  check_bool "triggers counted consistently" true
    (r.S.Runtime.adaptive_triggers <= r.S.Runtime.epochs)

let adaptive_off_means_zero_triggers () =
  let r = run S.Config.stabilizer 1L in
  check_int "no adaptive triggers by default" 0 r.S.Runtime.adaptive_triggers

let adaptive_sensitive_threshold_fires () =
  (* With a hair-trigger threshold, adaptive re-randomization fires on
     a layout-sensitive program. *)
  let p = Stz_workloads.Pathological.program () in
  let config =
    { S.Config.stabilizer with adaptive = true; adaptive_threshold = 1.01 }
  in
  let r = S.Runtime.run ~config ~seed:3L p ~args:[ 1 ] in
  check_bool "fired at least once" true (r.S.Runtime.adaptive_triggers > 0)

(* ------------------------------------------------------------------ *)
(* Heap randomness protocol                                            *)
(* ------------------------------------------------------------------ *)

let heap_randomness_table_shape () =
  let table = S.Heap_randomness.table ~ns:[ 4; 256 ] ~seed:1L () in
  check_int "5 rows" 5 (List.length table);
  List.iter
    (fun r ->
      check_bool "total is 6 or 7" true
        (r.S.Heap_randomness.total >= 6 && r.S.Heap_randomness.total <= 7);
      check_bool "passed <= total" true
        (r.S.Heap_randomness.passed <= r.S.Heap_randomness.total))
    table

let heap_randomness_window_scales_with_n () =
  let r16 = S.Heap_randomness.shuffled ~n:16 ~seed:1L Stz_alloc.Allocator.Segregated in
  let r256 = S.Heap_randomness.shuffled ~n:256 ~seed:1L Stz_alloc.Allocator.Segregated in
  check_int "N=16 window ends at bit 9" 9 r16.S.Heap_randomness.hi_bit;
  check_int "N=256 window ends at bit 13" 13 r256.S.Heap_randomness.hi_bit

(* ------------------------------------------------------------------ *)
(* Profiler                                                            *)
(* ------------------------------------------------------------------ *)

let profiler_accounts_all_cycles () =
  let r =
    S.Runtime.run ~profile:true ~config:S.Config.baseline ~seed:1L
      (Lazy.force tiny_program) ~args:[ 1 ]
  in
  match r.S.Runtime.profile with
  | None -> Alcotest.fail "expected a profile"
  | Some entries ->
      let attributed =
        List.fold_left (fun a e -> a + e.S.Profiler.exclusive_cycles) 0 entries
      in
      check_int "every cycle attributed" r.S.Runtime.cycles attributed;
      let calls fid =
        (List.find (fun e -> e.S.Profiler.fid = fid) entries).S.Profiler.calls
      in
      check_int "main called once" 1 (calls 0);
      check_bool "hottest first" true
        (match entries with
        | a :: b :: _ -> a.S.Profiler.exclusive_cycles >= b.S.Profiler.exclusive_cycles
        | _ -> false)

let profiler_off_by_default () =
  let r = run S.Config.stabilizer 1L in
  check_bool "no profile" true (r.S.Runtime.profile = None)

let profiler_unit_attribution () =
  let module H = Stz_machine.Hierarchy in
  let at cycles = { H.counters_zero with H.cycles } in
  let p = Lazy.force tiny_program in
  let pr = S.Profiler.create p in
  S.Profiler.on_enter pr ~fid:0 ~at:(at 0);
  S.Profiler.on_enter pr ~fid:1 ~at:(at 100);
  S.Profiler.on_leave pr ~fid:1 ~at:(at 250);
  S.Profiler.on_leave pr ~fid:0 ~at:(at 300);
  S.Profiler.finish pr ~at:(at 300);
  let get fid =
    (List.find (fun e -> e.S.Profiler.fid = fid) (S.Profiler.hottest pr))
      .S.Profiler.exclusive_cycles
  in
  check_int "callee exclusive" 150 (get 1);
  check_int "caller exclusive" 150 (get 0);
  check_int "total" 300 (S.Profiler.total_cycles pr)

let profiler_counter_attribution () =
  let module H = Stz_machine.Hierarchy in
  let p = Lazy.force tiny_program in
  let pr = S.Profiler.create p in
  let at cycles l1d = { H.counters_zero with H.cycles; H.l1d_misses = l1d } in
  S.Profiler.on_enter pr ~fid:0 ~at:(at 0 0);
  S.Profiler.on_enter pr ~fid:1 ~at:(at 100 3);
  S.Profiler.on_leave pr ~fid:1 ~at:(at 250 10);
  S.Profiler.on_leave pr ~fid:0 ~at:(at 300 12);
  S.Profiler.finish pr ~at:(at 300 12);
  let get fid =
    (List.find (fun e -> e.S.Profiler.fid = fid) (S.Profiler.hottest pr))
      .S.Profiler.counters
  in
  check_int "callee l1d misses" 7 (get 1).H.l1d_misses;
  check_int "caller l1d misses" 5 (get 0).H.l1d_misses

let profiler_merge_entries () =
  let module H = Stz_machine.Hierarchy in
  let e ~fid ~name ~cycles ~l1d calls =
    {
      S.Profiler.fid;
      name;
      calls;
      exclusive_cycles = cycles;
      counters = { H.counters_zero with H.cycles; H.l1d_misses = l1d };
    }
  in
  let merged =
    S.Profiler.merge_entries
      [
        [ e ~fid:0 ~name:"main" ~cycles:10 ~l1d:1 1; e ~fid:1 ~name:"f" ~cycles:90 ~l1d:4 3 ];
        [ e ~fid:1 ~name:"f" ~cycles:20 ~l1d:2 2 ];
      ]
  in
  check_int "two functions" 2 (List.length merged);
  let f = List.hd merged in
  check_bool "hottest first" true (f.S.Profiler.fid = 1);
  check_int "calls summed" 5 f.S.Profiler.calls;
  check_int "cycles summed" 110 f.S.Profiler.exclusive_cycles;
  check_int "counters summed" 6 f.S.Profiler.counters.H.l1d_misses

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let report_csv () =
  let s =
    S.Sample.collect ~config:S.Config.baseline ~base_seed:1L ~runs:3 ~args:[ 1 ]
      (Lazy.force tiny_program)
  in
  let csv = S.Report.csv_of_sample s in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "header + 3 rows" 4 (List.length lines);
  check_bool "header" true (List.hd lines = "run,seconds,cycles")

let report_summary_line () =
  let xs = Array.init 100 (fun i -> float_of_int i) in
  let line = S.Report.summary_line xs in
  check_bool "mentions n" true (String.length line > 20)

(* ------------------------------------------------------------------ *)
(* Pathological workload                                               *)
(* ------------------------------------------------------------------ *)

let pathological_is_layout_sensitive () =
  let p = Stz_workloads.Pathological.program () in
  let cycles seed =
    (S.Runtime.run
       ~config:{ S.Config.baseline with link_order = S.Config.Random_link }
       ~seed p ~args:Stz_workloads.Pathological.default_args)
      .S.Runtime.cycles
  in
  let values = List.init 10 (fun i -> float_of_int (cycles (Int64.of_int (i + 1)))) in
  let arr = Array.of_list values in
  let spread =
    (Stz_stats.Desc.max arr -. Stz_stats.Desc.min arr) /. Stz_stats.Desc.min arr
  in
  check_bool
    (Printf.sprintf "link-order spread %.1f%% exceeds 10%%" (spread *. 100.))
    true (spread > 0.10)

let () =
  Alcotest.run "stabilizer"
    [
      ( "config",
        [
          Alcotest.test_case "describe" `Quick config_describe;
          Alcotest.test_case "independent toggles" `Quick config_independent_toggles;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "deterministic" `Quick runtime_deterministic_by_seed;
          Alcotest.test_case "seed varies layout only" `Quick runtime_seed_changes_layout_not_result;
          Alcotest.test_case "all configs same value" `Quick runtime_all_configs_same_value;
          Alcotest.test_case "baseline static" `Quick runtime_baseline_has_no_relocations;
          Alcotest.test_case "code relocates" `Quick runtime_code_randomization_relocates;
          Alcotest.test_case "epochs" `Quick runtime_rerandomization_epochs;
          Alcotest.test_case "overhead sane" `Quick runtime_overhead_positive;
          Alcotest.test_case "heap stats" `Quick runtime_heap_stats;
          Alcotest.test_case "virtual seconds" `Quick runtime_virtual_seconds;
          Alcotest.test_case "env bytes" `Quick runtime_env_bytes_changes_timing;
          Alcotest.test_case "reused machine is fresh" `Quick runtime_reused_machine_is_fresh;
        ] );
      ( "sample",
        [
          Alcotest.test_case "shapes" `Quick sample_shapes;
          Alcotest.test_case "deterministic" `Quick sample_deterministic;
          Alcotest.test_case "runs vary" `Quick sample_runs_vary;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "null" `Quick experiment_null;
          Alcotest.test_case "detects effect" `Quick experiment_detects_effect;
          Alcotest.test_case "wilcoxon fallback" `Quick experiment_falls_back_to_wilcoxon;
          Alcotest.test_case "requires samples" `Quick experiment_requires_samples;
          Alcotest.test_case "unequal variance warning" `Quick
            experiment_flags_unequal_variance;
          Alcotest.test_case "suite anova effect" `Quick experiment_suite_anova;
          Alcotest.test_case "suite anova null" `Quick experiment_suite_anova_null;
          Alcotest.test_case "describe" `Quick experiment_describe;
        ] );
      ( "adaptive (§8)",
        [
          Alcotest.test_case "runs" `Quick adaptive_mode_runs;
          Alcotest.test_case "off by default" `Quick adaptive_off_means_zero_triggers;
          Alcotest.test_case "fires when sensitive" `Quick adaptive_sensitive_threshold_fires;
        ] );
      ( "heap randomness",
        [
          Alcotest.test_case "table shape" `Quick heap_randomness_table_shape;
          Alcotest.test_case "window scales" `Quick heap_randomness_window_scales_with_n;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "accounts all cycles" `Quick profiler_accounts_all_cycles;
          Alcotest.test_case "off by default" `Quick profiler_off_by_default;
          Alcotest.test_case "unit attribution" `Quick profiler_unit_attribution;
          Alcotest.test_case "counter attribution" `Quick
            profiler_counter_attribution;
          Alcotest.test_case "merge entries" `Quick profiler_merge_entries;
        ] );
      ( "report",
        [
          Alcotest.test_case "sample csv" `Quick report_csv;
          Alcotest.test_case "summary line" `Quick report_summary_line;
        ] );
      ( "pathological",
        [ Alcotest.test_case "layout sensitive" `Quick pathological_is_layout_sensitive ] );
      ( "driver",
        [
          Alcotest.test_case "compile validates" `Quick driver_compile_validates;
          Alcotest.test_case "build and run" `Quick driver_build_and_run;
          Alcotest.test_case "O1 beats O0" `Quick driver_o1_beats_o0;
        ] );
    ]
