(* The full experiment harness: regenerates every table and figure of
   the paper's evaluation on the simulated substrate.

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe -- nist      -- §3.2 randomness table  (E1)
     dune exec bench/main.exe -- normality -- Table 1 + Figure 5     (E2)
     dune exec bench/main.exe -- overhead  -- Figure 6               (E3)
     dune exec bench/main.exe -- optimizations -- Figure 7           (E4)
     dune exec bench/main.exe -- anova     -- §6.1                   (E5)
     dune exec bench/main.exe -- bias      -- §1 motivation          (E6)
     dune exec bench/main.exe -- table2    -- Table 2
     dune exec bench/main.exe -- ablations -- N / interval / allocator / granularity
     dune exec bench/main.exe -- reloc     -- §3.5 relocation-table ABIs
     dune exec bench/main.exe -- adaptive  -- §8 adaptive re-randomization
     dune exec bench/main.exe -- predictor -- §8 predictor structure
     dune exec bench/main.exe -- faults    -- supervised campaigns under faults

   Environment knobs: STZ_RUNS (default 30) and STZ_SCALE (default 1.0)
   shrink the experiments for quick passes; SZC_JOBS (default 1) fans
   sample collection and campaigns out over forked workers — outputs
   are bit-identical whatever the worker count. *)

module S = Stabilizer
module W = Stz_workloads
module Stats = Stz_stats
module Opt = Stz_vm.Opt

let runs =
  match Sys.getenv_opt "STZ_RUNS" with Some s -> int_of_string s | None -> 30

let scale =
  match Sys.getenv_opt "STZ_SCALE" with Some s -> float_of_string s | None -> 1.0

let jobs =
  match Sys.getenv_opt "SZC_JOBS" with Some s -> int_of_string s | None -> 1

let args = W.Generate.default_args
let alpha = 0.05

let suite = List.map (fun p -> W.Profile.scale scale p) W.Spec.all

let progress fmt = Printf.eprintf fmt

let heading title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '=') title (String.make 78 '=')

let mean = Stats.Desc.mean

(* ------------------------------------------------------------------ *)
(* Shared sample collection (memoized across experiments)              *)
(* ------------------------------------------------------------------ *)

type bench_samples = {
  prof : W.Profile.t;
  base_link : float array;  (** unrandomized, random link order *)
  code : float array;
  code_stack : float array;
  one_time : float array;  (** full randomization, no re-randomization *)
  full : float array;  (** full randomization with re-randomization *)
  o1 : float array;  (** O1/O2/O3 under full randomization *)
  o2 : float array;
  o3 : float array;
}

let collect_bench prof =
  progress "  sampling %-12s (%d runs x 8 configurations)...\n%!"
    prof.W.Profile.name runs;
  let p = W.Generate.program prof in
  let sample ?(opt = Opt.O2) config seed =
    (S.Driver.build_and_run ~jobs ~config ~opt ~base_seed:seed ~runs ~args p)
      .S.Sample.times
  in
  {
    prof;
    base_link =
      sample { S.Config.baseline with link_order = S.Config.Random_link } 1L;
    code = sample S.Config.code_only 2L;
    code_stack = sample S.Config.code_stack 3L;
    one_time = sample S.Config.one_time 4L;
    full = sample S.Config.stabilizer 5L;
    o1 = sample ~opt:Opt.O1 S.Config.stabilizer 6L;
    o2 = sample ~opt:Opt.O2 S.Config.stabilizer 7L;
    o3 = sample ~opt:Opt.O3 S.Config.stabilizer 8L;
  }

let all_samples = lazy (List.map collect_bench suite)

(* ------------------------------------------------------------------ *)
(* E1: §3.2 NIST randomness table                                      *)
(* ------------------------------------------------------------------ *)

let run_nist () =
  heading "E1  NIST SP 800-22 on heap-address index bits (paper §3.2)";
  print_endline
    "Paper: lrand48 and DieHard pass six of seven tests (all but Rank);\n\
     the shuffled heap with N = 256 passes the same tests. Each subject\n\
     is tested on the index-bit window it can randomize (see DESIGN.md).\n";
  List.iter
    (fun r -> Format.printf "%a@." S.Heap_randomness.pp_report r)
    (S.Heap_randomness.table ~seed:1L ());
  print_endline
    "\nShape check: pass counts rise monotonically with N; N >= 64 covers\n\
     every cache index bit of the simulated machine and passes 7/7."

(* ------------------------------------------------------------------ *)
(* E2: Table 1 (Shapiro-Wilk / Brown-Forsythe) + Figure 5 (QQ)         *)
(* ------------------------------------------------------------------ *)

let run_normality () =
  heading "E2  Normality of execution times: Table 1 and Figure 5";
  print_endline
    "Paper: without re-randomization 5 of 18 benchmarks fail Shapiro-Wilk\n\
     (astar, cactusADM, gromacs, h264ref, perlbench); with re-randomization\n\
     all recover except cactusADM (hmmer becomes non-normal). Brown-Forsythe\n\
     finds significantly lower variance for 8 benchmarks, higher for 2.\n";
  Printf.printf "%-12s | %10s %10s | %10s %8s | %s\n" "benchmark" "SW p (1x)"
    "SW p (re)" "BF p" "variance" "QQ corr (1x / re)";
  Printf.printf "%s\n" (String.make 78 '-');
  let one_non = ref 0 and re_non = ref 0 in
  let bf_dec = ref 0 and bf_inc = ref 0 in
  List.iter
    (fun b ->
      let sw1 = (Stats.Shapiro.test b.one_time).Stats.Shapiro.p_value in
      let sw2 = (Stats.Shapiro.test b.full).Stats.Shapiro.p_value in
      let bf = (Stats.Levene.brown_forsythe [ b.one_time; b.full ]).Stats.Levene.p_value in
      let decreased = Stats.Desc.variance b.full < Stats.Desc.variance b.one_time in
      if sw1 < alpha then incr one_non;
      if sw2 < alpha then incr re_non;
      if bf < alpha then if decreased then incr bf_dec else incr bf_inc;
      Printf.printf "%-12s | %10.4f %10.4f | %10.4f %8s | %.4f / %.4f\n"
        b.prof.W.Profile.name sw1 sw2 bf
        ((if decreased then "dec" else "inc") ^ if bf < alpha then "*" else "")
        (Stats.Qq.correlation b.one_time)
        (Stats.Qq.correlation b.full))
    (Lazy.force all_samples);
  Printf.printf "%s\n" (String.make 78 '-');
  Printf.printf
    "measured: %d/18 non-normal one-time -> %d/18 non-normal re-randomized\n"
    !one_non !re_non;
  Printf.printf
    "          variance significantly decreased for %d, increased for %d\n"
    !bf_dec !bf_inc;
  Printf.printf "paper:    5/18 -> 2/18; decreased for 8, increased for 2\n";
  (* Figure 5, two representative QQ plots. *)
  List.iter
    (fun name ->
      match
        List.find_opt
          (fun b -> b.prof.W.Profile.name = name)
          (Lazy.force all_samples)
      with
      | None -> ()
      | Some b ->
          let sd = Stats.Desc.std_dev b.full in
          let plot label xs =
            Printf.printf "\nFigure 5 (%s, %s): QQ plot vs normal\n" name label;
            print_string
              (Stats.Qq.ascii_plot ~width:56 ~height:14
                 (Stats.Qq.points ~shift:(mean xs) ~scale:sd xs))
          in
          plot "one-time randomization" b.one_time;
          plot "re-randomization" b.full)
    [ "astar"; "cactusADM" ]

(* ------------------------------------------------------------------ *)
(* E3: Figure 6 overhead                                               *)
(* ------------------------------------------------------------------ *)

let run_overhead () =
  heading "E3  Overhead of STABILIZER relative to randomized link order (Fig 6)";
  print_endline
    "Paper: median overhead 6.7% with all randomizations; below 40% for all\n\
     benchmarks; gobmk/gcc/perlbench worst (many functions -> stack tables);\n\
     cactusADM dominated by heap randomization (power-of-two rounding waste);\n\
     a few benchmarks run slightly faster with code randomization (branch\n\
     aliasing removal).\n";
  Printf.printf "%-12s | %8s %12s %16s\n" "benchmark" "code" "code.stack"
    "code.heap.stack";
  Printf.printf "%s\n" (String.make 58 '-');
  let all = Lazy.force all_samples in
  let overheads =
    List.map
      (fun b ->
        let base = mean b.base_link in
        let ov xs = 100.0 *. ((mean xs /. base) -. 1.0) in
        let o_code = ov b.code and o_cs = ov b.code_stack and o_full = ov b.full in
        Printf.printf "%-12s | %7.1f%% %11.1f%% %15.1f%%\n" b.prof.W.Profile.name
          o_code o_cs o_full;
        (b.prof.W.Profile.name, o_code, o_full))
      all
  in
  Printf.printf "%s\n" (String.make 58 '-');
  let fulls = List.map (fun (_, _, f) -> f) overheads in
  let med = Stats.Desc.median (Array.of_list fulls) in
  Printf.printf "measured: median %.1f%%, max %.1f%%\n" med
    (List.fold_left max neg_infinity fulls);
  Printf.printf "paper:    median 6.7%%, all below 40%%\n";
  (match List.filter (fun (_, c, _) -> c < 0.0) overheads with
  | [] -> ()
  | faster ->
      Printf.printf "code randomization speedups (paper: astar/hmmer/mcf/namd): %s\n"
        (String.concat ", " (List.map (fun (n, _, _) -> n) faster)))

(* ------------------------------------------------------------------ *)
(* E4: Figure 7 speedups per benchmark                                 *)
(* ------------------------------------------------------------------ *)

let figure7_row b =
  let eval a bb =
    let c = S.Experiment.compare_samples ~alpha a bb in
    (c.S.Experiment.speedup, c.S.Experiment.significant, c.S.Experiment.used_ttest)
  in
  (eval b.o1 b.o2, eval b.o2 b.o3)

let run_optimizations () =
  heading "E4  Impact of optimization levels under STABILIZER (Figure 7)";
  print_endline
    "Paper: 17 of 18 benchmarks show a statistically significant change from\n\
     -O2 vs -O1 (three of them slowdowns); 9 of 18 for -O3 vs -O2 (three\n\
     slowdowns). Speedup > 1 means the higher level is faster; * marks 95%\n\
     significance; t/W marks t-test vs Wilcoxon (used when normality fails).\n";
  Printf.printf "%-12s | %-18s | %-18s\n" "benchmark" "O2 vs O1" "O3 vs O2";
  Printf.printf "%s\n" (String.make 56 '-');
  let sig_o2 = ref 0 and sig_o3 = ref 0 in
  let slow_o2 = ref 0 and slow_o3 = ref 0 in
  List.iter
    (fun b ->
      let (s2, g2, t2), (s3, g3, t3) = figure7_row b in
      if g2 then incr sig_o2;
      if g3 then incr sig_o3;
      if g2 && s2 < 1.0 then incr slow_o2;
      if g3 && s3 < 1.0 then incr slow_o3;
      let cell s g t =
        Printf.sprintf "%6.3fx %s%s" s (if t then "t" else "W") (if g then " *" else "")
      in
      Printf.printf "%-12s | %-18s | %-18s\n" b.prof.W.Profile.name (cell s2 g2 t2)
        (cell s3 g3 t3))
    (Lazy.force all_samples);
  Printf.printf "%s\n" (String.make 56 '-');
  Printf.printf
    "measured: O2 significant for %d/18 (%d slowdowns); O3 for %d/18 (%d slowdowns)\n"
    !sig_o2 !slow_o2 !sig_o3 !slow_o3;
  Printf.printf "paper:    O2 17/18 (3 slowdowns); O3 9/18 (3 slowdowns)\n"

(* ------------------------------------------------------------------ *)
(* E5: §6.1 ANOVA                                                      *)
(* ------------------------------------------------------------------ *)

let run_anova () =
  heading "E5  Suite-wide analysis of variance (paper §6.1)";
  print_endline
    "Paper: one-way within-subjects ANOVA over all benchmarks. O2 vs O1:\n\
     F(1) = 3.235, p = 0.0898 -> significant only at 90%, not 95%. O3 vs O2:\n\
     F(1) = 1.335, p = 0.2534 -> not significant: indistinguishable from noise.\n";
  let all = Lazy.force all_samples in
  let eval label extract =
    let pairs = Array.of_list (List.map extract all) in
    let r = S.Experiment.suite_anova pairs in
    Printf.printf "%-10s %s  eta^2 = %.3f -> %s\n" label (Stats.Anova.to_string r)
      r.Stats.Anova.eta_squared
      (if r.Stats.Anova.p_value < 0.05 then "significant at 95%"
       else if r.Stats.Anova.p_value < 0.10 then "significant only at 90%"
       else "NOT significant");
    r
  in
  let r2 = eval "O2 vs O1:" (fun b -> (b.o1, b.o2)) in
  let r3 = eval "O3 vs O2:" (fun b -> (b.o2, b.o3)) in
  Printf.printf
    "\nshape check: p(O3 vs O2) = %.3f should exceed p(O2 vs O1) = %.3f -> %s\n"
    r3.Stats.Anova.p_value r2.Stats.Anova.p_value
    (if r3.Stats.Anova.p_value > r2.Stats.Anova.p_value then "holds" else "VIOLATED")

(* ------------------------------------------------------------------ *)
(* E6: measurement bias                                                *)
(* ------------------------------------------------------------------ *)

let run_bias () =
  heading "E6  Layout-induced measurement bias without STABILIZER (paper §1)";
  print_endline
    "Paper: changing the link order of object files alone can change\n\
     performance by up to 57%; Mytkowicz et al. report up to 300% from\n\
     environment size. Below, the same program under permuted link\n\
     orders and varying environment blocks, unrandomized.\n";
  let p = W.Pathological.program () in
  let cycles_with config seed =
    (S.Runtime.run ~config ~seed p ~args:W.Pathological.default_args)
      .S.Runtime.cycles
  in
  let n_orders = 24 in
  let link =
    List.init n_orders (fun i ->
        cycles_with
          { S.Config.baseline with link_order = S.Config.Random_link }
          (Int64.of_int (i + 1)))
  in
  let mn = List.fold_left min (List.hd link) link in
  let mx = List.fold_left max (List.hd link) link in
  Printf.printf "link orders (%d permutations): min %d, max %d cycles\n" n_orders mn mx;
  Printf.printf "  -> swing %.1f%%  (paper observed up to 57%%)\n"
    (100.0 *. float_of_int (mx - mn) /. float_of_int mn);
  (* The environment effect needs data-cache traffic against the stack:
     use a data-heavy benchmark rather than the code-bound stress one. *)
  let env_p = W.Generate.program (List.nth suite 7 (* hmmer *)) in
  let envs = [ 0; 1040; 2080; 3120; 4160; 5200; 6240; 7280 ] in
  let env_cycles =
    List.map
      (fun e ->
        (S.Runtime.run ~config:{ S.Config.baseline with env_bytes = e } ~seed:1L
           env_p ~args)
          .S.Runtime.cycles)
      envs
  in
  let emn = List.fold_left min (List.hd env_cycles) env_cycles in
  let emx = List.fold_left max (List.hd env_cycles) env_cycles in
  Printf.printf "environment sizes (%d settings):   min %d, max %d cycles\n"
    (List.length envs) emn emx;
  Printf.printf "  -> swing %.1f%%\n"
    (100.0 *. float_of_int (emx - emn) /. float_of_int emn);
  (* And the cure: the same program under STABILIZER, two different
     "builds" (seeds), is statistically indistinguishable. *)
  let a = S.Sample.times ~config:S.Config.stabilizer ~base_seed:100L ~runs:20 ~args:[ 1 ] p in
  let b = S.Sample.times ~config:S.Config.stabilizer ~base_seed:200L ~runs:20 ~args:[ 1 ] p in
  let c = S.Experiment.compare_samples a b in
  Printf.printf "under STABILIZER the bias disappears: %s\n" (S.Experiment.describe c)

(* ------------------------------------------------------------------ *)
(* Table 2: related-work feature matrix                                *)
(* ------------------------------------------------------------------ *)

let run_table2 () =
  heading "Table 2  Prior work in layout randomization";
  let rows =
    [
      ("ASLR / PaX", "-", "base", "base", "no recompilation", false);
      ("Transparent Runtime Rand.", "base", "base", "base", "dynamic", false);
      ("Address Space Layout Perm.", "base", "base", "base", "recompilation", false);
      ("Address Obfuscation", "partial", "yes", "yes", "dynamic", false);
      ("Dynamic Offset Rand.", "partial", "yes", "-", "dynamic", false);
      ("Bhatkar et al.", "yes", "yes", "yes", "recompilation", false);
      ("DieHard", "-", "-", "fine", "dynamic", false);
      ("STABILIZER (this repo)", "fine", "fine", "fine", "recompilation+dynamic", true);
    ]
  in
  Printf.printf "%-28s %-9s %-7s %-7s %-24s %s\n" "system" "code" "stack" "heap"
    "implementation" "re-rand";
  Printf.printf "%s\n" (String.make 84 '-');
  List.iter
    (fun (name, code, stack, heap, impl, rr) ->
      Printf.printf "%-28s %-9s %-7s %-7s %-24s %s\n" name code stack heap impl
        (if rr then "yes" else "no"))
    rows

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let run_ablations () =
  heading "A1  Shuffling parameter N: overhead vs randomness";
  let prof = List.nth suite 0 (* astar *) in
  let p = W.Generate.program prof in
  let base =
    mean
      (S.Sample.times
         ~config:{ S.Config.baseline with link_order = S.Config.Random_link }
         ~base_seed:1L ~runs:(max 5 (runs / 3)) ~args p)
  in
  List.iter
    (fun n ->
      let t =
        mean
          (S.Sample.times
             ~config:{ S.Config.stabilizer with shuffle_n = n }
             ~base_seed:2L ~runs:(max 5 (runs / 3)) ~args p)
      in
      let rand = S.Heap_randomness.shuffled ~n ~seed:1L Stz_alloc.Allocator.Segregated in
      Printf.printf "N = %4d: overhead %5.1f%%, NIST %d/%d on bits %d-%d\n" n
        (100.0 *. ((t /. base) -. 1.0))
        rand.S.Heap_randomness.passed rand.S.Heap_randomness.total
        rand.S.Heap_randomness.lo_bit rand.S.Heap_randomness.hi_bit)
    [ 1; 16; 256; 1024 ];

  heading "A2  Re-randomization interval: normality vs overhead (§4 made quantitative)";
  List.iter
    (fun interval ->
      let config = { S.Config.stabilizer with interval_cycles = interval } in
      let s = S.Sample.collect ~config ~base_seed:3L ~runs:(max 10 runs) ~args p in
      let sw = (Stats.Shapiro.test s.S.Sample.times).Stats.Shapiro.p_value in
      let epochs = s.S.Sample.results.(0).S.Runtime.epochs in
      Printf.printf
        "interval %8d cycles (%3d epochs): overhead %5.1f%%, Shapiro-Wilk p = %.3f\n"
        interval epochs
        (100.0 *. ((mean s.S.Sample.times /. base) -. 1.0))
        sw)
    [ 30_000; 150_000; 600_000; 3_000_000 ];

  heading "A3  Base allocator under the shuffling layer";
  List.iter
    (fun kind ->
      let config = { S.Config.stabilizer with base_allocator = kind } in
      let s = S.Sample.collect ~config ~base_seed:4L ~runs:(max 5 (runs / 3)) ~args p in
      let hs = s.S.Sample.results.(0).S.Runtime.heap_stats in
      Printf.printf "%-12s overhead %5.1f%%, heap reserved/live = %.2f\n"
        (Stz_alloc.Allocator.kind_to_string kind)
        (100.0 *. ((mean s.S.Sample.times /. base) -. 1.0))
        (float_of_int hs.Stz_alloc.Allocator.reserved_bytes
        /. float_of_int (max 1 hs.Stz_alloc.Allocator.live_bytes)))
    [ Stz_alloc.Allocator.Segregated; Stz_alloc.Allocator.Tlsf; Stz_alloc.Allocator.Diehard ];

  heading "A4  Code granularity: function vs basic block (paper §8 future work)";
  List.iter
    (fun (label, granularity) ->
      let config = { S.Config.stabilizer with granularity } in
      let s = S.Sample.collect ~config ~base_seed:5L ~runs:(max 10 runs) ~args p in
      let sw = (Stats.Shapiro.test s.S.Sample.times).Stats.Shapiro.p_value in
      Printf.printf "%-14s overhead %5.1f%%, Shapiro-Wilk p = %.3f, relocations %d\n"
        label
        (100.0 *. ((mean s.S.Sample.times /. base) -. 1.0))
        sw
        s.S.Sample.results.(0).S.Runtime.relocations)
    [
      ("function", Stz_layout.Code_rand.Function_grain);
      ("basic block", Stz_layout.Code_rand.Block_grain);
    ]

(* ------------------------------------------------------------------ *)
(* A6: relocation-table ABI (paper §3.5)                               *)
(* ------------------------------------------------------------------ *)

let run_reloc_styles () =
  heading "A6  Relocation-table ABI: x86-64 adjacent vs PowerPC/x86-32 fixed (§3.5)";
  print_endline
    "Adjacent tables move with every copy and charge one indirection per\n\
     global reference; fixed tables never move and are used for calls only.\n";
  let prof = List.nth suite 7 (* hmmer: global-heavy *) in
  let p = W.Generate.program prof in
  let n = max 8 (runs / 3) in
  let base =
    mean
      (S.Sample.times
         ~config:{ S.Config.baseline with link_order = S.Config.Random_link }
         ~base_seed:1L ~runs:n ~args p)
  in
  List.iter
    (fun (label, reloc_style) ->
      let t =
        mean
          (S.Sample.times
             ~config:{ S.Config.stabilizer with reloc_style }
             ~base_seed:2L ~runs:n ~args p)
      in
      Printf.printf "%-26s overhead %5.1f%%\n" label (100.0 *. ((t /. base) -. 1.0)))
    [
      ("adjacent (x86-64)", Stz_layout.Code_rand.Adjacent_table);
      ("fixed (PowerPC/x86-32)", Stz_layout.Code_rand.Fixed_table);
    ]

(* ------------------------------------------------------------------ *)
(* A5: adaptive re-randomization (paper §8, second part)               *)
(* ------------------------------------------------------------------ *)

let run_adaptive () =
  heading "A5  Adaptive re-randomization (paper §8: escape unlucky layouts)";
  print_endline
    "The paper sketches using performance counters to detect layout-induced\n\
     problems and re-randomize in response. Here: timer-only vs timer+adaptive\n\
     on the layout-sensitive stress program, one-time randomization as the\n\
     worst case. Adaptive mode should cut the worst-case (unlucky-layout)\n\
     runs without raising the median much.\n";
  let p = W.Pathological.program () in
  let n = max 20 runs in
  let sample config =
    S.Sample.collect ~config ~base_seed:42L ~runs:n ~args:[ 1 ] p
  in
  let report label (s : S.Sample.t) =
    let ts = s.S.Sample.times in
    let triggers =
      Array.fold_left (fun a r -> a + r.S.Runtime.adaptive_triggers) 0 s.S.Sample.results
    in
    Printf.printf "%-22s median %.6f s  p95 %.6f s  worst %.6f s  adaptive fires %d\n"
      label (Stats.Desc.median ts) (Stats.Desc.quantile ts 0.95) (Stats.Desc.max ts)
      triggers;
    ts
  in
  let one = report "one-time" (sample S.Config.one_time) in
  let timer = report "timer (500ms-equiv)" (sample S.Config.stabilizer) in
  let adaptive =
    report "timer + adaptive"
      (sample { S.Config.stabilizer with adaptive = true; adaptive_threshold = 1.3 })
  in
  Printf.printf "\nworst-case vs one-time: timer %.1f%%, adaptive %.1f%%\n"
    (100.0 *. (Stats.Desc.max timer /. Stats.Desc.max one -. 1.0))
    (100.0 *. (Stats.Desc.max adaptive /. Stats.Desc.max one -. 1.0))

(* ------------------------------------------------------------------ *)
(* A7: predictor structure vs code granularity (paper §8)              *)
(* ------------------------------------------------------------------ *)

let run_predictor_ablation () =
  heading
    "A7  Branch predictor structure x randomization granularity (paper §8)";
  print_endline
    "§8 argues block-level randomization with branch-sense swapping would\n\
     randomize the history-indexed part of the predictor too. Mispredictions\n\
     per 1k branches under bimodal vs gshare, function vs block granularity:\n";
  let prof = List.nth suite 14 (* sjeng: branchy *) in
  let p = W.Generate.program prof in
  let n = max 6 (runs / 5) in
  List.iter
    (fun (mlabel, kind) ->
      List.iter
        (fun (glabel, granularity) ->
          let mispreds = ref 0 and branches = ref 0 and cycles = ref 0 in
          for i = 1 to n do
            let r =
              S.Runtime.run
                ~machine_factory:(fun () ->
                  Stz_machine.Hierarchy.create ~predictor_kind:kind ())
                ~config:{ S.Config.stabilizer with granularity }
                ~seed:(Int64.of_int i) p ~args
            in
            mispreds :=
              !mispreds + r.S.Runtime.counters.Stz_machine.Hierarchy.branch_mispredictions;
            branches := !branches + r.S.Runtime.counters.Stz_machine.Hierarchy.branches;
            cycles := !cycles + r.S.Runtime.cycles
          done;
          Printf.printf "%-8s / %-12s: %6.1f mispredictions per 1k branches\n"
            mlabel glabel
            (1000.0 *. float_of_int !mispreds /. float_of_int (max 1 !branches)))
        [
          ("function", Stz_layout.Code_rand.Function_grain);
          ("block", Stz_layout.Code_rand.Block_grain);
        ])
    [ ("bimodal", Stz_machine.Branch.Bimodal); ("gshare", Stz_machine.Branch.Gshare 8) ]

(* ------------------------------------------------------------------ *)
(* E7: supervised campaigns under fault injection                      *)
(* ------------------------------------------------------------------ *)

let run_faults () =
  heading "E7 Supervised campaigns under fault injection";
  Printf.printf
    "Per benchmark and fault profile: surviving sample after bounded retry\n\
     and quarantine, censored runs by final class, and whether the min-N\n\
     gate still admits a verdict against a clean campaign of equal size.\n\n";
  let module F = Stz_faults.Fault in
  let profiles = [ ("none", F.none); ("light", F.light); ("heavy", F.heavy) ] in
  let min_n = max 3 (runs / 3) in
  Printf.printf "%-12s %-6s | %9s %7s %7s %7s | %s\n" "benchmark" "faults"
    "completed" "retried" "quarant" "censord" "verdict vs clean";
  List.iter
    (fun prof ->
      let p = W.Generate.program prof in
      let clean =
        S.Driver.campaign ~jobs ~config:S.Config.stabilizer ~opt:Opt.O2
          ~base_seed:1L ~runs ~args p
      in
      List.iter
        (fun (name, profile) ->
          let c =
            S.Driver.campaign ~jobs ~profile ~config:S.Config.stabilizer
              ~opt:Opt.O2 ~base_seed:2L ~runs ~args p
          in
          let s = S.Supervisor.summarize c in
          let verdict =
            S.Experiment.describe_gated (S.Supervisor.verdict ~min_n clean c)
          in
          Printf.printf "%-12s %-6s | %5d/%3d %7d %7d %7d | %s\n"
            prof.W.Profile.name name s.S.Supervisor.completed
            s.S.Supervisor.runs s.S.Supervisor.retried_runs
            s.S.Supervisor.quarantined s.S.Supervisor.censored verdict;
          progress "#%!")
        profiles;
      Printf.printf "\n")
    (match suite with a :: b :: c :: _ -> [ a; b; c ] | s -> s);
  progress "\n%!"

(* ------------------------------------------------------------------ *)
(* main                                                                *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe [nist|normality|overhead|optimizations|anova|bias|table2|\
     ablations|reloc|adaptive|predictor|faults|all]";
  exit 1

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let t0 = Unix.gettimeofday () in
  (match which with
  | "nist" -> run_nist ()
  | "normality" -> run_normality ()
  | "overhead" -> run_overhead ()
  | "optimizations" -> run_optimizations ()
  | "anova" -> run_anova ()
  | "bias" -> run_bias ()
  | "table2" -> run_table2 ()
  | "ablations" -> run_ablations ()
  | "reloc" -> run_reloc_styles ()
  | "predictor" -> run_predictor_ablation ()
  | "adaptive" -> run_adaptive ()
  | "faults" -> run_faults ()
  | "all" ->
      run_nist ();
      run_bias ();
      run_normality ();
      run_overhead ();
      run_optimizations ();
      run_anova ();
      run_table2 ();
      run_ablations ();
      run_reloc_styles ();
      run_adaptive ();
      run_predictor_ablation ();
      run_faults ()
  | _ -> usage ());
  Printf.eprintf "\n[bench completed in %.1f s]\n" (Unix.gettimeofday () -. t0)
