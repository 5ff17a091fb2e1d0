(* The three workloads. Each has two forms:

   - [real]: one pass through the library entry point a user reaches
     through szc ([Driver.campaign], [Explain.run], [Fuzzer.run_campaign]).
     The end-to-end metrics time this form, untraced.
   - [recompose]: the same units rebuilt from each layer's public
     functions ([Generate], [Opt.apply], [Validate], [Runtime.run] with
     [~env_wrap]/[~machine_factory], [Parallel.map], [Supervisor.save],
     [Fuzzlog.append], [Anova]), so the benchmark can put a span around
     every layer call. Its per-unit outputs must equal the real form's.

   A unit is a campaign run, an explain matrix cell or a fuzz case. *)

module S = Stabilizer
module W = Stz_workloads
module F = Stz_workloads.Fuzz
module Ir = Stz_vm.Ir
module Opt = Stz_vm.Opt
module Validate = Stz_vm.Validate
module Hierarchy = Stz_machine.Hierarchy
module Runtime = S.Runtime
module Parallel = S.Parallel
module Supervisor = S.Supervisor
module Fuzzlog = Stz_store.Fuzzlog
module Artifact = Stz_store.Artifact
module Explain = Stz_attrib.Explain

let jobs = 2

type size = {
  campaign_runs : int;
  campaign_scale : float;
  explain_seeds : int;
  explain_variants : int;
  explain_scale : float;
  fuzz_cases : int;
}

let full =
  {
    campaign_runs = 24;
    campaign_scale = 1.0;
    explain_seeds = 8;
    explain_variants = 4;
    explain_scale = 1.0;
    fuzz_cases = 400;
  }

let tiny =
  {
    campaign_runs = 7;
    campaign_scale = 0.02;
    explain_seeds = 2;
    explain_variants = 2;
    explain_scale = 0.05;
    fuzz_cases = 6;
  }

(* One pass: a fingerprint per unit, compared across passes, and the
   simulated instructions retired (0 where the entry point hides
   them). A unit that failed its own check (censored, wrong result)
   has a fingerprint starting with ['!']. *)
type pass = { prints : string array; instructions : int }

let bad s = "!" ^ s
let failed_print s = String.length s > 0 && s.[0] = '!'

type t = {
  unit_name : string;
  setup : unit -> unit;
      (** everything before the first unit: generation, compile and
          validate, a fresh machine, the output directory *)
  real : input:int -> timed:((unit -> unit) -> unit) -> pass;
      (** one pass over input set [input]; [timed] brackets exactly the
          entry-point call *)
  inputs : int -> int;
      (** the input set pass [k] uses: passes over the same set must
          produce the same outputs *)
  recompose : unit -> pass;
  probe : armed:bool -> unit;
      (** one representative unit run on a dark or attribution-armed
          machine, for [attrib.armed_ratio] *)
  extras : unit -> (string * float * string) list;
      (** figures only this workload has, from its last real pass *)
}

(* ------------------------------------------------------------------ *)
(* Layer accounting shared by the recompositions                       *)
(* ------------------------------------------------------------------ *)

type totals = {
  mutable instr : int;
  mutable counters : Hierarchy.counters;
  mutable relocations : int;
  mutable epochs : int;
}

let totals () =
  { instr = 0; counters = Hierarchy.counters_zero; relocations = 0; epochs = 0 }

let run_totals = ref (totals ())

let add_totals into (t : totals) =
  into.instr <- into.instr + t.instr;
  into.counters <- Hierarchy.counters_add into.counters t.counters;
  into.relocations <- into.relocations + t.relocations;
  into.epochs <- into.epochs + t.epochs

(* Pool, GC and store figures of one recomposed pass. *)
type stats = {
  mutable tasks : int;
  mutable result_bytes : int;
  mutable busy_s : float;
  mutable map_s : float;
  mutable done_at : float list;
  mutable minor_words : float;
  mutable major : int;
  mutable store_writes : int;
  mutable store_bytes : int;
}

let fresh_stats () =
  {
    tasks = 0;
    result_bytes = 0;
    busy_s = 0.0;
    map_s = 0.0;
    done_at = [];
    minor_words = 0.0;
    major = 0;
    store_writes = 0;
    store_bytes = 0;
  }

let stats = ref (fresh_stats ())

(* Reset before a recomposed pass; read after it. *)
let reset_layers () =
  run_totals := totals ();
  stats := fresh_stats ()

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* A durable store write, counted and spanned. An append adds to the
   file; any other write replaces it. *)
let store ?(append = false) name path f =
  let before = if append then file_size path else 0 in
  Spans.with_span name f;
  let st = !stats in
  st.store_writes <- st.store_writes + 1;
  st.store_bytes <- st.store_bytes + file_size path - before

(* [Runtime.run] with the machine factory and the environment timed.
   Completed runs add to the process's run totals. *)
let run_vm ?limits ?(armed = false) ~config ~seed (p : Ir.program) ~args =
  let a = Spans.accum () in
  let captured = ref None in
  let machine_factory () =
    Spans.with_span "machine.create" (fun () ->
        let m = Hierarchy.create () in
        if armed then Hierarchy.arm_attrib m ~funcs:(Array.length p.Ir.funcs);
        captured := Some m;
        m)
  in
  let env_wrap = if !Spans.enabled then Some (Spans.wrap_env a) else None in
  let r =
    Spans.with_span "vm.run" ~hidden:(Spans.hidden_of a) (fun () ->
        Runtime.run ?limits ~machine_factory ?env_wrap ~config ~seed p ~args)
  in
  let t = !run_totals in
  t.instr <- t.instr + r.Runtime.counters.Hierarchy.instructions;
  t.counters <- Hierarchy.counters_add t.counters r.Runtime.counters;
  t.relocations <- t.relocations + r.Runtime.relocations;
  t.epochs <- t.epochs + r.Runtime.epochs;
  (r, !captured)

(* [Parallel.map] over [n] units with [jobs] workers and the watchdog
   on (so every task crosses a fork, as in the real entry points).
   [f] runs in a worker; [deliver i v] runs in this process in unit
   order, [None] for a lost or hung task. Worker spans, run totals and
   GC deltas travel back with each result. *)
let pool_map ~n ~f ~deliver =
  let task i =
    let saved = !run_totals in
    run_totals := totals ();
    let g0 = Gc.quick_stat () in
    let t0 = Spans.now () in
    let v, sp =
      Spans.isolated (fun () -> Spans.with_span "parallel.task" (fun () -> f i))
    in
    let busy = Spans.now () -. t0 in
    let g1 = Gc.quick_stat () in
    let tot = !run_totals in
    run_totals := saved;
    ( v,
      sp,
      tot,
      busy,
      g1.Gc.minor_words -. g0.Gc.minor_words,
      g1.Gc.major_collections - g0.Gc.major_collections )
  in
  let st = !stats in
  let pending = Array.make n None in
  let next = ref 0 in
  let flush () =
    while !next < n && pending.(!next) <> None do
      (match pending.(!next) with Some v -> deliver !next v | None -> ());
      incr next
    done
  in
  let on_result i r =
    let v =
      match r with
      | Parallel.Value (v, sp, tot, busy, minor, major) ->
          st.tasks <- st.tasks + 1;
          if !Spans.enabled then
            st.result_bytes <-
              st.result_bytes + String.length (Marshal.to_string v []);
          st.busy_s <- st.busy_s +. busy;
          st.minor_words <- st.minor_words +. minor;
          st.major <- st.major + major;
          add_totals !run_totals tot;
          Spans.adopt ~lane:(1 + (i mod jobs)) sp;
          Some v
      | Parallel.Lost | Parallel.Hung -> None
    in
    pending.(i) <- Some v;
    flush ()
  in
  let on_pool_event = function
    | Parallel.Worker_done _ -> st.done_at <- Spans.now () :: st.done_at
    | _ -> ()
  in
  let t0 = Spans.now () in
  Spans.with_span "parallel.map" (fun () ->
      ignore
        (Parallel.map ~on_result ~on_pool_event ~watchdog:120.0 ~jobs ~f:task n));
  st.map_s <- st.map_s +. (Spans.now () -. t0)

let compile lvl p =
  let c = Spans.with_span "vm.opt" (fun () -> Opt.apply lvl p) in
  Spans.with_span "vm.validate" (fun () -> Validate.check_exn c);
  c

let generate prof = Spans.with_span "workloads.generate" (fun () -> W.Generate.program prof)

let profile name scale =
  match W.Spec.find name with
  | Some p -> W.Profile.scale scale p
  | None -> invalid_arg ("unknown SPEC clone " ^ name)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let counters_print (c : Hierarchy.counters) =
  String.concat ","
    (List.map (fun (_, v) -> string_of_int v) (Hierarchy.counters_fields c))

(* ------------------------------------------------------------------ *)
(* campaign-perlbench                                                  *)
(* ------------------------------------------------------------------ *)

(* What a completed run must reproduce, in the real pass and in the
   recomposition alike. *)
let run_print ~cycles ~value ~counters ~relocations ~epochs =
  Printf.sprintf "%d/%d/%s/%d/%d" cycles value (counters_print counters)
    relocations epochs

let campaign ~size ~seed ~tmp ~plant =
  let prof = profile "perlbench" size.campaign_scale in
  let base_seed = Int64.of_int seed in
  let runs = size.campaign_runs in
  let args = W.Generate.default_args in
  let config = S.Config.stabilizer in
  let p = W.Generate.program prof in
  (* The output check's reference: the O0 build without any
     randomization. Layout and optimization never change results. *)
  let reference =
    let o0 = S.Driver.compile ~opt:Opt.O0 p in
    (Runtime.run ~config:S.Config.baseline ~seed:base_seed o0 ~args)
      .Runtime.return_value
    + if plant then 1 else 0
  in
  let ckpt = Filename.concat tmp "campaign.ckpt" in
  let serial_head = ref nan in
  let setup () =
    mkdir_p (Filename.concat tmp "setup");
    ignore (S.Driver.compile ~opt:Opt.O2 (W.Generate.program prof));
    ignore (Hierarchy.create ())
  in
  let real ~input:_ ~timed =
    let c = ref None in
    let t0 = ref 0.0 in
    let last_head_run = Supervisor.default_policy.Supervisor.calibration_runs - 1 in
    timed (fun () ->
        t0 := Spans.now ();
        c :=
          Some
            (S.Driver.campaign ~jobs ~checkpoint:ckpt
               ~on_record:(fun r ->
                 if r.Supervisor.run = last_head_run then
                   serial_head := Spans.now () -. !t0)
               ~config ~opt:Opt.O2 ~base_seed ~runs ~args p));
    let c = Option.get !c in
    let instructions = ref 0 in
    let prints = Array.make runs (bad "lost") in
    List.iter
      (fun (r : Supervisor.record) ->
        prints.(r.Supervisor.run) <-
          (match r.Supervisor.outcome with
          | Supervisor.Done d when d.Supervisor.return_value = reference ->
              instructions := !instructions + d.Supervisor.instructions;
              run_print ~cycles:d.Supervisor.cycles ~value:d.Supervisor.return_value
                ~counters:d.Supervisor.counters ~relocations:d.Supervisor.relocations
                ~epochs:d.Supervisor.epochs
          | o -> bad (Supervisor.stored_tag o)))
      c.Supervisor.records;
    { prints; instructions = !instructions }
  in
  let recompose () =
    let c = compile Opt.O2 (generate prof) in
    let seeds = S.Sample.seeds ~base_seed ~runs in
    let records = ref [] in
    let prints = Array.make runs (bad "lost") in
    let rckpt = Filename.concat tmp "recompose.ckpt" in
    pool_map ~n:runs
      ~f:(fun i ->
        match run_vm ~config ~seed:seeds.(i) c ~args with
        | r, _ -> Some r
        | exception Runtime.Trap _ -> None)
      ~deliver:(fun i v ->
        let outcome =
          match v with
          | Some (Some r) when r.Runtime.return_value = reference ->
              prints.(i) <-
                run_print ~cycles:r.Runtime.cycles ~value:r.Runtime.return_value
                  ~counters:r.Runtime.counters ~relocations:r.Runtime.relocations
                  ~epochs:r.Runtime.epochs;
              Supervisor.Done
                {
                  Supervisor.cycles = r.Runtime.cycles;
                  seconds = r.Runtime.virtual_seconds;
                  return_value = r.Runtime.return_value;
                  instructions = r.Runtime.counters.Hierarchy.instructions;
                  counters = r.Runtime.counters;
                  epochs = r.Runtime.epochs;
                  relocations = r.Runtime.relocations;
                  adaptive_triggers = r.Runtime.adaptive_triggers;
                  allocations = r.Runtime.heap_stats.Stz_alloc.Allocator.allocations;
                  frees = r.Runtime.heap_stats.Stz_alloc.Allocator.frees;
                }
          | _ -> Supervisor.Worker_lost
        in
        records :=
          { Supervisor.run = i; seed = seeds.(i); retries = 0; outcome } :: !records;
        (* The supervisor's durable checkpoint after every finished run. *)
        store "store.checkpoint" rckpt (fun () ->
            Supervisor.save rckpt
              {
                Supervisor.base_seed;
                runs;
                profile_fp = Stz_faults.Fault.fingerprint Stz_faults.Fault.none;
                config_desc = S.Config.describe config;
                records = List.rev !records;
                quarantined = [];
                budget_cycles = None;
                budget_fuel = None;
                reference = Some reference;
              }));
    { prints; instructions = !run_totals.instr }
  in
  let probe_prog = lazy (S.Driver.compile ~opt:Opt.O2 p) in
  let probe ~armed =
    ignore
      (run_vm ~armed ~config ~seed:base_seed (Lazy.force probe_prog) ~args)
  in
  {
    unit_name = "run";
    setup;
    real;
    inputs = (fun _ -> 0);
    recompose;
    probe;
    extras = (fun () -> [ ("supervisor.serial_head_s", !serial_head, "s") ]);
  }

(* ------------------------------------------------------------------ *)
(* explain-mcf                                                         *)
(* ------------------------------------------------------------------ *)

(* The argument variants szc explain builds: ~5% steps around the
   workload's default arguments. *)
let explain_variants ~variants base_args =
  List.init variants (fun v ->
      List.map (fun a -> a + (v * Stdlib.max 1 (a / 20))) base_args)

(* The layout seeds Explain.run splits from its base seed. *)
let layout_seeds ~base_seed k =
  let g = Stz_prng.Splitmix.create base_seed in
  Array.init k (fun _ -> Stz_prng.Splitmix.split g)

let shares_sum (d : Explain.decomposition) =
  d.Explain.layout_eta2 +. d.Explain.workload_share +. d.Explain.residual_share

let explain ~size ~seed ~tmp ~plant:_ =
  let prof = profile "mcf" size.explain_scale in
  let base_seed = Int64.of_int seed in
  let k = size.explain_seeds in
  let variants = explain_variants ~variants:size.explain_variants W.Generate.default_args in
  let w = List.length variants in
  let config = S.Config.one_time in
  (* szc explain attributes the generated program as is: O0. *)
  let c = S.Driver.compile ~opt:Opt.O0 (W.Generate.program prof) in
  let csv = Filename.concat tmp "explain.csv" in
  let setup () =
    mkdir_p (Filename.concat tmp "setup");
    let c = S.Driver.compile ~opt:Opt.O0 (W.Generate.program prof) in
    Hierarchy.arm_attrib (Hierarchy.create ()) ~funcs:(Array.length c.Ir.funcs)
  in
  (* A report is correct when every cell completed and the variance
     decomposition is present with shares summing to 1. *)
  let check (report : Explain.report) =
    let cells = Array.concat (Array.to_list report.Explain.cycles) in
    let prints = Array.map (fun c -> if c < 0 then bad "censored" else string_of_int c) cells in
    let decomposed =
      match report.Explain.decomposition with
      | Some d -> Float.abs (shares_sum d -. 1.0) <= 1e-9
      | None -> false
    in
    { prints = (if decomposed then prints else Array.map bad prints); instructions = 0 }
  in
  let real ~input:_ ~timed =
    let report = ref None in
    timed (fun () ->
        match
          Explain.run ~jobs ~config ~base_seed ~seeds:k ~variants c
        with
        | Ok r ->
            (* szc explain --csv: the durable store path. *)
            Artifact.write_with_sum csv (Explain.csv r);
            report := Some r
        | Error _ -> ());
    match !report with
    | Some r -> check r
    | None -> { prints = Array.make (w * k) (bad "aborted"); instructions = 0 }
  in
  let recompose () =
    let c = compile Opt.O0 (generate prof) in
    let seeds = layout_seeds ~base_seed k in
    let vars = Array.of_list variants in
    let cycles = Array.make_matrix w k (-1) in
    let merged = ref None in
    pool_map ~n:(w * k)
      ~f:(fun i ->
        match run_vm ~armed:true ~config ~seed:seeds.(i mod k) c ~args:vars.(i / k) with
        | r, m -> Some (r.Runtime.cycles, Option.bind m Hierarchy.attrib_snapshot)
        | exception Runtime.Trap _ -> None)
      ~deliver:(fun i v ->
        match v with
        | Some (Some (cy, snap)) ->
            cycles.(i / k).(i mod k) <- cy;
            Option.iter
              (fun s ->
                Spans.with_span "attrib.merge" (fun () ->
                    merged :=
                      Some
                        (match !merged with
                        | None -> s
                        | Some acc -> Stz_attrib.Conflict.merge acc s)))
              snap
        | _ -> ());
    let complete = List.filter (Array.for_all (fun c -> c >= 0)) (Array.to_list cycles) in
    let decomposition =
      if List.length complete < 2 then None
      else
        let r =
          Spans.with_span "attrib.anova" (fun () ->
              Stz_stats.Anova.within_subjects
                (Array.of_list (List.map (Array.map float_of_int) complete)))
        in
        let total = r.Stz_stats.Anova.ss_treatment +. r.ss_subjects +. r.ss_error in
        let share x = if total <= 0. then 0. else x /. total in
        Some
          {
            Explain.anova = r;
            layout_eta2 = share r.ss_treatment;
            partial_eta2 = r.eta_squared;
            workload_share = share r.ss_subjects;
            residual_share = share r.ss_error;
          }
    in
    let report =
      {
        Explain.func_names = Array.map (fun f -> f.Ir.fname) c.Ir.funcs;
        seeds;
        variants = vars;
        cycles;
        rows_used = List.length complete;
        decomposition;
        note = "";
        merged = !merged;
        pairs =
          (match !merged with
          | None -> []
          | Some s -> Spans.with_span "attrib.pairs" (fun () -> Stz_attrib.Conflict.pairs s));
      }
    in
    let rcsv = Filename.concat tmp "recompose.csv" in
    store "store.write" rcsv (fun () -> Artifact.write_with_sum rcsv (Explain.csv report));
    { (check report) with instructions = !run_totals.instr }
  in
  let probe ~armed =
    ignore (run_vm ~armed ~config ~seed:base_seed c ~args:(List.hd variants))
  in
  {
    unit_name = "cell";
    setup;
    real;
    inputs = (fun _ -> 0);
    recompose;
    probe;
    extras = (fun () -> []);
  }

(* ------------------------------------------------------------------ *)
(* fuzz-meta                                                           *)
(* ------------------------------------------------------------------ *)

let rand_runs = 2

let case_print (c : Fuzzlog.case) =
  match c.Fuzzlog.verdict with
  | Fuzzlog.Clean -> Printf.sprintf "clean %d %d" c.Fuzzlog.result c.Fuzzlog.cycles
  | Fuzzlog.Trapped -> "trapped"
  | v -> bad (Fuzzlog.verdict_to_string v)

(* One case through the fuzzer's oracle sequence, rebuilt from layer
   calls: O0 classification under the plan's limits, an O0 re-run,
   O1-O3 compiled, validated and run against O0, then O0 and O3 under
   [rand_runs] randomization seeds. No shrinking: on these inputs no
   oracle fires, and one that did would count as a failed unit. *)
let fuzz_case ~fuzz_seed index =
  let plan = F.plan ~fuzz_seed ~index in
  let args = F.args plan in
  let p = Spans.with_span "workloads.generate" (fun () -> F.build plan) in
  let seed = plan.F.case_seed in
  let opt lvl = Spans.with_span "vm.opt" (fun () -> Opt.apply lvl p) in
  let run ?limits ~config ~seed prog =
    match run_vm ?limits ~config ~seed prog ~args with
    | r, _ -> Some r
    | exception Runtime.Trap _ -> None
  in
  let blank verdict result cycles =
    {
      Fuzzlog.index;
      case_seed = seed;
      verdict;
      oracle = "";
      detail = "";
      repro = "";
      repro_instrs = 0;
      shrink_steps = 0;
      result;
      cycles;
    }
  in
  let o0 = opt Opt.O0 in
  let limits = F.limits plan in
  match run ~limits ~config:S.Config.baseline ~seed o0 with
  | None -> blank Fuzzlog.Trapped 0 0
  | Some r0 ->
      let v0 = r0.Runtime.return_value in
      let same = function Some r -> r.Runtime.return_value = v0 | None -> false in
      let ok =
        ref
          (match run ~limits ~config:S.Config.baseline ~seed o0 with
          | Some r -> r.Runtime.return_value = v0 && r.Runtime.counters = r0.Runtime.counters
          | None -> false)
      in
      List.iter
        (fun lvl ->
          let ol = opt lvl in
          let valid = Spans.with_span "vm.validate" (fun () -> Validate.check_program ol = []) in
          ok := !ok && valid && same (run ~config:S.Config.baseline ~seed ol))
        [ Opt.O1; Opt.O2; Opt.O3 ];
      let o3 = opt Opt.O3 in
      let sm = Stz_prng.Splitmix.create seed in
      for _ = 1 to rand_runs do
        let s = Stz_prng.Splitmix.split sm in
        List.iter
          (fun prog -> ok := !ok && same (run ~config:S.Config.stabilizer ~seed:s prog))
          [ o0; o3 ]
      done;
      if !ok then blank Fuzzlog.Clean v0 r0.Runtime.cycles else blank Fuzzlog.Fail v0 0

(* Per-case cost varies widely between generated programs, so every
   pass fuzzes a fresh set of cases (input set [k] has its own fuzz
   seed) and the run's rate averages thousands of distinct programs. *)
let fuzz ~size ~seed ~tmp ~plant:_ =
  let fuzz_seed_of k =
    Int64.add (Int64.of_int seed) (Int64.mul (Int64.of_int k) 0x9E3779B97F4A7C15L)
  in
  let fuzz_seed = fuzz_seed_of 0 in
  let count = size.fuzz_cases in
  let out = Filename.concat tmp "fuzz" in
  let meta =
    { Fuzzlog.version = 1; fuzz_seed; count; rand_runs; plant = "none" }
  in
  let plan0 = F.plan ~fuzz_seed ~index:0 in
  let setup () =
    let dir = Filename.concat tmp "setup" in
    mkdir_p dir;
    (match Fuzzlog.create ~path:(Filename.concat dir "fuzz.log") meta with
    | Ok lg -> Fuzzlog.close lg
    | Error e -> failwith e);
    ignore (Validate.check_program (Opt.apply Opt.O0 (F.build plan0)));
    ignore (Hierarchy.create ())
  in
  let prints_of cases =
    let prints = Array.make count (bad "lost") in
    List.iter
      (fun (c : Fuzzlog.case) ->
        if c.Fuzzlog.index >= 0 && c.Fuzzlog.index < count then
          prints.(c.Fuzzlog.index) <- case_print c)
      cases;
    { prints; instructions = 0 }
  in
  let real ~input ~timed =
    let result = ref (Error "not run") in
    timed (fun () ->
        result :=
          S.Fuzzer.run_campaign
            {
              S.Fuzzer.fuzz_seed = fuzz_seed_of input;
              count;
              jobs;
              out_dir = out;
              resume = false;
              rand_runs;
              shrink_budget = 2000;
              plant = None;
              watchdog = Some 30.0;
              log = ignore;
            });
    match Result.bind !result (fun _ -> Fuzzlog.load (Filename.concat out S.Fuzzer.ledger_name)) with
    | Ok (_, cases) -> prints_of cases
    | Error _ -> { prints = Array.make count (bad "aborted"); instructions = 0 }
  in
  let recompose () =
    let dir = Filename.concat tmp "recompose" in
    mkdir_p dir;
    let path = Filename.concat dir "fuzz.log" in
    let lg =
      match Spans.with_span "store.create" (fun () -> Fuzzlog.create ~path meta) with
      | Ok lg -> lg
      | Error e -> failwith e
    in
    let cases = ref [] in
    pool_map ~n:count
      ~f:(fun i -> Spans.with_span "fuzzer.evaluate" (fun () -> fuzz_case ~fuzz_seed i))
      ~deliver:(fun _ v ->
        match v with
        | Some c ->
            cases := c :: !cases;
            store ~append:true "store.append" path (fun () -> Fuzzlog.append lg c)
        | None -> ());
    Fuzzlog.close lg;
    { (prints_of !cases) with instructions = !run_totals.instr }
  in
  let probe_prog = lazy (Opt.apply Opt.O0 (F.build plan0)) in
  let probe ~armed =
    try
      ignore
        (run_vm ~armed ~config:S.Config.baseline ~seed:plan0.F.case_seed
           (Lazy.force probe_prog) ~args:(F.args plan0))
    with Runtime.Trap _ -> ()
  in
  {
    unit_name = "case";
    setup;
    real;
    inputs = Fun.id;
    recompose;
    probe;
    extras = (fun () -> []);
  }

let all = [ ("campaign-perlbench", campaign); ("explain-mcf", explain); ("fuzz-meta", fuzz) ]
