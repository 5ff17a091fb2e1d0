(* Self-timing performance harness for the simulator itself (ROADMAP
   item 1): measure how fast *we* execute simulated runs, not how fast
   the simulated programs are. A workload matrix over representative
   `lib/workloads` profiles is run with warmup and repeats, wall-clock
   timed, and the results are written as JSON (a perf PR commits its
   run as BENCH_<PR>.json at the repo root). Optionally every workload's per-repeat wall time per run is
   appended to a `Stz_store.Ledger` history, so `szc regress` — the
   same Cohen's-d confidence-interval gate used for simulated
   campaigns — judges the simulator's own performance trajectory
   across PRs: we eat our own statistical dog food.

     dune exec bench/perf.exe -- --out BENCH_local.json --ledger perf.ledger

   Each repeat re-simulates the *identical* deterministic set of runs
   (fixed base seed), so repeat-to-repeat variance is pure harness and
   machine noise — exactly what a regression gate wants to see
   through. Knobs: --runs (simulated runs per repeat), --repeats,
   --warmup, --matrix quick|full, and STZ_SCALE shrinks the workloads
   like everywhere else in the bench suite. *)

module S = Stabilizer
module W = Stz_workloads
module Welford = Stz_monitor.Welford
module Ledger = Stz_store.Ledger
module Json = S.Json

let scale =
  match Sys.getenv_opt "STZ_SCALE" with Some s -> float_of_string s | None -> 1.0

(* The matrix spans the axes that stress different interpreter paths:
   short vs long runs, branchy vs loopy code, heap churn vs streaming
   data. Names match `szc list`. *)
let full_matrix =
  [
    ("astar", "heap-heavy: churny allocation, pointer-chasing");
    ("hmmer", "loopy: long inner trips, table scans");
    ("libquantum", "short: streaming global arrays, low branchiness");
    ("mcf", "long: memory-bound pointer loops");
    ("sjeng", "branchy: irregular control flow");
  ]

let quick_matrix = [ List.nth full_matrix 0; List.nth full_matrix 3; List.nth full_matrix 4 ]

type opts = {
  out : string;
  ledger : string option;
  runs : int;
  repeats : int;
  warmup : int;
  matrix : (string * string) list;
}

let default_opts =
  {
    out = "BENCH_local.json";
    ledger = None;
    runs = 12;
    repeats = 5;
    warmup = 1;
    matrix = full_matrix;
  }

let usage () =
  prerr_endline
    "usage: perf [--out FILE] [--ledger FILE] [--runs N] [--repeats K] \
     [--warmup W] [--matrix quick|full]";
  exit 1

let parse_opts argv =
  let rec go o = function
    | [] -> o
    | "--out" :: v :: rest -> go { o with out = v } rest
    | "--ledger" :: v :: rest -> go { o with ledger = Some v } rest
    | "--runs" :: v :: rest -> go { o with runs = int_of_string v } rest
    | "--repeats" :: v :: rest -> go { o with repeats = int_of_string v } rest
    | "--warmup" :: v :: rest -> go { o with warmup = int_of_string v } rest
    | "--matrix" :: "quick" :: rest -> go { o with matrix = quick_matrix } rest
    | "--matrix" :: "full" :: rest -> go { o with matrix = full_matrix } rest
    | _ -> usage ()
  in
  go default_opts (List.tl (Array.to_list argv))

(* ------------------------------------------------------------------ *)
(* Environment fingerprint                                             *)
(* ------------------------------------------------------------------ *)

let read_process cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> Some line
    | _ -> None
  with _ -> None

let git_sha () =
  match read_process "git rev-parse HEAD 2>/dev/null" with
  | Some sha -> sha
  | None -> "unknown"

let cpu_count () =
  try
    let ic = open_in "/proc/cpuinfo" in
    let n = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.length line >= 9 && String.sub line 0 9 = "processor" then
           incr n
       done
     with End_of_file -> ());
    close_in ic;
    Stdlib.max 1 !n
  with _ -> 1

let env_fingerprint () =
  Json.Obj
    [
      ("ocaml", Json.String Sys.ocaml_version);
      ("git_sha", Json.String (git_sha ()));
      ("cpus", Json.Int (cpu_count ()));
      ("word_size", Json.Int Sys.word_size);
      ("os", Json.String Sys.os_type);
    ]

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type repeat = { wall_s : float; sim_cycles : int; completed : int }

type result = {
  name : string;
  why : string;
  repeats : repeat list;  (** measured repeats, warmups excluded *)
}

let base_seed = 0x5EED_7L

(* One repeat: simulate [runs] layout-randomized runs of the workload
   under the full STABILIZER configuration at O2 — the same inner loop
   every campaign and experiment in this repo spends its time in. The
   fixed base seed makes every repeat simulate the identical work. *)
let measure_repeat ~runs prof =
  let p = W.Generate.program prof in
  let t0 = Unix.gettimeofday () in
  let sample =
    S.Driver.build_and_run ~config:S.Config.stabilizer ~opt:Stz_vm.Opt.O2
      ~base_seed ~runs ~args:W.Generate.default_args p
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let sim_cycles = Array.fold_left ( + ) 0 sample.S.Sample.cycles in
  { wall_s; sim_cycles; completed = Array.length sample.S.Sample.times }

let measure ~opts (name, why) =
  match W.Spec.find name with
  | None -> failwith ("unknown workload: " ^ name)
  | Some prof ->
      let prof = W.Profile.scale scale prof in
      for _ = 1 to opts.warmup do
        ignore (measure_repeat ~runs:opts.runs prof)
      done;
      let repeats =
        List.init opts.repeats (fun _ -> measure_repeat ~runs:opts.runs prof)
      in
      Printf.eprintf "perf: %-12s %d repeats x %d runs: %s\n%!" name
        opts.repeats opts.runs
        (String.concat " "
           (List.map (fun r -> Printf.sprintf "%.3fs" r.wall_s) repeats));
      { name; why; repeats }

(* ------------------------------------------------------------------ *)
(* Aggregation + JSON                                                  *)
(* ------------------------------------------------------------------ *)

let stats_of values =
  let w = Welford.create () in
  List.iter (Welford.add w) values;
  Json.Obj
    [
      ("mean", Json.Float (Welford.mean w));
      ("sd", Json.Float (if Welford.count w > 1 then Welford.std_dev w else 0.0));
      ("min", Json.Float (Welford.min w));
      ("max", Json.Float (Welford.max w));
      ("per_repeat", Json.List (List.map (fun v -> Json.Float v) values));
    ]

let json_of_result ~opts r =
  let walls = List.map (fun x -> x.wall_s) r.repeats in
  let runs_per_s =
    List.map (fun x -> float_of_int opts.runs /. x.wall_s) r.repeats
  in
  let cycles_per_s =
    List.map (fun x -> float_of_int x.sim_cycles /. x.wall_s) r.repeats
  in
  let total_completed =
    List.fold_left (fun acc x -> acc + x.completed) 0 r.repeats
  in
  Json.Obj
    [
      ("name", Json.String r.name);
      ("why", Json.String r.why);
      ("wall_s", stats_of walls);
      ("runs_per_s", stats_of runs_per_s);
      ("sim_cycles_per_s", stats_of cycles_per_s);
      ( "sim_cycles_per_repeat",
        Json.List (List.map (fun x -> Json.Int x.sim_cycles) r.repeats) );
      ("completed_runs", Json.Int total_completed);
    ]

let totals results ~opts =
  let wall = ref 0.0 and cycles = ref 0 and runs = ref 0 in
  List.iter
    (fun r ->
      List.iter
        (fun x ->
          wall := !wall +. x.wall_s;
          cycles := !cycles + x.sim_cycles;
          runs := !runs + opts.runs)
        r.repeats)
    results;
  Json.Obj
    [
      ("wall_s", Json.Float !wall);
      ("runs_per_s", Json.Float (float_of_int !runs /. !wall));
      ("sim_cycles_per_s", Json.Float (float_of_int !cycles /. !wall));
    ]

(* ------------------------------------------------------------------ *)
(* Ledger dog-food: one history entry per workload, seconds per        *)
(* simulated run, so `szc regress --label perf:<name>` gates us.       *)
(* ------------------------------------------------------------------ *)

let ledger_entry ~opts ~sha r =
  let w = Welford.create () in
  List.iter
    (fun x -> Welford.add w (x.wall_s /. float_of_int opts.runs))
    r.repeats;
  let n = Welford.count w in
  {
    Ledger.label = "perf:" ^ r.name;
    fingerprint =
      Printf.sprintf "perf|%s|O2|stabilizer|%h|runs=%d|git=%s" r.name scale
        opts.runs sha;
    base_seed;
    runs = opts.repeats;
    completed = n;
    censored = 0;
    mean = Welford.mean w;
    sd = (if n > 1 then Welford.std_dev w else 0.0);
    min = Welford.min w;
    max = Welford.max w;
    skewness = (if n > 2 then Welford.skewness w else 0.0);
    kurtosis = (if n > 3 then Welford.kurtosis w else 0.0);
    detectable_effect =
      (if n < 2 then 0.0 else Stz_stats.Power.detectable_effect ~n ());
    verdict = "-";
  }

let () =
  let opts = parse_opts Sys.argv in
  let results = List.map (measure ~opts) opts.matrix in
  let sha = git_sha () in
  let doc =
    Json.Obj
      [
        ("bench", Json.String "simulator-perf");
        ("schema", Json.Int 1);
        ("env", env_fingerprint ());
        ( "params",
          Json.Obj
            [
              ("runs_per_repeat", Json.Int opts.runs);
              ("repeats", Json.Int opts.repeats);
              ("warmup", Json.Int opts.warmup);
              ("scale", Json.Float scale);
              ("opt", Json.String "O2");
              ("config", Json.String "code.heap.stack");
              ("base_seed", Json.of_int64 base_seed);
            ] );
        ("workloads", Json.List (List.map (json_of_result ~opts) results));
        ("totals", totals results ~opts);
      ]
  in
  let oc = open_out opts.out in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" opts.out;
  match opts.ledger with
  | None -> ()
  | Some path ->
      List.iter
        (fun r ->
          match Ledger.append path (ledger_entry ~opts ~sha r) with
          | Ok seq ->
              Printf.printf "ledger: %s entry %d appended to %s\n%!"
                ("perf:" ^ r.name) seq path
          | Error e ->
              Printf.eprintf "ledger append failed: %s\n%!" e;
              exit 1)
        results
