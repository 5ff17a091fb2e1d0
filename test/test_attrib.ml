(* The layout-bias attribution profiler end to end: plane separation
   (arming the conflict recorders never changes cycles or hardware
   counters), the planted-conflict acceptance pair (the conflict
   workload's layout η² is high and names the planted pair #1 in the
   L1I table; the control twin's is negligible), report determinism
   across worker counts, the sweep ledger's crash-atomic append/resume
   discipline, and sweep-campaign byte-identity across interruption. *)

module Hierarchy = Stz_machine.Hierarchy
module Cache = Stz_machine.Cache
module Conflict = Stz_attrib.Conflict
module Explain = Stz_attrib.Explain
module Sweep = Stz_attrib.Sweep
module Sl = Stz_store.Sweeplog
module Runtime = Stabilizer.Runtime
module Config = Stabilizer.Config
module Workload = Stz_workloads.Conflict

open Helpers

(* ------------------------------------------------------------------ *)
(* Plane separation                                                    *)
(* ------------------------------------------------------------------ *)

(* The golden-counter contract: a run on an attribution-armed machine
   must report exactly the cycles and hardware counters of a dark run —
   the recorders observe, they never feed back. *)
let armed_run_counters_identical () =
  let p = Workload.program () in
  let args = Workload.default_args in
  let config = Config.one_time in
  List.iter
    (fun seed ->
      let dark = Runtime.run ~config ~seed p ~args in
      let lit =
        Runtime.run
          ~machine_factory:(fun () ->
            let m = Hierarchy.create () in
            Hierarchy.arm_attrib m ~funcs:(Array.length p.Stz_vm.Ir.funcs);
            m)
          ~config ~seed p ~args
      in
      check_int "cycles" dark.Runtime.cycles lit.Runtime.cycles;
      check_int "result" dark.Runtime.return_value lit.Runtime.return_value;
      check_bool "counters" true
        (dark.Runtime.counters = lit.Runtime.counters))
    [ 1L; 7L; 1234567L ]

let dark_recorder_is_dark () =
  let mk () = Cache.create { Cache.sets = 4; ways = 2; line_bits = 6 } in
  let pattern c =
    List.iter (fun a -> ignore (Cache.access c a)) [ 0; 64; 256; 0; 512; 64 ]
  in
  let dark = mk () in
  pattern dark;
  let lit = mk () in
  Cache.arm_attrib lit ~funcs:3;
  Cache.set_attrib_owner lit 1;
  pattern lit;
  check_int "misses" (Cache.misses dark) (Cache.misses lit);
  check_bool "armed" true (Cache.attrib_armed lit);
  check_bool "unarmed" false (Cache.attrib_armed dark);
  check_bool "view exists" true (Cache.attrib_view lit <> None)

(* ------------------------------------------------------------------ *)
(* The planted pair                                                    *)
(* ------------------------------------------------------------------ *)

let explain ?(jobs = 1) p =
  unwrap
    (Explain.run ~jobs ~base_seed:1L ~seeds:8
       ~variants:[ [ 50 ]; [ 51 ]; [ 52 ]; [ 53 ] ]
       p)

let conflict_workload_is_layout_dominated () =
  let report = explain (Workload.program ()) in
  let d =
    match report.Explain.decomposition with
    | Some d -> d
    | None -> Alcotest.fail ("no decomposition: " ^ report.Explain.note)
  in
  check_bool
    (Printf.sprintf "layout eta2 %.3f >= 0.5" d.Explain.layout_eta2)
    true
    (d.Explain.layout_eta2 >= 0.5);
  (* The planted (wrapper, rider) pair must top the L1I table. *)
  let wa, ri = Workload.hot_pair in
  match Conflict.pairs_in Conflict.L1i (Option.get report.Explain.merged) with
  | [] -> Alcotest.fail "no l1i conflicts recorded"
  | top :: _ ->
      check_int "victim fid" (min wa ri) top.Conflict.f1;
      check_int "evictor fid" (max wa ri) top.Conflict.f2;
      check_bool "events" true (top.Conflict.events > 0);
      (* And it leads the overall ranking too. *)
      let overall = List.hd report.Explain.pairs in
      check_bool "overall #1 is the planted pair" true
        (overall.Conflict.f1 = min wa ri && overall.Conflict.f2 = max wa ri)

let control_workload_is_layout_indifferent () =
  let report = explain (Workload.control ()) in
  let d =
    match report.Explain.decomposition with
    | Some d -> d
    | None -> Alcotest.fail ("no decomposition: " ^ report.Explain.note)
  in
  check_bool
    (Printf.sprintf "layout eta2 %.4f < 0.1" d.Explain.layout_eta2)
    true
    (d.Explain.layout_eta2 < 0.1);
  check_bool "workload stratum dominates" true (d.Explain.workload_share > 0.5)

let report_independent_of_jobs () =
  let p = Workload.program () in
  let a = explain ~jobs:1 p and b = explain ~jobs:4 p in
  check_string "csv" (Explain.csv a) (Explain.csv b);
  check_string "trace" (Explain.trace_string a) (Explain.trace_string b);
  check_string "table" (Explain.to_string a) (Explain.to_string b)

(* The conflict table's bytes. The digests were taken at commit
   7338d94, before the recorders lost their unread per-set and per-slot
   tallies and the caches their access count: the planted program
   through [explain], and mcf at scale 0.05 over 4 seeds x 2 variants
   ([szc explain]'s ~5% argument steps). mcf's table has a [branch]
   row, so the predictor recorder is pinned too. *)
let conflict_table_bytes_pinned () =
  let pinned name report ~csv ~trace =
    let digest s = Digest.to_hex (Digest.string s) in
    check_string (name ^ " csv") csv (digest (Explain.csv report));
    check_string (name ^ " trace") trace (digest (Explain.trace_string report))
  in
  pinned "conflict"
    (explain (Workload.program ()))
    ~csv:"9ff6ac71e87647ee9845268967c91579" ~trace:"fc5d06f51a40bead5bb2383e6680e2ff";
  let mcf =
    Stz_workloads.Generate.program
      (Stz_workloads.Profile.scale 0.05 (Option.get (Stz_workloads.Spec.find "mcf")))
  in
  let variants =
    List.init 2 (fun v ->
        List.map (fun a -> a + (v * max 1 (a / 20))) Stz_workloads.Generate.default_args)
  in
  pinned "mcf"
    (unwrap (Explain.run ~base_seed:1L ~seeds:4 ~variants mcf))
    ~csv:"c309a5135d559207d68b1ab09571a702" ~trace:"09b6c6707c8bb5124cd5e7a9b8d8ae13"

(* ------------------------------------------------------------------ *)
(* Sweep ledger                                                        *)
(* ------------------------------------------------------------------ *)

let sweeplog_round_trip () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "sweep.log" in
      let t = unwrap (Sl.create ~path sweep_meta) in
      List.iter (fun i -> Sl.append t (sweep_case i)) [ 0; 1; 2; 3 ];
      Sl.close t;
      let m, cases = unwrap (Sl.load path) in
      check_bool "meta" true (m = sweep_meta);
      check_int "cases" 4 (List.length cases);
      let c0 = List.hd cases in
      check_bool "floats bit-exact" true
        (Int64.bits_of_float c0.Sl.eta2 = Int64.bits_of_float (sweep_case 0).Sl.eta2);
      check_string "sanitized" "multi line gets sanitized" c0.Sl.detail;
      check_string "repro" "repro-000000.szt" c0.Sl.repro)

let sweeplog_resume_self_heals () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "sweep.log" in
      let t = unwrap (Sl.create ~path sweep_meta) in
      List.iter (fun i -> Sl.append t (sweep_case i)) [ 0; 1; 2; 3 ];
      Sl.close t;
      let intact = read_file path in
      (* Tear the tail mid-record, as a SIGKILL would. *)
      let torn = String.length intact - 37 in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd torn;
      Unix.close fd;
      let t, survivors = unwrap (Sl.resume ~path sweep_meta) in
      check_int "survivors" 3 (List.length survivors);
      (* Re-appending the lost case must reproduce the intact bytes. *)
      Sl.append t (sweep_case 3);
      Sl.close t;
      check_string "byte-identical after heal" intact (read_file path);
      (* A different sweep identity is refused. *)
      match Sl.resume ~path { sweep_meta with Sl.fuzz_seed = 10L } with
      | Ok _ -> Alcotest.fail "resume accepted a mismatched meta"
      | Error e -> check_bool "mentions mismatch" true (contains e "mismatch"))

(* ------------------------------------------------------------------ *)
(* Sweep campaign                                                      *)
(* ------------------------------------------------------------------ *)

let sweep_cfg ~out ~resume =
  {
    Sweep.fuzz_seed = 5L;
    count = 6;
    jobs = 2;
    out_dir = out;
    resume;
    layout_seeds = 4;
    variants = 3;
    threshold = 0.01;
    shrink_budget = 8;
    watchdog = None;
    log = ignore;
  }

let dir_fingerprint dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, Digest.file (Filename.concat dir f)))

let sweep_campaign_resumes_byte_identically () =
  with_temp_dir (fun root ->
      let full = Filename.concat root "full" in
      let cut = Filename.concat root "cut" in
      let s1 = unwrap (Sweep.run_campaign (sweep_cfg ~out:full ~resume:false)) in
      check_int "all measured" 6 (s1.Sweep.total);
      check_bool "campaign found offenders to shrink" true
        (s1.Sweep.offenders <> []);
      (* Interrupted twin: same campaign, ledger then torn mid-record
         and the tail cases lost, as a SIGKILL mid-sweep would leave it. *)
      ignore (unwrap (Sweep.run_campaign (sweep_cfg ~out:cut ~resume:false)));
      let ledger = Filename.concat cut Sweep.ledger_name in
      let bytes = read_file ledger in
      let fd = Unix.openfile ledger [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (String.length bytes * 2 / 3);
      Unix.close fd;
      let s2 = unwrap (Sweep.run_campaign (sweep_cfg ~out:cut ~resume:true)) in
      check_int "resumed to full count" 6 (s2.Sweep.total);
      check_bool "identical artifacts" true
        (dir_fingerprint full = dir_fingerprint cut);
      check_bool "identical ledger bytes" true (bytes = read_file ledger))

let sweep_case_pure () =
  let a =
    Sweep.evaluate ~layout_seeds:4 ~variants:3 ~threshold:0.01 ~shrink_budget:0
      ~fuzz_seed:5L ~index:1 ()
  in
  let b =
    Sweep.evaluate ~layout_seeds:4 ~variants:3 ~threshold:0.01 ~shrink_budget:0
      ~fuzz_seed:5L ~index:1 ()
  in
  check_bool "pure in (seed, index)" true (a = b)

let () =
  Alcotest.run "attrib"
    [
      ( "plane-separation",
        [
          Alcotest.test_case "armed run: counters identical" `Quick
            armed_run_counters_identical;
          Alcotest.test_case "dark recorder is dark" `Quick
            dark_recorder_is_dark;
        ] );
      ( "explain",
        [
          Alcotest.test_case "conflict workload: layout-dominated" `Quick
            conflict_workload_is_layout_dominated;
          Alcotest.test_case "control workload: layout-indifferent" `Quick
            control_workload_is_layout_indifferent;
          Alcotest.test_case "report independent of --jobs" `Quick
            report_independent_of_jobs;
          Alcotest.test_case "conflict table bytes pinned" `Quick
            conflict_table_bytes_pinned;
        ] );
      ( "sweeplog",
        [
          Alcotest.test_case "round trip" `Quick sweeplog_round_trip;
          Alcotest.test_case "torn tail self-heals byte-identically" `Quick
            sweeplog_resume_self_heals;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "campaign resumes byte-identically" `Quick
            sweep_campaign_resumes_byte_identically;
          Alcotest.test_case "case evaluation pure" `Quick sweep_case_pure;
        ] );
    ]
