(* The deterministic telemetry layer: span nesting invariants in the
   run-local recorder, metric registry round-trips, and the system-level
   guarantee that a fixed seed produces byte-identical trace and metrics
   files however the campaign was scheduled — --jobs 4, serial, or
   killed with SIGKILL and resumed from its checkpoint. *)

module S = Stabilizer
module F = Stz_faults.Fault
module P = Stz_workloads.Profile
module T = Stz_telemetry
module Event = T.Event
module Runlog = T.Runlog
module Metrics = T.Metrics
module Trace = T.Trace
module Export = T.Export

open Helpers

let raises_invalid f =
  match f () with
  | exception Invalid_argument _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Runlog: span nesting and clock invariants                           *)
(* ------------------------------------------------------------------ *)

let runlog_nesting () =
  let l = Runlog.create () in
  Runlog.begin_span l "outer" ~now:0;
  check_int "one open span" 1 (Runlog.depth l);
  Runlog.begin_span l "inner" ~now:10;
  Runlog.instant l "tick" ~now:15;
  Runlog.end_span l ~now:40;
  Runlog.end_span l ~now:100;
  check_int "all closed" 0 (Runlog.depth l);
  match Runlog.events l with
  | [
   Event.Span { name = n1; dur = d1; _ };
   Event.Span { name = n2; ts = t2; dur = d2; _ };
   Event.Instant { ts = t3; _ };
  ] ->
      check_string "outer first (sorted by start)" "outer" n1;
      check_int "outer duration" 100 d1;
      check_string "inner" "inner" n2;
      check_int "inner start" 10 t2;
      check_int "inner duration" 30 d2;
      check_int "instant inside inner" 15 t3
  | es -> Alcotest.failf "unexpected stream of %d events" (List.length es)

let runlog_rejects_misuse () =
  check_bool "end without begin" true
    (raises_invalid (fun () -> Runlog.end_span (Runlog.create ()) ~now:0));
  check_bool "clock must be monotone" true
    (raises_invalid (fun () ->
         let l = Runlog.create () in
         Runlog.begin_span l "a" ~now:10;
         Runlog.instant l "too-early" ~now:5));
  check_bool "cannot export with open spans" true
    (raises_invalid (fun () ->
         let l = Runlog.create () in
         Runlog.begin_span l "open" ~now:0;
         Runlog.events l))

let runlog_close_is_crash_safe () =
  let l = Runlog.create () in
  Runlog.begin_span l "a" ~now:0;
  Runlog.begin_span l "b" ~now:5;
  Runlog.close l ~now:9;
  check_int "closed all" 0 (Runlog.depth l);
  check_int "both spans exported" 2 (List.length (Runlog.events l))

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let metrics_roundtrip () =
  let m = Metrics.create () in
  Metrics.add m "b.two" 2;
  Metrics.add m "a.one" 1;
  Metrics.add m "b.two" 3;
  check_int "accumulates" 5 (Metrics.get m "b.two");
  check_int "missing is zero" 0 (Metrics.get m "nope");
  check_string "snapshot is key-sorted" "a.one 1\nb.two 5\n" (Metrics.snapshot m);
  (match Metrics.of_snapshot (Metrics.snapshot m) with
  | Error e -> Alcotest.fail e
  | Ok m' -> check_string "parses back" (Metrics.snapshot m) (Metrics.snapshot m'));
  check_bool "malformed keys rejected" true
    (raises_invalid (fun () -> Metrics.add m "spaces are bad" 1))

(* ------------------------------------------------------------------ *)
(* Trace lanes                                                         *)
(* ------------------------------------------------------------------ *)

let trace_lane_assignment () =
  let tr = Trace.create ~lanes:3 () in
  check_int "run 0 -> lane 1" 1 (Trace.lane_for tr ~run:0);
  check_int "run 2 -> lane 3" 3 (Trace.lane_for tr ~run:2);
  check_int "run 3 wraps to lane 1" 1 (Trace.lane_for tr ~run:3);
  let span dur =
    [ Event.Span { name = "run"; cat = "run"; lane = 0; ts = 0; dur; args = [] } ]
  in
  Trace.add_run tr ~run:0 (span 100);
  Trace.add_run tr ~run:1 (span 50);
  Trace.add_run tr ~run:3 (span 40);
  check_int "virtual now is the furthest lane" 140 (Trace.now tr);
  (match Trace.events tr with
  | [
   Event.Span { lane = l1; _ };
   Event.Span { ts = t2; _ };
   Event.Span { lane = l3; ts = t3; _ };
  ] ->
      check_int "run 0 on lane 1 at 0" 1 l1;
      check_int "run 1 on lane 2 at 0" 0 t2;
      check_int "run 3 stacked after run 0" 100 t3;
      check_int "run 3 shares lane 1" 1 l3
  | _ -> Alcotest.fail "expected three spans")

(* ------------------------------------------------------------------ *)
(* Chrome export: golden structure check via the in-repo Json parser   *)
(* ------------------------------------------------------------------ *)

let chrome_export_is_valid () =
  let tr = Trace.create ~lanes:2 () in
  Trace.control_instant tr "campaign-start";
  Trace.add_run tr ~run:0
    [
      Event.Span { name = "run"; cat = "run"; lane = 0; ts = 0; dur = 10; args = [] };
      Event.Counter
        { name = "hw"; cat = "run"; lane = 0; ts = 10; values = [ ("cycles", 10) ] };
    ];
  let text = Export.chrome_string (Trace.events tr) in
  (match Export.validate_chrome_string text with
  | Error e -> Alcotest.failf "exporter emitted an invalid trace: %s" e
  | Ok (spans, points) ->
      check_int "one span" 1 spans;
      check_int "instant + counter" 2 points);
  (* Structure golden-checked through the in-repo parser. *)
  match T.Json.of_string text with
  | Error e -> Alcotest.failf "not JSON: %s" e
  | Ok j ->
      let events =
        match Option.bind (T.Json.member "traceEvents" j) T.Json.to_list with
        | Some l -> l
        | None -> Alcotest.fail "no traceEvents array"
      in
      let phases =
        List.filter_map
          (fun e -> Option.bind (T.Json.member "ph" e) T.Json.to_str)
          events
      in
      check_bool "has complete spans" true (List.mem "X" phases);
      check_bool "has counters" true (List.mem "C" phases);
      check_bool "has metadata records" true (List.mem "M" phases)

let validator_rejects_garbage () =
  let bad text =
    match Export.validate_chrome_string text with Ok _ -> false | Error _ -> true
  in
  check_bool "not json" true (bad "]][[");
  check_bool "no traceEvents" true (bad "{}");
  check_bool "metadata only" true
    (bad "{\"traceEvents\":[{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0}]}")

(* ------------------------------------------------------------------ *)
(* Ops: log-linear histograms with golden values                       *)
(* ------------------------------------------------------------------ *)

module Ops = T.Ops
module Oplog = T.Oplog

let hist_layout_golden () =
  (* Unit buckets below 16. *)
  for v = 0 to 15 do
    check_int (Printf.sprintf "bucket_of %d" v) v (Ops.Hist.bucket_of v)
  done;
  (* Values up to 31 still resolve exactly (16 sub-buckets of width 1). *)
  check_int "bucket_of 31" 31 (Ops.Hist.bucket_of 31);
  (* From 32 the sub-bucket width is 2: 32 and 33 share a bucket. *)
  check_int "32 and 33 share" (Ops.Hist.bucket_of 32) (Ops.Hist.bucket_of 33);
  check_bool "33 and 34 differ" true
    (Ops.Hist.bucket_of 33 <> Ops.Hist.bucket_of 34);
  check_int "negatives clamp to 0" 0 (Ops.Hist.bucket_of (-7));
  (* Round-trip invariants: the bucket lower bound is at most the value
     and within 6.25% of it. *)
  List.iter
    (fun v ->
      let lo = Ops.Hist.bucket_lower (Ops.Hist.bucket_of v) in
      check_bool (Printf.sprintf "lower(%d) <= v" v) true (lo <= v);
      check_bool
        (Printf.sprintf "relative error at %d" v)
        true
        (float_of_int (v - lo) <= 0.0625 *. float_of_int v))
    [ 1; 16; 17; 100; 1000; 4097; 65535; 1_000_000; max_int / 2 ]

let hist_percentiles_golden () =
  let h = Ops.Hist.create () in
  for v = 1 to 1000 do
    Ops.Hist.observe h v
  done;
  check_int "count" 1000 (Ops.Hist.count h);
  check_int "sum" 500_500 (Ops.Hist.sum h);
  check_int "min exact" 1 (Ops.Hist.min_value h);
  check_int "max exact" 1000 (Ops.Hist.max_value h);
  (* Golden percentiles for the uniform 1..1000 distribution under the
     fixed bucket layout: rank 500 → value 500 → octave [256,512),
     sub-bucket width 16, lower bound 496; rank 900 → 900 → [512,1024),
     width 32, lower 896; rank 990 → 990 → lower 960. *)
  check_int "p50" 496 (Ops.Hist.percentile h 50.);
  check_int "p90" 896 (Ops.Hist.percentile h 90.);
  check_int "p99" 960 (Ops.Hist.percentile h 99.);
  (* Small exact case: all values below 16 are exact. *)
  let s = Ops.Hist.create () in
  List.iter (Ops.Hist.observe s) [ 5; 7; 9 ];
  check_int "small p50 exact" 7 (Ops.Hist.percentile s 50.);
  check_int "empty percentile" 0 (Ops.Hist.percentile (Ops.Hist.create ()) 99.)

let hist_merge_matches_single () =
  let a = Ops.Hist.create () and b = Ops.Hist.create () in
  let whole = Ops.Hist.create () in
  for v = 1 to 500 do
    Ops.Hist.observe a v;
    Ops.Hist.observe whole v
  done;
  for v = 501 to 1000 do
    Ops.Hist.observe b v;
    Ops.Hist.observe whole v
  done;
  Ops.Hist.merge_into ~dst:a b;
  check_int "merged count" (Ops.Hist.count whole) (Ops.Hist.count a);
  check_int "merged sum" (Ops.Hist.sum whole) (Ops.Hist.sum a);
  check_int "merged min" (Ops.Hist.min_value whole) (Ops.Hist.min_value a);
  check_int "merged max" (Ops.Hist.max_value whole) (Ops.Hist.max_value a);
  check_bool "merged buckets element-wise equal" true
    (Ops.Hist.nonzero_buckets whole = Ops.Hist.nonzero_buckets a);
  List.iter
    (fun p ->
      check_int
        (Printf.sprintf "merged p%.0f" p)
        (Ops.Hist.percentile whole p) (Ops.Hist.percentile a p))
    [ 50.; 90.; 99. ]

let ops_registry_snapshot () =
  let build () =
    let o = Ops.create () in
    Ops.incr o "wire.rx.submit";
    Ops.incr o ~by:4 "wire.rx.submit";
    Ops.incr o "admit.ok";
    Ops.set_gauge o "sched.slots.busy" 3;
    List.iter (Ops.observe o "loop.tick_us") [ 10; 20; 30 ];
    o
  in
  let o = build () in
  check_int "counter accumulates" 5 (Ops.counter o "wire.rx.submit");
  check_int "missing counter is 0" 0 (Ops.counter o "nope");
  check_int "gauge" 3 (Ops.gauge o "sched.slots.busy");
  check_string "snapshots of identical registries are byte-identical"
    (Ops.snapshot (build ())) (Ops.snapshot o);
  check_bool "snapshot lists the histogram" true
    (contains (Ops.snapshot o) "hist loop.tick_us ");
  check_bool "malformed key rejected" true
    (raises_invalid (fun () -> Ops.incr o "no spaces"));
  let prom = Ops.to_prometheus o in
  List.iter
    (fun needle ->
      check_bool ("prometheus has " ^ needle) true (contains prom needle))
    [
      "# TYPE szcd_wire_rx_submit counter";
      "szcd_wire_rx_submit 5";
      "# TYPE szcd_sched_slots_busy gauge";
      "szcd_loop_tick_us{quantile=\"0.5\"}";
      "szcd_loop_tick_us_count 3";
    ]

(* ------------------------------------------------------------------ *)
(* Oplog: container discipline, self-healing reopen, rotation          *)
(* ------------------------------------------------------------------ *)

let oplog_event l i =
  Oplog.event l ~ts_ms:(1000 + i) ~ev:"test.event" [ ("i", T.Json.Int i) ]

let oplog_roundtrip_and_self_heal () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "ops.log" in
      (match Oplog.create ~path () with
      | Error e -> Alcotest.fail e
      | Ok l ->
          for i = 0 to 9 do
            oplog_event l i
          done;
          Oplog.close l);
      (match Oplog.load path with
      | Error e -> Alcotest.failf "fresh oplog unreadable: %s" e
      | Ok ((), records) -> check_int "10 records" 10 (List.length records));
      (* Reopen appends — records accumulate across generations of the
         daemon. *)
      (match Oplog.create ~path () with
      | Error e -> Alcotest.fail e
      | Ok l ->
          oplog_event l 10;
          Oplog.close l);
      (match Oplog.load path with
      | Error e -> Alcotest.failf "reopened oplog unreadable: %s" e
      | Ok ((), records) -> check_int "11 records" 11 (List.length records));
      (* Tear the tail (simulate SIGKILL mid-write): reopening self-heals
         to the longest valid prefix and appends cleanly after it. *)
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      ignore (Unix.ftruncate fd (size - 7));
      Unix.close fd;
      check_bool "torn file no longer loads strictly" true
        (Result.is_error (Oplog.load path));
      (match Oplog.create ~path () with
      | Error e -> Alcotest.failf "self-heal failed: %s" e
      | Ok l ->
          oplog_event l 11;
          Oplog.close l);
      match Oplog.load path with
      | Error e -> Alcotest.failf "healed oplog unreadable: %s" e
      | Ok ((), records) ->
          check_int "torn record dropped, append went through" 11
            (List.length records))

let oplog_rotation () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "ops.log" in
      match Oplog.create ~path ~max_bytes:512 ~keep:2 () with
      | Error e -> Alcotest.fail e
      | Ok l ->
          for i = 0 to 99 do
            oplog_event l i
          done;
          Oplog.close l;
          check_bool "rotated generation exists" true
            (Sys.file_exists (path ^ ".1"));
          check_bool "keep bound respected" false
            (Sys.file_exists (path ^ ".3"));
          (* Every surviving generation is a valid container. *)
          List.iter
            (fun p ->
              if Sys.file_exists p then
                match Oplog.load p with
                | Ok ((), records) ->
                    check_bool (p ^ " non-empty") true (records <> [])
                | Error e -> Alcotest.failf "%s unreadable: %s" p e)
            [ path; path ^ ".1"; path ^ ".2" ])

(* ------------------------------------------------------------------ *)
(* Campaign-level byte identity                                        *)
(* ------------------------------------------------------------------ *)

let tiny =
  {
    P.default with
    P.name = "telemetry";
    functions = 8;
    hot_functions = 4;
    iterations = 12;
    inner_trips = 6;
    seed = 0x7E1E_3E7AL;
  }

let program = lazy (Stz_workloads.Generate.program tiny)
let config = S.Config.stabilizer
let args = [ 1 ]
let policy = { S.Supervisor.default_policy with S.Supervisor.max_retries = 2 }

let campaign ?(runs = 50) ?(jobs = 1) ?checkpoint ?(resume = false) ?telemetry
    ~seed profile =
  S.Supervisor.run_campaign ~policy ~profile ~jobs ?checkpoint ~resume
    ?telemetry ~config ~base_seed:(Int64.of_int seed) ~runs ~args
    (Lazy.force program)

let with_temp f =
  let path = Filename.temp_file "stz-telemetry" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let trace_bytes tr = Export.chrome_string (Trace.events tr)

let jobs4_trace_is_byte_identical_to_serial () =
  (* The acceptance property: 50-run light-fault campaign, fixed seed —
     trace and metrics bytes must not depend on the worker count. *)
  let tr1 = Trace.create ~lanes:4 () in
  let tr4 = Trace.create ~lanes:4 () in
  let c1 = campaign ~seed:7 ~telemetry:tr1 F.light in
  let c4 = campaign ~seed:7 ~jobs:4 ~telemetry:tr4 F.light in
  let t1 = trace_bytes tr1 and t4 = trace_bytes tr4 in
  check_bool "traces byte-identical (jobs 1 vs 4)" true (t1 = t4);
  check_string "metrics byte-identical"
    (Metrics.snapshot (S.Rollup.of_campaign c1))
    (Metrics.snapshot (S.Rollup.of_campaign c4));
  (match Export.validate_chrome_string t1 with
  | Error e -> Alcotest.failf "campaign trace invalid: %s" e
  | Ok (spans, _) ->
      check_bool "at least one span per run" true
        (spans >= c1.S.Supervisor.runs));
  (* Tracing itself must not perturb the experiment. *)
  let plain = campaign ~seed:7 F.light in
  check_bool "tracing does not change the records" true
    (plain.S.Supervisor.records = c1.S.Supervisor.records)

let count_named name tr =
  List.length (List.filter (fun e -> Event.name e = name) (Trace.events tr))

let sigkill_resume_trace_is_prefix_consistent () =
  (* Fork a child that runs a --jobs 4 traced campaign and SIGKILLs
     itself after 12 delivered runs — a real kill -9, no cleanup. The
     parent resumes from the surviving checkpoint with telemetry on and
     demands (a) identical final records, (b) a valid trace whose
     restored prefix matches the checkpoint, run for run, with each
     restored span's duration equal to the cycles the checkpoint
     recorded. *)
  with_temp (fun path ->
      let uninterrupted = campaign ~seed:11 F.light in
      (match Unix.fork () with
      | 0 ->
          let seen = ref 0 in
          (try
             ignore
               (S.Supervisor.run_campaign ~policy ~profile:F.light ~jobs:4
                  ~checkpoint:path
                  ~on_record:(fun _ ->
                    incr seen;
                    if !seen = 12 then Unix.kill (Unix.getpid ()) Sys.sigkill)
                  ~config ~base_seed:11L ~runs:50 ~args (Lazy.force program))
           with _ -> ());
          Unix._exit 0
      | pid -> (
          match Unix.waitpid [] pid with
          | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
          | _, status ->
              Alcotest.failf "child was not SIGKILLed: %s"
                (match status with
                | Unix.WEXITED c -> Printf.sprintf "exit %d" c
                | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
                | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s)));
      let mid =
        match S.Supervisor.load path with
        | Ok c -> c
        | Error e -> Alcotest.failf "checkpoint unreadable after SIGKILL: %s" e
      in
      let prefix_len = List.length mid.S.Supervisor.records in
      check_bool "checkpoint holds a non-empty strict prefix" true
        (prefix_len > 0 && prefix_len < 50);
      let tr = Trace.create ~lanes:4 () in
      let resumed =
        campaign ~seed:11 ~jobs:4 ~checkpoint:path ~resume:true ~telemetry:tr
          F.light
      in
      check_bool "resumed records identical to uninterrupted" true
        (resumed.S.Supervisor.records = uninterrupted.S.Supervisor.records);
      (match Export.validate_chrome_string (trace_bytes tr) with
      | Error e -> Alcotest.failf "resumed trace invalid: %s" e
      | Ok _ -> ());
      check_int "one restored event per checkpointed run" prefix_len
        (count_named "restored" tr);
      check_int "live run spans cover the rest" (50 - prefix_len)
        (count_named "run" tr);
      (* Restored spans replay the recorded cycles, run for run. *)
      let restored_durs =
        List.filter_map
          (function
            | Event.Span { name = "restored"; dur; _ } -> Some dur
            | _ -> None)
          (Trace.events tr)
      in
      let expected_durs =
        List.filter_map
          (fun (r : S.Supervisor.record) ->
            match r.S.Supervisor.outcome with
            | S.Supervisor.Done d -> Some d.S.Supervisor.cycles
            | S.Supervisor.Trapped (_, Some pp)
            | S.Supervisor.Budget_exceeded pp
            | S.Supervisor.Invalid_result pp ->
                Some pp.S.Runtime.p_cycles
            | S.Supervisor.Trapped (_, None)
            | S.Supervisor.Worker_lost | S.Supervisor.Worker_hung -> None)
          mid.S.Supervisor.records
      in
      check_bool "restored spans carry the checkpointed cycles" true
        (restored_durs = expected_durs))

(* ------------------------------------------------------------------ *)
(* Sample-level trace and rollup                                       *)
(* ------------------------------------------------------------------ *)

let sample_trace_and_rollup () =
  let collect jobs =
    S.Sample.collect ~jobs ~events:true ~config ~base_seed:5L ~runs:12 ~args
      (Lazy.force program)
  in
  let s1 = collect 1 and s4 = collect 4 in
  let bytes s =
    Export.chrome_string
      (Trace.events (S.Rollup.trace_of_outcomes s.S.Sample.outcomes))
  in
  check_bool "sample traces byte-identical (jobs 1 vs 4)" true
    (bytes s1 = bytes s4);
  check_string "sample metrics byte-identical"
    (Metrics.snapshot (S.Rollup.of_sample s1))
    (Metrics.snapshot (S.Rollup.of_sample s4));
  (match Export.validate_chrome_string (bytes s1) with
  | Error e -> Alcotest.failf "sample trace invalid: %s" e
  | Ok (spans, _) ->
      (* each run contributes its outer "run" span plus the runtime's
         inner "execute" span (events were on) *)
      check_int "run + execute span per completed run" 24 spans);
  let m = S.Rollup.of_sample s1 in
  check_int "rollup counts the runs" 12 (Metrics.get m "sample.runs");
  check_bool "hardware counters aggregated" true
    (Metrics.get m "counters.cycles" > 0
    && Metrics.get m "counters.instructions" > 0)

let () =
  Alcotest.run "telemetry"
    [
      ( "runlog",
        [
          Alcotest.test_case "span nesting" `Quick runlog_nesting;
          Alcotest.test_case "misuse rejected" `Quick runlog_rejects_misuse;
          Alcotest.test_case "crash-path close" `Quick runlog_close_is_crash_safe;
        ] );
      ( "metrics",
        [ Alcotest.test_case "round-trip" `Quick metrics_roundtrip ] );
      ( "ops",
        [
          Alcotest.test_case "histogram bucket layout" `Quick hist_layout_golden;
          Alcotest.test_case "histogram percentiles golden" `Quick
            hist_percentiles_golden;
          Alcotest.test_case "histogram merge" `Quick hist_merge_matches_single;
          Alcotest.test_case "registry snapshot + prometheus" `Quick
            ops_registry_snapshot;
        ] );
      ( "oplog",
        [
          Alcotest.test_case "round-trip + self-heal" `Quick
            oplog_roundtrip_and_self_heal;
          Alcotest.test_case "rotation" `Quick oplog_rotation;
        ] );
      ( "trace",
        [ Alcotest.test_case "lane assignment" `Quick trace_lane_assignment ] );
      ( "export",
        [
          Alcotest.test_case "chrome golden structure" `Quick
            chrome_export_is_valid;
          Alcotest.test_case "validator rejects garbage" `Quick
            validator_rejects_garbage;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs 4 trace byte-identical" `Quick
            jobs4_trace_is_byte_identical_to_serial;
          Alcotest.test_case "SIGKILL + resume prefix-consistent" `Quick
            sigkill_resume_trace_is_prefix_consistent;
        ] );
      ( "sample",
        [ Alcotest.test_case "trace + rollup" `Quick sample_trace_and_rollup ] );
    ]
