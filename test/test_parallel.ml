(* The fork pool and the parallel campaign path: --jobs N must be an
   implementation detail, never an observable one. Samples, outcome
   CSVs and JSON checkpoints have to be byte-identical to a serial
   campaign's, for any worker count, through worker deaths and through
   kill + resume. *)

module S = Stabilizer
module F = Stz_faults.Fault
module P = Stz_workloads.Profile

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Parallel.map, directly                                              *)
(* ------------------------------------------------------------------ *)

let value = function
  | S.Parallel.Value v -> v
  | S.Parallel.Lost -> Alcotest.fail "unexpected Lost"
  | S.Parallel.Hung -> Alcotest.fail "unexpected Hung"

let map_matches_serial () =
  for n = 0 to 12 do
    for jobs = 1 to 5 do
      let f i = (i * i) + (31 * i) + 7 in
      let got = S.Parallel.map ~jobs ~f n in
      check_int (Printf.sprintf "n=%d jobs=%d: length" n jobs) n
        (Array.length got);
      Array.iteri
        (fun i r ->
          check_int (Printf.sprintf "n=%d jobs=%d: slot %d" n jobs i) (f i)
            (value r))
        got
    done
  done

let map_matches_serial_prop =
  QCheck.Test.make ~name:"map is f applied index-wise, any worker count"
    ~count:30
    QCheck.(pair (int_bound 20) (int_bound 6))
    (fun (n, jobs) ->
      let f i = (7 * i) + 3 in
      S.Parallel.map ~jobs:(jobs + 1) ~f n
      = Array.init n (fun i -> S.Parallel.Value (f i)))

let on_result_reports_each_task_once () =
  (* Later tasks finish first — task i sleeps (n - i) * 20 ms — yet
     every path must report each task exactly once, in task order. *)
  let n = 8 in
  let run name ?watchdog ?(lost = -1) (d : S.Parallel.dispatcher) =
    let seen = ref [] in
    d.S.Parallel.dispatch ?watchdog ~jobs:4
      ~on_result:(fun i r -> seen := (i, r) :: !seen)
      ~f:(fun i ->
        if i = lost then Unix._exit 1;
        Unix.sleepf (0.02 *. float_of_int (n - i));
        i)
      n;
    let seen = List.rev !seen in
    check_bool (name ^ ": each task once, in task order") true
      (List.map fst seen = List.init n Fun.id);
    List.iter
      (fun (i, r) ->
        if i = lost then
          check_bool (name ^ ": task lost") true (r = S.Parallel.Lost)
        else check_int (Printf.sprintf "%s: task %d" name i) i (value r))
      seen
  in
  run "forked" S.Parallel.pool_dispatcher;
  run "forked, watchdog" ~watchdog:30.0 S.Parallel.pool_dispatcher;
  run "lost task in the middle" ~lost:3 S.Parallel.pool_dispatcher;
  let grants = ref [ 3; 1; 4 ] in
  run "batched, uneven grants"
    (S.Parallel.batched
       ~acquire:(fun wanted ->
         match !grants with
         | g :: rest ->
             grants := rest;
             min g wanted
         | [] -> wanted)
       ~release:ignore)

let workers_actually_overlap () =
  (* Sleeping tasks prove concurrency even on a single-CPU box: eight
     0.15 s sleeps across four workers must beat the 1.2 s a serial
     execution needs by a wide margin. *)
  let t0 = Unix.gettimeofday () in
  let r = S.Parallel.map ~jobs:4 ~f:(fun i -> Unix.sleepf 0.15; i) 8 in
  let elapsed = Unix.gettimeofday () -. t0 in
  Array.iteri (fun i x -> check_int "slot" i (value x)) r;
  check_bool
    (Printf.sprintf "8x0.15s over 4 workers took %.2fs (serial: 1.2s)" elapsed)
    true (elapsed < 1.0)

let dead_worker_censors_only_its_task () =
  (* Worker 2's stripe is [2; 5; 8]: it reports 2, dies executing 5,
     and the respawned replacement still delivers 8. *)
  let f i = if i = 5 then Unix._exit 42 else i * 10 in
  let got = S.Parallel.map ~jobs:3 ~f 9 in
  Array.iteri
    (fun i r ->
      if i = 5 then
        check_bool "task 5 lost" true (r = S.Parallel.Lost)
      else check_int (Printf.sprintf "task %d survives" i) (i * 10) (value r))
    got

let wedge () =
  (* An honest wedge: alive, scheduled, making no progress and sending
     no beats — exactly what a livelocked run looks like. *)
  while true do
    ignore (Unix.select [] [] [] 0.05)
  done;
  assert false

let watchdog_kills_wedged_worker () =
  (* Task 3 wedges its worker; the watchdog must declare it Hung within
     the grace and every other task must still deliver. *)
  let hung = ref [] in
  let got =
    S.Parallel.map
      ~on_pool_event:(function
        | S.Parallel.Worker_hung { lost_task; _ } -> hung := lost_task :: !hung
        | _ -> ())
      ~watchdog:0.5 ~jobs:3
      ~f:(fun i -> if i = 3 then wedge () else i * 10)
      9
  in
  Array.iteri
    (fun i r ->
      if i = 3 then check_bool "task 3 hung" true (r = S.Parallel.Hung)
      else check_int (Printf.sprintf "task %d survives" i) (i * 10) (value r))
    got;
  check_bool "pool reported the hang" true (!hung = [ Some 3 ])

let watchdog_spares_beating_workers () =
  (* A task slower than the grace but beating through it must NOT be
     declared hung. *)
  let got =
    S.Parallel.map ~watchdog:0.3 ~jobs:2
      ~f:(fun i ->
        if i = 1 then
          for _ = 1 to 8 do
            Unix.sleepf 0.1;
            S.Parallel.beat ()
          done;
        i)
      4
  in
  Array.iteri (fun i r -> check_int "all delivered" i (value r)) got

let watchdog_forces_fork_at_jobs1 () =
  (* Hang recovery needs a process boundary: with a watchdog even
     jobs:1 forks, so a wedge costs one task, not the whole process. *)
  let got =
    S.Parallel.map ~watchdog:0.5 ~jobs:1
      ~f:(fun i -> if i = 1 then wedge () else i)
      3
  in
  check_bool "wedged task censored" true (got.(1) = S.Parallel.Hung);
  check_int "tasks after the wedge still run" 2 (value got.(2))

exception Boom

let raising_on_result_reaps_workers () =
  (* The pool must not leak children when the merge callback raises. *)
  let raised = ref false in
  (try
     ignore
       (S.Parallel.map
          ~on_result:(fun _ _ -> raise Boom)
          ~jobs:3
          ~f:(fun i -> Unix.sleepf 0.05; i)
          9)
   with Boom -> raised := true);
  check_bool "exception propagates" true !raised;
  (* Every child is dead and reaped: no process in our group left. *)
  let none_left =
    match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
    | 0, _ -> false
    | _ -> false
  in
  check_bool "no zombie workers" true none_left

(* ------------------------------------------------------------------ *)
(* Campaign determinism under --jobs                                   *)
(* ------------------------------------------------------------------ *)

let tiny =
  {
    P.default with
    P.name = "parallel";
    functions = 8;
    hot_functions = 4;
    iterations = 12;
    inner_trips = 6;
    seed = 0xBA_8A_11E1L;
  }

let program = lazy (Stz_workloads.Generate.program tiny)
let config = S.Config.stabilizer
let args = [ 1 ]

let policy =
  { S.Supervisor.default_policy with S.Supervisor.max_retries = 2 }

let campaign ?(runs = 50) ?(jobs = 1) ?checkpoint ?(resume = false) ?on_record
    ~seed profile =
  S.Supervisor.run_campaign ~policy ~profile ~jobs ?checkpoint ~resume
    ?on_record ~config ~base_seed:(Int64.of_int seed) ~runs ~args
    (Lazy.force program)

let with_temp f =
  let path = Filename.temp_file "stz-parallel" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let jobs4_is_byte_identical_to_serial () =
  (* The tentpole property: a 50-run light-fault campaign under --jobs 4
     leaves exactly the bytes a serial one does — outcome CSV and JSON
     checkpoint both. *)
  with_temp (fun path1 ->
      with_temp (fun path4 ->
          let c1 = campaign ~seed:7 ~checkpoint:path1 F.light in
          let c4 = campaign ~seed:7 ~jobs:4 ~checkpoint:path4 F.light in
          check_string "outcome CSVs byte-identical"
            (S.Report.csv_of_campaign c1)
            (S.Report.csv_of_campaign c4);
          check_string "checkpoints byte-identical" (read_file path1)
            (read_file path4);
          check_bool "times bit-identical" true
            (S.Supervisor.times c1 = S.Supervisor.times c4)))

exception Killed

let kill_and_resume_under_jobs4_is_byte_identical () =
  (* Kill a --jobs 4 campaign after 12 delivered runs, resume it under
     --jobs 4, and demand the serial campaign's exact bytes. *)
  with_temp (fun serial_path ->
      with_temp (fun par_path ->
          let serial = campaign ~seed:11 ~checkpoint:serial_path F.light in
          let seen = ref 0 in
          (try
             ignore
               (campaign ~seed:11 ~jobs:4 ~checkpoint:par_path
                  ~on_record:(fun _ ->
                    incr seen;
                    if !seen = 12 then raise Killed)
                  F.light)
           with Killed -> ());
          check_int "killed mid-campaign" 12 !seen;
          (* The interrupted checkpoint holds a prefix of completed
             runs, exactly as a serial interruption would. *)
          (match S.Supervisor.load par_path with
          | Error e -> Alcotest.failf "mid-flight checkpoint: %s" e
          | Ok mid ->
              let serial_prefix =
                List.filteri
                  (fun i _ -> i < List.length mid.S.Supervisor.records)
                  serial.S.Supervisor.records
              in
              check_bool "mid-flight checkpoint is a run-order prefix" true
                (mid.S.Supervisor.records = serial_prefix));
          let resumed =
            campaign ~seed:11 ~jobs:4 ~checkpoint:par_path ~resume:true F.light
          in
          check_bool "records identical after resume" true
            (serial.S.Supervisor.records = resumed.S.Supervisor.records);
          check_string "final checkpoints byte-identical"
            (read_file serial_path) (read_file par_path);
          check_string "outcome CSVs byte-identical"
            (S.Report.csv_of_campaign serial)
            (S.Report.csv_of_campaign resumed)))

let heavy_faults_jobs_identical () =
  (* Retries and quarantine stay seed-derived, so even a heavily
     faulting campaign merges identically. *)
  let c1 = campaign ~runs:16 ~seed:3 F.heavy in
  let c3 = campaign ~runs:16 ~seed:3 ~jobs:3 F.heavy in
  check_bool "records" true
    (c1.S.Supervisor.records = c3.S.Supervisor.records);
  check_bool "quarantine order" true
    (c1.S.Supervisor.quarantined = c3.S.Supervisor.quarantined);
  check_string "CSV" (S.Report.csv_of_campaign c1) (S.Report.csv_of_campaign c3)

(* A dispatcher that records each call's task count and reports runs 1
   and 3 as lost, whatever their workers computed. Pending runs reach
   it in run order, so a running offset maps a call's positions to
   runs. *)
let losing_dispatcher calls =
  let offset = ref 0 in
  {
    S.Parallel.dispatch =
      (fun ?on_result ?on_pool_event ?watchdog ~jobs ~f n ->
        let base = !offset in
        calls := n :: !calls;
        offset := base + n;
        let lose g pos r =
          g pos (if base + pos = 1 || base + pos = 3 then S.Parallel.Lost else r)
        in
        S.Parallel.pool_dispatcher.S.Parallel.dispatch
          ?on_result:(Option.map lose on_result)
          ?on_pool_event ?watchdog ~jobs ~f n);
  }

let waves_match_serial_loop () =
  (* Runs 1 and 3 are lost, so the first wave of five completes three
     runs, a second wave of two freezes the budgets and the other nine
     go out together. The one-run-at-a-time loop made the calls
     [1; 1; 1; 1; 1; 1; 1; 9]. The digests were taken from that loop
     (commit e01e3cc) with this dispatcher at --jobs 2 and 4. *)
  List.iter
    (fun jobs ->
      with_temp (fun path ->
          let calls = ref [] in
          let c =
            S.Supervisor.run_campaign ~policy ~profile:F.none ~jobs
              ~checkpoint:path ~dispatch:(losing_dispatcher calls) ~config
              ~base_seed:5L ~runs:16 ~args (Lazy.force program)
          in
          let where = Printf.sprintf "jobs %d: " jobs in
          Alcotest.(check (list int))
            (where ^ "dispatch sizes") [ 5; 2; 9 ] (List.rev !calls);
          check_string (where ^ "CSV") "4c32dff452a359b6587b44913b428cc2"
            (Digest.to_hex (Digest.string (S.Report.csv_of_campaign c)));
          check_string (where ^ "checkpoint") "f55e7a31a7229c64daa3234f86ff9583"
            (Digest.to_hex (Digest.file path))))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Wedged runs: the watchdog inside a campaign                         *)
(* ------------------------------------------------------------------ *)

let wedgy = { F.none with F.wedge = 0.4 }

let fast_hang_policy =
  {
    policy with
    S.Supervisor.hang_grace = Some 0.5;
    S.Supervisor.max_retries = 1;
  }

let wedge_campaign ~jobs ~seed =
  S.Supervisor.run_campaign ~policy:fast_hang_policy ~profile:wedgy ~jobs
    ~config ~base_seed:(Int64.of_int seed) ~runs:10 ~args (Lazy.force program)

let wedged_campaign_is_censored_not_stalled () =
  (* A campaign whose profile wedges runs must complete (no stall),
     censor the wedged runs as worker-hung, and keep its books
     balanced. *)
  let c = wedge_campaign ~jobs:2 ~seed:17 in
  let s = S.Supervisor.summarize c in
  check_int "every run accounted for" 10 (List.length c.S.Supervisor.records);
  check_bool "some runs actually wedged" true (s.S.Supervisor.worker_hung > 0);
  check_int "completed + censored = runs" 10
    (s.S.Supervisor.completed + s.S.Supervisor.censored)

let wedged_campaign_jobs_identical () =
  (* Hang recovery may not cost determinism: the same wedgy campaign
     under 2 and 3 workers leaves identical records and CSV. *)
  let c2 = wedge_campaign ~jobs:2 ~seed:17 in
  let c3 = wedge_campaign ~jobs:3 ~seed:17 in
  check_bool "records" true
    (c2.S.Supervisor.records = c3.S.Supervisor.records);
  check_bool "quarantine" true
    (c2.S.Supervisor.quarantined = c3.S.Supervisor.quarantined);
  check_string "CSV" (S.Report.csv_of_campaign c2) (S.Report.csv_of_campaign c3)

let wedged_checkpoint_derived_state_identity () =
  (* Worker-hung records quarantine nothing; tearing the state record
     off a wedgy campaign's checkpoint and re-deriving it must agree —
     an extra derived seed would diverge from the uninterrupted
     bytes. *)
  let with_temp f =
    let path = Filename.temp_file "stz-wedge" ".ck" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () -> f path)
  in
  with_temp (fun path ->
      let c =
        S.Supervisor.run_campaign ~policy:fast_hang_policy ~profile:wedgy
          ~jobs:2 ~checkpoint:path ~config ~base_seed:17L ~runs:10 ~args
          (Lazy.force program)
      in
      check_bool "campaign has hung records" true
        ((S.Supervisor.summarize c).S.Supervisor.worker_hung > 0);
      let salvage = Stz_store.Artifact.salvage_file path in
      match salvage with
      | Error e -> Alcotest.failf "salvage: %s" e
      | Ok s ->
          Stz_store.Artifact.write_records path ~kind:"szc-checkpoint"
            (List.filter
               (fun (tag, _) -> tag <> "state")
               s.Stz_store.Artifact.records);
          (match S.Supervisor.recover path with
          | Error e -> Alcotest.failf "recover: %s" e
          | Ok (got, note) ->
              check_bool "salvage noted" true (note <> None);
              check_bool "derived quarantine identical" true
                (got.S.Supervisor.quarantined = c.S.Supervisor.quarantined);
              check_bool "records identical" true
                (got.S.Supervisor.records = c.S.Supervisor.records)))

let calibrated_watchdog_across_a_wave () =
  (* Run 3 of seed 3 wedges inside the first wave, under the grace the
     campaign calibrates itself (at least 1 s): each campaign must
     finish in about that second, censor exactly the wedged run, and
     leave the same CSV at 2 and 3 workers. *)
  let wedge_policy = { fast_hang_policy with S.Supervisor.hang_grace = None } in
  let run jobs =
    let t0 = Unix.gettimeofday () in
    let c =
      S.Supervisor.run_campaign ~policy:wedge_policy
        ~profile:{ F.none with F.wedge = 0.1 }
        ~jobs ~config ~base_seed:3L ~runs:10 ~args (Lazy.force program)
    in
    let s = S.Supervisor.summarize c in
    let where = Printf.sprintf "jobs %d: " jobs in
    check_bool (where ^ "well inside the 60 s uncalibrated grace") true
      (Unix.gettimeofday () -. t0 < 30.0);
    check_bool (where ^ "run 3 censored as worker-hung") true
      (List.exists
         (fun r ->
           r.S.Supervisor.run = 3
           && r.S.Supervisor.outcome = S.Supervisor.Worker_hung)
         c.S.Supervisor.records);
    check_int (where ^ "one hung run") 1 s.S.Supervisor.worker_hung;
    check_int (where ^ "completed + censored = runs") 10
      (s.S.Supervisor.completed + s.S.Supervisor.censored);
    S.Report.csv_of_campaign c
  in
  check_string "CSV identical at 2 and 3 workers" (run 2) (run 3)

let serial_wedge_is_rejected () =
  (* A wedge without a worker pool would hang the harness itself; the
     supervisor must refuse up front. *)
  Alcotest.check_raises "jobs 1 + wedge raises Mismatch"
    (S.Supervisor.Mismatch
       "run_campaign: wedge-armed profiles need jobs >= 2 (hang recovery \
        requires a worker pool)")
    (fun () -> ignore (wedge_campaign ~jobs:1 ~seed:17))

(* ------------------------------------------------------------------ *)
(* Spawn failure and EINTR robustness                                  *)
(* ------------------------------------------------------------------ *)

let with_forced_failures n f =
  S.Parallel.forced_fork_failures := n;
  Fun.protect ~finally:(fun () -> S.Parallel.forced_fork_failures := 0) f

let spawn_failed_events events =
  List.filter_map
    (function S.Parallel.Worker_spawn_failed { tasks } -> Some tasks | _ -> None)
    events

let transient_fork_failures_are_retried () =
  (* Three EAGAINs in a row are absorbed by the backoff schedule: every
     value still arrives and no stripe is censored. *)
  with_forced_failures 3 (fun () ->
      let events = ref [] in
      let got =
        S.Parallel.map
          ~on_pool_event:(fun e -> events := e :: !events)
          ~jobs:2
          ~f:(fun i -> i * 3)
          8
      in
      Array.iteri
        (fun i r -> check_int "value survives fork retries" (i * 3) (value r))
        got;
      check_int "no stripe censored" 0 (List.length (spawn_failed_events !events));
      check_int "all injected failures consumed" 0 !S.Parallel.forced_fork_failures)

let spawn_failure_degrades_not_aborts () =
  (* Six failures exhaust exactly the first stripe's retry budget
     (initial attempt + 5 backoff retries): its tasks are censored
     Lost, the other stripe forks normally and delivers. *)
  with_forced_failures 6 (fun () ->
      let events = ref [] in
      let got =
        S.Parallel.map
          ~on_pool_event:(fun e -> events := e :: !events)
          ~jobs:2 ~f:(fun i -> i * 10) 4
      in
      check_bool "stripe-0 task 0 censored" true (got.(0) = S.Parallel.Lost);
      check_bool "stripe-0 task 2 censored" true (got.(2) = S.Parallel.Lost);
      check_int "stripe-1 task 1 delivered" 10 (value got.(1));
      check_int "stripe-1 task 3 delivered" 30 (value got.(3));
      check_bool "one spawn failure, stripe width 2" true
        (spawn_failed_events !events = [ 2 ]))

let exhausted_fork_budget_censors_stripes () =
  (* Fork never recovers: both stripes burn their whole budget, every
     task is reported Lost exactly once, and map still returns. *)
  with_forced_failures 12 (fun () ->
      let lost = ref 0 and events = ref [] in
      let got =
        S.Parallel.map
          ~on_result:(fun _ r -> if r = S.Parallel.Lost then incr lost)
          ~on_pool_event:(fun e -> events := e :: !events)
          ~jobs:2 ~f:Fun.id 4
      in
      Array.iteri
        (fun i r ->
          check_bool (Printf.sprintf "task %d censored" i) true
            (r = S.Parallel.Lost))
        got;
      check_int "every task reported Lost via on_result" 4 !lost;
      check_bool "both stripes reported spawn failure" true
        (spawn_failed_events !events = [ 2; 2 ]))

let eintr_storm_does_not_disturb_map () =
  (* A 10 ms SIGALRM interval hammers the parent's select loop (and the
     workers' pipe writes) with EINTR for the whole map; the retry
     paths must make that invisible. *)
  let f i =
    let acc = ref 0 in
    for k = 0 to 2_000_000 do
      acc := !acc + ((i + k) mod 7)
    done;
    !acc
  in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  let stop_timer () =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = 0.0; it_value = 0.0 })
  in
  let got =
    Fun.protect
      ~finally:(fun () ->
        stop_timer ();
        Sys.set_signal Sys.sigalrm old)
      (fun () ->
        ignore
          (Unix.setitimer Unix.ITIMER_REAL
             { Unix.it_interval = 0.01; it_value = 0.01 });
        S.Parallel.map ~jobs:2 ~f 6)
  in
  let want = Array.init 6 (fun i -> S.Parallel.Value (f i)) in
  check_bool "EINTR-riddled map matches serial" true (got = want)

let () =
  Alcotest.run "parallel"
    [
      ( "map",
        [
          Alcotest.test_case "matches serial" `Quick map_matches_serial;
          QCheck_alcotest.to_alcotest map_matches_serial_prop;
          Alcotest.test_case "on_result covers each task once" `Quick
            on_result_reports_each_task_once;
          Alcotest.test_case "workers overlap in time" `Quick
            workers_actually_overlap;
          Alcotest.test_case "dead worker censors only its task" `Quick
            dead_worker_censors_only_its_task;
          Alcotest.test_case "raising on_result reaps workers" `Quick
            raising_on_result_reaps_workers;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "kills a wedged worker" `Quick
            watchdog_kills_wedged_worker;
          Alcotest.test_case "spares a beating worker" `Quick
            watchdog_spares_beating_workers;
          Alcotest.test_case "forces a fork at jobs 1" `Quick
            watchdog_forces_fork_at_jobs1;
        ] );
      ( "spawn",
        [
          Alcotest.test_case "transient fork failures retried" `Quick
            transient_fork_failures_are_retried;
          Alcotest.test_case "spawn failure censors one stripe, pool continues"
            `Slow spawn_failure_degrades_not_aborts;
          Alcotest.test_case "exhausted fork budget censors all stripes" `Slow
            exhausted_fork_budget_censors_stripes;
          Alcotest.test_case "EINTR storm does not disturb map" `Quick
            eintr_storm_does_not_disturb_map;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs 4 byte-identical to serial" `Quick
            jobs4_is_byte_identical_to_serial;
          Alcotest.test_case "kill+resume under jobs 4 byte-identical" `Quick
            kill_and_resume_under_jobs4_is_byte_identical;
          Alcotest.test_case "heavy faults identical under jobs" `Quick
            heavy_faults_jobs_identical;
          Alcotest.test_case "calibration waves match the serial loop" `Quick
            waves_match_serial_loop;
          Alcotest.test_case "wedged runs censored, campaign completes" `Quick
            wedged_campaign_is_censored_not_stalled;
          Alcotest.test_case "wedgy campaign identical under jobs" `Quick
            wedged_campaign_jobs_identical;
          Alcotest.test_case "wedgy checkpoint derived-state identity" `Quick
            wedged_checkpoint_derived_state_identity;
          Alcotest.test_case "calibrated watchdog across a wave" `Quick
            calibrated_watchdog_across_a_wave;
          Alcotest.test_case "serial wedge rejected up front" `Quick
            serial_wedge_is_rejected;
        ] );
    ]
