module S = Stabilizer
module Artifact = Stz_store.Artifact

type event =
  | Want of int
  | Freed of int
  | Progress of { run : int; line : string }
  | Finished of { exit_code : int; line : string }

type grant = Grant of int | Stop

let exit_finished = 0
let exit_stopped = 10
let exit_orphaned = 11

(* Both pipes speak Parallel's frame: one Marshal value per message,
   far below PIPE_BUF, so each is one atomic write and a reader woken
   by select can block-read the rest of it. *)

let send_grant fd (g : grant) =
  try
    S.Parallel.send fd g;
    true
  with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) -> false

let read_event fd : event option = S.Parallel.recv fd

(* ------------------------------------------------------------------ *)
(* Campaign execution                                                  *)
(* ------------------------------------------------------------------ *)

exception Stopped
exception Orphaned

let exec ~grant_r ~event_w ~dir ~(spec : Spool.spec) ~resume ~disarm_storage =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* The daemon dying must not orphan the runner into a default SIGTERM
     death mid-write; drain arrives as a Stop grant instead. *)
  let send_event (e : event) =
    try S.Parallel.send event_w e
    with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) -> ()
  in
  let acquire wanted =
    send_event (Want wanted);
    match (S.Parallel.recv grant_r : grant option) with
    | Some (Grant n) -> n
    | Some Stop -> raise Stopped
    | None -> raise Orphaned
  in
  let release n = send_event (Freed n) in
  let dispatch = S.Parallel.batched ~acquire ~release in
  let profile =
    match Stz_faults.Fault.profile_of_string spec.Spool.faults with
    | Ok p -> p
    | Error e -> failwith ("runner: invalid fault profile: " ^ e)
  in
  let storage =
    match Stz_faults.Storage.profile_of_string spec.Spool.storage_faults with
    | Ok p -> p
    | Error e -> failwith ("runner: invalid storage profile: " ^ e)
  in
  let opt =
    match Stz_vm.Opt.level_of_string spec.Spool.opt with
    | Some l -> l
    | None -> failwith ("runner: invalid opt level " ^ spec.Spool.opt)
  in
  let bench_profile =
    match Stz_workloads.Spec.find spec.Spool.bench with
    | Some p -> Stz_workloads.Profile.scale spec.Spool.scale p
    | None -> failwith ("runner: unknown benchmark " ^ spec.Spool.bench)
  in
  let program = Stz_workloads.Generate.program bench_profile in
  let config = S.Config.stabilizer in
  let monitor =
    if spec.Spool.ledger then Some (Stz_monitor.Monitor.create ()) else None
  in
  let telemetry =
    if spec.Spool.trace then Some (Stz_telemetry.Trace.create ~lanes:4 ())
    else None
  in
  (* Under a wedge-free profile nothing can legitimately hang, and a
     calibrated grace could misfire when the host is oversubscribed by
     concurrent tenants — a spurious Worker_hung would break byte
     identity with the solo run. Use a large fixed grace instead;
     wedge-armed profiles keep the calibrated watchdog. *)
  let policy =
    let base =
      {
        S.Supervisor.default_policy with
        S.Supervisor.max_retries = spec.Spool.retries;
      }
    in
    if profile.Stz_faults.Fault.wedge = 0.0 then
      { base with S.Supervisor.hang_grace = Some 120.0 }
    else base
  in
  if (not disarm_storage) && Stz_faults.Storage.active storage then
    Stz_faults.Storage.arm ~seed:(Int64.of_int spec.Spool.storage_seed) storage;
  let finish outcome exit_code line =
    Stz_faults.Storage.disarm ();
    Spool.write_result ~dir outcome;
    send_event (Finished { exit_code; line });
    (try Unix.close event_w with Unix.Unix_error _ -> ());
    exit exit_finished
  in
  match
    S.Driver.campaign ~policy ~profile ~jobs:2
      ~checkpoint:(Spool.checkpoint_path dir) ~resume ?telemetry ?monitor
      ~dispatch
      ~on_record:(fun r ->
        send_event
          (Progress { run = r.S.Supervisor.run; line = S.Report.run_line r }))
      ~config ~opt
      ~base_seed:(Int64.of_int spec.Spool.seed)
      ~runs:spec.Spool.runs ~args:Stz_workloads.Generate.default_args program
  with
  | exception Stopped ->
      Stz_faults.Storage.disarm ();
      exit exit_stopped
  | exception Orphaned ->
      Stz_faults.Storage.disarm ();
      exit exit_orphaned
  | exception S.Supervisor.Mismatch msg ->
      finish (Spool.Finished 3) 3 ("campaign aborted: " ^ msg)
  | campaign ->
      let summary = S.Supervisor.summarize campaign in
      (match (spec.Spool.trace, telemetry) with
      | true, Some tr ->
          Artifact.write_with_sum (Spool.trace_path dir)
            (Stz_telemetry.Export.chrome_string (Stz_telemetry.Trace.events tr))
      | _ -> ());
      Artifact.write_with_sum (Spool.csv_path dir)
        (S.Report.csv_of_campaign campaign);
      let ledger_failed =
        if not spec.Spool.ledger then None
        else
          let fp =
            S.History.fingerprint ~bench:spec.Spool.bench ~opt
              ~scale:spec.Spool.scale campaign
          in
          let verdict =
            match monitor with
            | Some m ->
                Stz_monitor.Monitor.verdict_to_string
                  (Stz_monitor.Monitor.advise m)
            | None -> "-"
          in
          let entry =
            S.History.entry_of_campaign ~verdict ~label:spec.Spool.bench
              ~fingerprint:fp campaign
          in
          match Stz_store.Ledger.append (Spool.ledger_path dir) entry with
          | Ok _ -> None
          | Error e -> Some e
      in
      match ledger_failed with
      | Some e ->
          finish (Spool.Finished 3) 3
            (Printf.sprintf "campaign aborted: ledger %s: %s"
               (Spool.ledger_path dir) e)
      | None ->
          let exit_code =
            if summary.S.Supervisor.completed = 0 then 3
            else if summary.S.Supervisor.completed < spec.Spool.min_n then 2
            else 0
          in
          finish (Spool.Finished exit_code) exit_code
            (S.Report.campaign_line summary)
