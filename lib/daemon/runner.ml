module S = Stabilizer
module Artifact = Stz_store.Artifact

type event =
  | Want of int
  | Freed of int
  | Progress of { run : int; line : string }

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
  (* The result record, written with storage faults off, is what ends a
     campaign: the daemon reads it once this process has exited. *)
  let finish exit_code line =
    Stz_faults.Storage.disarm ();
    Spool.write_result ~dir (Spool.Finished { exit_code; line });
    exit exit_finished
  in
  let rs =
    match Spool.resolve spec with
    | Ok rs -> rs
    | Error e -> finish 3 ("campaign aborted: invalid spec: " ^ e)
  in
  let program = Stz_workloads.Generate.program rs.Spool.workload in
  let config = S.Config.stabilizer in
  let monitor =
    if spec.Spool.ledger then Some (Stz_monitor.Monitor.create ()) else None
  in
  let telemetry =
    if spec.Spool.trace then Some (Stz_telemetry.Trace.create ())
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
    if rs.Spool.profile.Stz_faults.Fault.wedge = 0.0 then
      { base with S.Supervisor.hang_grace = Some 120.0 }
    else base
  in
  if (not disarm_storage) && Stz_faults.Storage.active rs.Spool.storage then
    Stz_faults.Storage.arm
      ~seed:(Int64.of_int spec.Spool.storage_seed)
      rs.Spool.storage;
  match
    S.Driver.campaign ~policy ~profile:rs.Spool.profile ~jobs:2
      ~checkpoint:(Spool.checkpoint_path dir) ~resume ?telemetry ?monitor
      ~dispatch
      ~on_record:(fun r ->
        send_event
          (Progress { run = r.S.Supervisor.run; line = S.Report.run_line r }))
      ~config ~opt:rs.Spool.level
      ~base_seed:(Int64.of_int spec.Spool.seed)
      ~runs:spec.Spool.runs ~args:Stz_workloads.Generate.default_args program
  with
  | exception Stopped ->
      Stz_faults.Storage.disarm ();
      exit exit_stopped
  | exception Orphaned ->
      Stz_faults.Storage.disarm ();
      exit exit_orphaned
  | exception S.Supervisor.Mismatch msg -> finish 3 ("campaign aborted: " ^ msg)
  | campaign -> (
      (match (spec.Spool.trace, telemetry) with
      | true, Some tr ->
          Artifact.write_with_sum (Spool.trace_path dir)
            (Stz_telemetry.Export.chrome_string (Stz_telemetry.Trace.events tr))
      | _ -> ());
      Artifact.write_with_sum (Spool.csv_path dir)
        (S.Report.csv_of_campaign campaign);
      let path = Spool.ledger_path dir in
      let appended =
        if spec.Spool.ledger then
          S.History.append ?monitor ~bench:spec.Spool.bench ~opt:rs.Spool.level
            ~scale:spec.Spool.scale path campaign
        else Ok 0
      in
      match appended with
      | Error e ->
          finish 3 (Printf.sprintf "campaign aborted: ledger %s: %s" path e)
      | Ok _ ->
          let summary = S.Supervisor.summarize campaign in
          finish
            (S.Supervisor.exit_code ~min_n:spec.Spool.min_n summary)
            (S.Report.campaign_line summary))
