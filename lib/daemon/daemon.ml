module Ops = Stz_telemetry.Ops
module Oplog = Stz_telemetry.Oplog
module Json = Stz_telemetry.Json
module Artifact = Stz_store.Artifact

type config = {
  socket : string;
  spool : string;
  limits : Quota.limits;
  slots : int;
  quantum : int;
  verbose : bool;
  oplog : string option;  (** rotating ops JSONL; [None] = off *)
  ops_export : string option;  (** Prometheus textfile; [None] = off *)
}

let default_config ~socket ~spool =
  {
    socket;
    spool;
    limits = Quota.default_limits;
    slots = 4;
    quantum = 2;
    verbose = false;
    oplog = None;
    ops_export = None;
  }

let version = "szcd/0.8"

let max_restarts = 3

(* Transient fork failures (pid/memory pressure) are retried this many
   times with doubling backoff before the spawn is reported failed. *)
let max_fork_retries = 3

(* A client that stops reading gets this much buffered output before it
   is declared wedged and detached; its campaign keeps running. *)
let max_client_outbuf = 1 lsl 20

type client = {
  c_fd : Unix.file_descr;
  mutable dec : Wire.decoder;
  mutable watching : string option;  (** runner key *)
  mutable alive : bool;
  outbuf : Buffer.t;  (** unsent frames; flushed on select writability *)
}

type runner_state = {
  key : string;
  tenant : string;
  id : string;
  r_dir : string;
  r_spec : Spool.spec;
  pid : int;
  grant_w : Unix.file_descr;
  event_r : Unix.file_descr;
  mutable log : (int * string) list;
      (** progress lines, newest first: the checkpoint's runs at spawn,
          then one per [Progress] event. One per finished run, so at
          most the admitted run count; dropped when the runner is
          reaped. *)
  mutable cancelling : bool;
  mutable stop_sent : bool;  (** a Stop grant is already queued *)
  mutable restarts : int;
}

type state = {
  cfg : config;
  quota : Quota.t;
  sched : Sched.t;
  mutable listen_fd : Unix.file_descr option;
  mutable clients : client list;
  mutable runners : runner_state list;
  mutable draining : bool;
  (* The operational plane. Everything below is wall-clock-fed and
     write-only from the campaign plane's point of view: no campaign
     decision ever reads it, so enabling it cannot change a single
     artifact byte. *)
  ops : Ops.t;
  mutable oplog : Oplog.t option;
  started_at : float;
  mutable last_drain : string option;  (** ISO-8601, from the stamp file *)
  mutable export_due : float;
}

(* ---------------------------------------------------------------- *)
(* Ops plane                                                         *)
(* ---------------------------------------------------------------- *)

let now_ms () = int_of_float (Unix.gettimeofday () *. 1000.)

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let ops_event st ev fields =
  match st.oplog with
  | None -> ()
  | Some l -> Oplog.event l ~ts_ms:(now_ms ()) ~ev fields

let last_drain_path st = Filename.concat st.cfg.spool "last-drain"

let read_last_drain st =
  match open_in (last_drain_path st) with
  | exception Sys_error _ -> None
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in_noerr ic;
      if line = "" then None else Some line

let write_last_drain st =
  let stamp = iso8601 (Unix.gettimeofday ()) in
  st.last_drain <- Some stamp;
  try Artifact.write_file (last_drain_path st) (stamp ^ "\n")
  with Sys_error _ | Unix.Unix_error _ -> ()

(* Gauges that mirror live structures; refreshed before every snapshot
   or export rather than on every mutation. *)
let refresh_gauges st =
  let lim = Quota.limits st.quota in
  Ops.set_gauge st.ops "sched.slots.busy" (Sched.busy st.sched);
  Ops.set_gauge st.ops "sched.slots.total" (Sched.slots st.sched);
  Ops.set_gauge st.ops "sched.flows" (List.length (Sched.flows st.sched));
  Ops.set_gauge st.ops "sched.deficit.total"
    (List.fold_left
       (fun acc f -> acc + f.Sched.f_deficit)
       0 (Sched.flows st.sched));
  Ops.set_gauge st.ops "quota.campaigns.inflight" (Quota.in_flight st.quota);
  Ops.set_gauge st.ops "quota.runs.inflight" (Quota.global_runs st.quota);
  Ops.set_gauge st.ops "quota.runs.budget" lim.Quota.global_run_budget;
  Ops.set_gauge st.ops "quota.tenants" (Quota.tenants st.quota);
  Ops.set_gauge st.ops "clients.connected"
    (List.length (List.filter (fun c -> c.alive) st.clients));
  Ops.set_gauge st.ops "runners.live" (List.length st.runners);
  Ops.set_gauge st.ops "daemon.draining" (if st.draining then 1 else 0);
  Ops.set_gauge st.ops "daemon.uptime_ms"
    (int_of_float ((Unix.gettimeofday () -. st.started_at) *. 1000.))

let export_ops st =
  match st.cfg.ops_export with
  | None -> ()
  | Some path -> (
      refresh_gauges st;
      try Artifact.write_file path (Ops.to_prometheus st.ops)
      with Sys_error _ | Unix.Unix_error _ -> ())

let log_line st fmt =
  Printf.ksprintf
    (fun s -> if st.cfg.verbose then Printf.eprintf "szcd: %s\n%!" s)
    fmt

let key_of ~tenant ~id = tenant ^ "/" ^ id

(* ---------------------------------------------------------------- *)
(* Client IO                                                         *)
(* ---------------------------------------------------------------- *)

let detach st c =
  if c.alive then begin
    c.alive <- false;
    Ops.incr st.ops "client.detach";
    (match c.watching with
    | Some key -> log_line st "client detached from %s (campaign keeps running)" key
    | None -> ());
    c.watching <- None;
    (try Unix.close c.c_fd with Unix.Unix_error _ -> ())
  end

(* A dead or wedged client never takes the daemon down. Client sockets
   are non-blocking: what the kernel will not take now stays in
   [c.outbuf] and is flushed when select reports writability; a client
   that stops reading overflows the bound and is detached (its campaign
   keeps running). EPIPE / ECONNRESET likewise just detach. *)
let flush_client st c =
  (if c.alive && Buffer.length c.outbuf > 0 then
     let data = Buffer.contents c.outbuf in
     let len = String.length data in
     let rec go off =
       if off >= len then Buffer.clear c.outbuf
       else
         match Unix.write_substring c.c_fd data off (len - off) with
         | n -> go (off + n)
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
         | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
           ->
             (* Socket buffer full: keep the unsent tail for later. *)
             let rest = String.sub data off (len - off) in
             Buffer.clear c.outbuf;
             Buffer.add_string c.outbuf rest
         | exception Unix.Unix_error _ -> detach st c
     in
     go 0);
  let queued = if c.alive then Buffer.length c.outbuf else 0 in
  if queued > Ops.gauge st.ops "client.outbuf.hwm" then
    Ops.set_gauge st.ops "client.outbuf.hwm" queued;
  if c.alive && queued > max_client_outbuf then begin
    log_line st "client not reading (%d bytes queued); detaching" queued;
    Ops.incr st.ops "client.wedged";
    ops_event st "client.wedged" [ ("queued", Json.Int queued) ];
    detach st c
  end

let client_write st c bytes =
  if c.alive then begin
    Buffer.add_string c.outbuf bytes;
    flush_client st c
  end

let respond st c resp = client_write st c (Protocol.response_to_frame resp)

(* ---------------------------------------------------------------- *)
(* Runners                                                           *)
(* ---------------------------------------------------------------- *)

let watchers st key =
  List.filter (fun c -> c.alive && c.watching = Some key) st.clients

(* Fork under pid/memory pressure (EAGAIN/ENOMEM) is transient more
   often than not; retry briefly like [Parallel.spawn] does, then
   report failure so the caller can reject or fail one campaign instead
   of crashing the daemon. *)
let fork_with_retry () =
  let rec go attempt =
    match Unix.fork () with
    | pid -> Ok pid
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.ENOMEM) as e, _, _) ->
        if attempt >= max_fork_retries then
          Error (Printf.sprintf "fork: %s" (Unix.error_message e))
        else begin
          (try ignore (Unix.select [] [] [] (0.05 *. float_of_int (1 lsl attempt)))
           with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          go (attempt + 1)
        end
  in
  go 0

let spawn_runner st ~tenant ~id ~dir ~spec ~resume ~disarm_storage ~restarts =
  (* Read before the fork, while nothing can be appending to it. *)
  let log = if resume then List.rev (Spool.progress ~dir) else [] in
  let grant_r, grant_w = Unix.pipe () in
  let event_r, event_w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match fork_with_retry () with
  | Error e ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ grant_r; grant_w; event_r; event_w ];
      Error e
  | Ok 0 ->
      (* Child: drop every daemon fd so a dead daemon leaves no open
         client sockets behind, then become the runner. *)
      (try Unix.close grant_w with Unix.Unix_error _ -> ());
      (try Unix.close event_r with Unix.Unix_error _ -> ());
      (match st.listen_fd with
      | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ());
      (* The oplog fd too: the runner must not pin a rotated-away log
         file open, and only the daemon process may write records. *)
      (match st.oplog with Some l -> Oplog.close l | None -> ());
      List.iter
        (fun c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ())
        st.clients;
      List.iter
        (fun r ->
          (try Unix.close r.grant_w with Unix.Unix_error _ -> ());
          try Unix.close r.event_r with Unix.Unix_error _ -> ())
        st.runners;
      Runner.exec ~grant_r ~event_w ~dir ~spec ~resume ~disarm_storage
  | Ok pid ->
      Unix.close grant_r;
      Unix.close event_w;
      Spool.write_pid ~dir pid;
      let key = key_of ~tenant ~id in
      Sched.register st.sched ~key;
      let r =
        {
          key;
          tenant;
          id;
          r_dir = dir;
          r_spec = spec;
          pid;
          grant_w;
          event_r;
          log;
          cancelling = false;
          stop_sent = false;
          restarts;
        }
      in
      st.runners <- st.runners @ [ r ];
      Ops.incr st.ops "runner.spawn";
      if resume then Ops.incr st.ops "runner.spawn.resume";
      ops_event st "runner.spawn"
        [
          ("key", Json.String key);
          ("pid", Json.Int pid);
          ("resume", Json.Bool resume);
          ("restarts", Json.Int restarts);
        ];
      log_line st "spawned runner pid %d for %s (resume=%b)" pid key resume;
      Ok r

(* The one way back into an interrupted campaign: repair its spool
   directory, then respawn its runner on the checkpoint with storage
   faults disarmed (the fault stream's position is lost). The caller
   holds the campaign's quota reservation; a failed spawn releases
   it. *)
let repair_and_respawn st ~tenant ~id ~dir ~spec ~restarts =
  let repairs = Spool.repair ~dir in
  Ops.incr st.ops ~by:(List.length repairs) "spool.repair";
  List.iter (fun n -> log_line st "repair: %s" n) repairs;
  let r =
    spawn_runner st ~tenant ~id ~dir ~spec ~resume:true ~disarm_storage:true
      ~restarts
  in
  if Result.is_error r then
    Quota.release st.quota ~tenant ~runs:spec.Spool.runs;
  r

let find_runner st key = List.find_opt (fun r -> r.key = key) st.runners

let release_runner st r =
  Sched.unregister st.sched ~key:r.key;
  Quota.release st.quota ~tenant:r.tenant ~runs:r.r_spec.Spool.runs;
  (try Unix.close r.grant_w with Unix.Unix_error _ -> ());
  (try Unix.close r.event_r with Unix.Unix_error _ -> ());
  Spool.clear_pid ~dir:r.r_dir;
  st.runners <- List.filter (fun x -> x.key <> r.key) st.runners

let abort_campaign st r line =
  Spool.write_result ~dir:r.r_dir (Spool.Finished { exit_code = 3; line });
  Ops.incr st.ops "runner.abort";
  ops_event st "runner.abort"
    [ ("key", Json.String r.key); ("line", Json.String line) ];
  List.iter
    (fun c -> respond st c (Protocol.Summary { exit_code = 3; line }))
    (watchers st r.key)

(* EOF on the event pipe: the runner exited. Its result record, if it
   wrote one, says how the campaign ended. *)
let reap_runner st r =
  let status =
    match Artifact.restart_on_eintr (fun () -> Unix.waitpid [] r.pid) with
    | _, s -> Some s
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None
  in
  release_runner st r;
  match Spool.read_result ~dir:r.r_dir with
  | Ok (Spool.Finished { exit_code; line }) ->
      Ops.incr st.ops
        (if exit_code = 0 then "campaign.finished.ok"
         else "campaign.finished.fail");
      ops_event st "campaign.finished"
        [ ("key", Json.String r.key); ("exit_code", Json.Int exit_code) ];
      log_line st "%s finished (exit %d)" r.key exit_code;
      List.iter
        (fun c -> respond st c (Protocol.Summary { exit_code; line }))
        (watchers st r.key)
  | _ when r.cancelling ->
      Spool.write_result ~dir:r.r_dir Spool.Cancelled;
      Ops.incr st.ops "campaign.cancelled";
      ops_event st "campaign.cancelled" [ ("key", Json.String r.key) ];
      List.iter (fun c -> respond st c Protocol.Cancelled) (watchers st r.key);
      log_line st "%s cancelled" r.key
  | _ when st.draining ->
      (* Drained: checkpointed and resumable; the next daemon picks it
         up from the spool. *)
      Ops.incr st.ops "runner.drained";
      ops_event st "runner.drained" [ ("key", Json.String r.key) ];
      log_line st "%s drained (checkpointed, resumable)" r.key
  | _ ->
      (* Unexpected death (crash, OOM-kill, chaos). Restart from the
         checkpoint, faults disarmed — bounded, then fail the
         campaign. *)
      let stat_str =
        match status with
        | Some (Unix.WEXITED n) -> Printf.sprintf "exit %d" n
        | Some (Unix.WSIGNALED n) -> Printf.sprintf "signal %d" n
        | Some (Unix.WSTOPPED n) -> Printf.sprintf "stopped %d" n
        | None -> "unknown status"
      in
      if r.restarts < max_restarts then begin
        Ops.incr st.ops "runner.restart";
        ops_event st "runner.restart"
          [
            ("key", Json.String r.key);
            ("status", Json.String stat_str);
            ("attempt", Json.Int (r.restarts + 1));
          ];
        log_line st "%s runner died (%s); restarting (%d/%d)" r.key stat_str
          (r.restarts + 1) max_restarts;
        (* The admission promise was made at submit time; a restart
           never drops it. Force the reservation so the release above
           stays balanced and the budget reflects real in-flight work. *)
        Quota.readmit st.quota ~tenant:r.tenant ~runs:r.r_spec.Spool.runs;
        match
          repair_and_respawn st ~tenant:r.tenant ~id:r.id ~dir:r.r_dir
            ~spec:r.r_spec ~restarts:(r.restarts + 1)
        with
        | Ok _ -> ()
        | Error e ->
            log_line st "%s restart failed (%s)" r.key e;
            abort_campaign st r ("campaign aborted: cannot respawn runner: " ^ e)
      end
      else begin
        log_line st "%s runner died (%s); restart budget exhausted" r.key
          stat_str;
        abort_campaign st r "campaign aborted: runner kept dying"
      end

let handle_runner_event st r =
  match Runner.read_event r.event_r with
  | None -> reap_runner st r
  | Some (Runner.Want n) -> Sched.want st.sched ~key:r.key n
  | Some (Runner.Freed n) -> Sched.free st.sched ~key:r.key n
  | Some (Runner.Progress { run; line }) ->
      r.log <- (run, line) :: r.log;
      List.iter
        (fun c -> respond st c (Protocol.Progress { run; line }))
        (watchers st r.key)

(* A runner reads exactly one grant per batch boundary, so Stop must be
   written once, not once per loop pass — repeated writes into the
   blocking grant pipe would fill it mid-batch and wedge the daemon. *)
let send_stop r =
  if not r.stop_sent then begin
    r.stop_sent <- true;
    ignore (Runner.send_grant r.grant_w Runner.Stop)
  end

let scheduler_pass st =
  if st.draining then
    (* Drain: runners exit at their next batch boundary, checkpointed.
       [send_stop] is a no-op for those already told. *)
    List.iter send_stop st.runners
  else
    List.iter
      (fun (key, n) ->
        Ops.incr st.ops ~by:n "sched.granted";
        Ops.observe st.ops "sched.batch" n;
        match find_runner st key with
        | Some r ->
            if not (Runner.send_grant r.grant_w (Runner.Grant n)) then
              (* Runner gone; give the slots back now, the EOF follows. *)
              Sched.free st.sched ~key n
        | None -> Sched.free st.sched ~key n)
      (Sched.grants st.sched)

(* ---------------------------------------------------------------- *)
(* Ops snapshots                                                     *)
(* ---------------------------------------------------------------- *)

let daemon_info st =
  let uptime =
    int_of_float ((Unix.gettimeofday () -. st.started_at) *. 1000.)
  in
  [ ("version", version); ("uptime_ms", string_of_int uptime) ]
  @ match st.last_drain with Some t -> [ ("last_drain", t) ] | None -> []

let build_stats st =
  refresh_gauges st;
  let flows = Sched.flows st.sched in
  let flow_for key = List.find_opt (fun f -> f.Sched.f_key = key) flows in
  let tenants = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let held, deficit =
        match flow_for r.key with
        | Some f -> (f.Sched.f_held, f.Sched.f_deficit)
        | None -> (0, 0)
      in
      let row =
        match Hashtbl.find_opt tenants r.tenant with
        | Some row -> row
        | None ->
            let row =
              ref
                {
                  Protocol.tr_tenant = r.tenant;
                  tr_active = 0;
                  tr_queued = 0;
                  tr_completed = 0;
                  tr_runs = 0;
                  tr_held = 0;
                  tr_deficit = 0;
                }
            in
            Hashtbl.add tenants r.tenant row;
            row
      in
      let v = !row in
      row :=
        {
          v with
          Protocol.tr_active = (v.Protocol.tr_active + if held > 0 then 1 else 0);
          tr_queued = (v.Protocol.tr_queued + if held = 0 then 1 else 0);
          tr_completed = v.Protocol.tr_completed + List.length r.log;
          tr_runs = v.Protocol.tr_runs + r.r_spec.Spool.runs;
          tr_held = v.Protocol.tr_held + held;
          tr_deficit = v.Protocol.tr_deficit + deficit;
        })
    st.runners;
  let rows =
    Hashtbl.fold (fun _ row acc -> !row :: acc) tenants []
    |> List.sort (fun a b ->
           String.compare a.Protocol.tr_tenant b.Protocol.tr_tenant)
  in
  {
    Protocol.s_version = version;
    s_uptime_ms = int_of_float ((Unix.gettimeofday () -. st.started_at) *. 1000.);
    s_draining = st.draining;
    s_slots_busy = Sched.busy st.sched;
    s_slots_total = Sched.slots st.sched;
    s_tenants = rows;
    s_counters = Ops.counters st.ops;
    s_gauges = Ops.gauges st.ops;
    s_hists = Ops.histograms st.ops;
  }

(* ---------------------------------------------------------------- *)
(* Requests                                                          *)
(* ---------------------------------------------------------------- *)

let campaign_status st ~tenant ~id =
  let key = key_of ~tenant ~id in
  let info = daemon_info st in
  match find_runner st key with
  | Some r ->
      Protocol.Status_is
        {
          state = "running";
          completed = List.length r.log;
          runs = r.r_spec.Spool.runs;
          exit_code = None;
          info;
        }
  | None -> (
      let dir = Spool.dir ~spool:st.cfg.spool ~tenant ~id in
      match Spool.read_result ~dir with
      | Ok outcome ->
          let exit_code =
            match outcome with
            | Spool.Finished { exit_code; _ } -> Some exit_code
            | Spool.Cancelled -> None
          in
          let runs =
            match Spool.read_manifest ~dir with
            | Ok spec -> spec.Spool.runs
            | Error _ -> 0
          in
          (* The checkpoint records what actually ran — an aborted or
             cancelled campaign must not report its plan as progress.
             Only a clean finish whose checkpoint is unreadable falls
             back to the plan. *)
          let completed =
            match Spool.completed_runs ~dir with
            | 0 when exit_code = Some 0 -> runs
            | n -> n
          in
          Protocol.Status_is
            {
              state = Spool.outcome_state outcome;
              completed;
              runs;
              exit_code;
              info;
            }
      | Error _ ->
          if Sys.file_exists (Spool.manifest_path dir) then
            let runs =
              match Spool.read_manifest ~dir with
              | Ok spec -> spec.Spool.runs
              | Error _ -> 0
            in
            Protocol.Status_is
              {
                state = "interrupted";
                completed = Spool.completed_runs ~dir;
                runs;
                exit_code = None;
                info;
              }
          else
            Protocol.Status_is
              { state = "unknown"; completed = 0; runs = 0; exit_code = None; info })

let reject_admission st ~tenant why reason =
  Ops.incr st.ops ("admit.reject." ^ Quota.reject_key why);
  ops_event st "admit.reject"
    [
      ("tenant", Json.String tenant);
      ("why", Json.String (Quota.reject_key why));
    ];
  Protocol.Rejected { reason }

let resume_interrupted st ~tenant ~id ~dir ~spec =
  match Quota.admit st.quota ~tenant ~runs:spec.Spool.runs with
  | Error (why, reason) -> reject_admission st ~tenant why reason
  | Ok () -> (
      Ops.incr st.ops "admit.ok";
      match repair_and_respawn st ~tenant ~id ~dir ~spec ~restarts:0 with
      | Ok _ -> Protocol.Accepted { id; state = "resumed" }
      | Error e -> Protocol.Rejected { reason = "cannot spawn runner: " ^ e })

let handle_submit st ~tenant ~id ~spec =
  if st.draining then Protocol.Rejected { reason = "daemon is draining" }
  else
    let key = key_of ~tenant ~id in
    let dir = Spool.dir ~spool:st.cfg.spool ~tenant ~id in
    if Sys.file_exists (Spool.manifest_path dir) then
      match Spool.read_manifest ~dir with
      | Error e ->
          Protocol.Rejected { reason = "spooled manifest unreadable: " ^ e }
      | Ok existing ->
          if existing <> spec then
            Protocol.Rejected
              { reason = "campaign id already exists with a different spec" }
          else if find_runner st key <> None then
            (* Idempotent resubmit of a running campaign. *)
            Protocol.Accepted { id; state = "running" }
          else (
            match Spool.read_result ~dir with
            | Ok outcome ->
                Protocol.Accepted { id; state = Spool.outcome_state outcome }
            | Error _ -> resume_interrupted st ~tenant ~id ~dir ~spec)
    else
      match Spool.validate spec with
      | Error reason -> Protocol.Rejected { reason }
      | Ok () -> (
          match Quota.admit st.quota ~tenant ~runs:spec.Spool.runs with
          | Error (why, reason) -> reject_admission st ~tenant why reason
          | Ok () -> (
              Ops.incr st.ops "admit.ok";
              ops_event st "admit.ok"
                [
                  ("tenant", Json.String tenant);
                  ("id", Json.String id);
                  ("runs", Json.Int spec.Spool.runs);
                ];
              Spool.write_manifest ~dir spec;
              match
                spawn_runner st ~tenant ~id ~dir ~spec ~resume:false
                  ~disarm_storage:false ~restarts:0
              with
              | Ok _ -> Protocol.Accepted { id; state = "running" }
              | Error e ->
                  Quota.release st.quota ~tenant ~runs:spec.Spool.runs;
                  Protocol.Rejected { reason = "cannot spawn runner: " ^ e }))

(* Two sources: a live runner's log, then its watchers get the rest as
   it happens; or, with no runner, the spool's checkpoint and result. *)
let handle_stream st c ~tenant ~id ~from_run =
  let key = key_of ~tenant ~id in
  let replay =
    List.iter (fun (run, line) ->
        if run >= from_run then respond st c (Protocol.Progress { run; line }))
  in
  match find_runner st key with
  | Some r ->
      c.watching <- Some key;
      replay (List.rev r.log)
  | None -> (
      let dir = Spool.dir ~spool:st.cfg.spool ~tenant ~id in
      match Spool.read_result ~dir with
      | Ok outcome ->
          replay (Spool.progress ~dir);
          respond st c
            (match outcome with
            | Spool.Finished { exit_code; line } ->
                Protocol.Summary { exit_code; line }
            | Spool.Cancelled -> Protocol.Cancelled)
      | Error _ ->
          respond st c (Protocol.Rejected { reason = "no such campaign: " ^ key }))

let handle_cancel st ~tenant ~id =
  let key = key_of ~tenant ~id in
  match find_runner st key with
  | Some r ->
      r.cancelling <- true;
      send_stop r;
      Protocol.Cancelled
  | None -> (
      let dir = Spool.dir ~spool:st.cfg.spool ~tenant ~id in
      match Spool.read_result ~dir with
      | Ok Spool.Cancelled -> Protocol.Cancelled
      | Ok (Spool.Finished _) ->
          Protocol.Rejected { reason = "campaign already finished" }
      | Error _ -> Protocol.Rejected { reason = "no such campaign: " ^ key })

let start_drain st reason =
  if not st.draining then begin
    st.draining <- true;
    Ops.incr st.ops "drain.start";
    ops_event st "drain.start"
      [
        ("reason", Json.String reason);
        ("in_flight", Json.Int (List.length st.runners));
      ];
    log_line st "draining (%s): %d campaign(s) in flight" reason
      (List.length st.runners);
    List.iter send_stop st.runners
  end

let request_verb = function
  | Protocol.Ping -> "ping"
  | Protocol.Submit _ -> "submit"
  | Protocol.Status _ -> "status"
  | Protocol.Stream _ -> "stream"
  | Protocol.Cancel _ -> "cancel"
  | Protocol.Drain -> "drain"
  | Protocol.Stats -> "stats"

let handle_request st c req =
  Ops.incr st.ops ("wire.rx." ^ request_verb req);
  match req with
  | Protocol.Ping -> respond st c Protocol.Pong
  | Protocol.Submit { tenant; id; spec } ->
      respond st c (handle_submit st ~tenant ~id ~spec)
  | Protocol.Status { tenant; id } -> respond st c (campaign_status st ~tenant ~id)
  | Protocol.Stream { tenant; id; from_run } ->
      handle_stream st c ~tenant ~id ~from_run
  | Protocol.Cancel { tenant; id } -> respond st c (handle_cancel st ~tenant ~id)
  | Protocol.Drain ->
      respond st c (Protocol.Draining { in_flight = List.length st.runners });
      start_drain st "drain request"
  | Protocol.Stats -> respond st c (Protocol.Stats_is (build_stats st))

let handle_client_bytes st c =
  let buf = Bytes.create 65536 in
  match
    Artifact.restart_on_eintr (fun () ->
        Unix.read c.c_fd buf 0 (Bytes.length buf))
  with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* Spurious wakeup on the non-blocking socket; nothing to do. *)
      ()
  | exception Unix.Unix_error _ -> detach st c
  | 0 -> detach st c
  | n ->
      Wire.feed c.dec (Bytes.sub_string buf 0 n);
      let rec drain_events () =
        if c.alive then
          match Wire.next c.dec with
          | None -> ()
          | Some (Wire.Corrupt msg) ->
              (* Fault isolation: a corrupt peer gets one error frame
                 and a close; the daemon keeps serving everyone else. *)
              Ops.incr st.ops "wire.error.corrupt";
              respond st c (Protocol.Error_frame msg);
              detach st c
          | Some (Wire.Frame { verb; payload }) -> (
              match Protocol.request_of_frame ~verb ~payload with
              | Error msg ->
                  Ops.incr st.ops "wire.error.decode";
                  respond st c (Protocol.Error_frame msg);
                  detach st c
              | Ok req ->
                  handle_request st c req;
                  drain_events ())
      in
      drain_events ()

(* ---------------------------------------------------------------- *)
(* Startup recovery                                                  *)
(* ---------------------------------------------------------------- *)

let kill_stale_runner st dir =
  match Spool.read_pid ~dir with
  | None -> ()
  | Some pid ->
      (try
         Unix.kill pid Sys.sigkill;
         Ops.incr st.ops "runner.stale_kill";
         ops_event st "runner.stale_kill" [ ("pid", Json.Int pid) ];
         log_line st "killed stale runner pid %d (%s)" pid dir
       with Unix.Unix_error _ -> ());
      Spool.clear_pid ~dir

let recover_spool st =
  let entries, broken = Spool.scan ~spool:st.cfg.spool in
  List.iter
    (fun (dir, why) -> Printf.eprintf "szcd: spool: skipping %s: %s\n%!" dir why)
    broken;
  List.iter
    (fun (e : Spool.entry) ->
      match e.Spool.result with
      | Some _ -> ()
      | None ->
          kill_stale_runner st e.Spool.entry_dir;
          Ops.incr st.ops "spool.recovered";
          (* The admission promise was made before the crash; a restart
             never drops it — force the reservation so the eventual
             release stays balanced. *)
          Quota.readmit st.quota ~tenant:e.Spool.tenant
            ~runs:e.Spool.spec.Spool.runs;
          match
            repair_and_respawn st ~tenant:e.Spool.tenant ~id:e.Spool.id
              ~dir:e.Spool.entry_dir ~spec:e.Spool.spec ~restarts:0
          with
          | Ok _ -> ()
          | Error err ->
              (* Leave the campaign interrupted in the spool: the next
                 daemon start (or an idempotent resubmit) retries it. *)
              Printf.eprintf "szcd: spool: cannot resume %s: %s\n%!"
                e.Spool.entry_dir err)
    entries

(* ---------------------------------------------------------------- *)
(* Main loop                                                         *)
(* ---------------------------------------------------------------- *)

let drain_requested = ref false

let select_with_flags read_fds write_fds timeout =
  try Unix.select read_fds write_fds [] timeout
  with Unix.Unix_error (Unix.EINTR, _, _) ->
    (* A signal landed (SIGTERM → drain flag); surface to the loop. *)
    ([], [], [])

let run cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  drain_requested := false;
  let on_term = Sys.Signal_handle (fun _ -> drain_requested := true) in
  Sys.set_signal Sys.sigterm on_term;
  Sys.set_signal Sys.sigint on_term;
  let st =
    {
      cfg;
      quota = Quota.create cfg.limits;
      sched = Sched.create ~quantum:cfg.quantum ~slots:cfg.slots;
      listen_fd = None;
      clients = [];
      runners = [];
      draining = false;
      ops = Ops.create ();
      oplog = None;
      started_at = Unix.gettimeofday ();
      last_drain = None;
      export_due = 0.;
    }
  in
  match
    Artifact.mkdir_p cfg.spool;
    Sys.is_directory cfg.spool
  with
  | false | (exception Sys_error _) | (exception Unix.Unix_error _) ->
      Printf.eprintf "szcd: spool %s is unusable\n%!" cfg.spool;
      3
  | true -> (
      st.last_drain <- read_last_drain st;
      (match cfg.oplog with
      | None -> ()
      | Some path -> (
          match Oplog.create ~path () with
          | Ok l ->
              st.oplog <- Some l;
              ops_event st "daemon.start"
                [
                  ("version", Json.String version);
                  ("socket", Json.String cfg.socket);
                  ("slots", Json.Int cfg.slots);
                ]
          | Error e ->
              (* The ops plane is best-effort by contract: never refuse
                 to serve campaigns because telemetry is sick. *)
              Printf.eprintf "szcd: oplog %s disabled: %s\n%!" path e));
      recover_spool st;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match
        (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
        Unix.bind fd (Unix.ADDR_UNIX cfg.socket);
        Unix.listen fd 64
      with
      | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "szcd: cannot listen on %s: %s\n%!" cfg.socket
            (Unix.error_message e);
          (try Unix.close fd with Unix.Unix_error _ -> ());
          3
      | () ->
          st.listen_fd <- Some fd;
          log_line st "listening on %s (spool %s, %d slots, quantum %d)"
            cfg.socket cfg.spool cfg.slots cfg.quantum;
          let running = ref true in
          while !running do
            if !drain_requested then start_drain st "signal";
            if st.draining && st.runners = [] then running := false
            else begin
              scheduler_pass st;
              st.clients <- List.filter (fun c -> c.alive) st.clients;
              let fds =
                (match st.listen_fd with
                | Some l when not st.draining -> [ l ]
                | _ -> [])
                @ List.map (fun c -> c.c_fd) st.clients
                @ List.map (fun r -> r.event_r) st.runners
              in
              let wfds =
                List.filter_map
                  (fun c ->
                    if c.alive && Buffer.length c.outbuf > 0 then Some c.c_fd
                    else None)
                  st.clients
              in
              let ready, wready, _ = select_with_flags fds wfds 0.25 in
              (* Tick timing and wake attribution happen after select
                 returns: the clock read is operational-plane only and
                 never reaches a campaign decision. *)
              let tick_start = Unix.gettimeofday () in
              if ready = [] && wready = [] then
                Ops.incr st.ops "loop.wake.timeout"
              else begin
                if wready <> [] then Ops.incr st.ops "loop.wake.writable";
                List.iter
                  (fun fd ->
                    if Some fd = st.listen_fd then
                      Ops.incr st.ops "loop.wake.listen"
                    else if
                      List.exists (fun c -> c.alive && c.c_fd = fd) st.clients
                    then Ops.incr st.ops "loop.wake.client"
                    else if List.exists (fun r -> r.event_r = fd) st.runners
                    then Ops.incr st.ops "loop.wake.runner")
                  ready
              end;
              List.iter
                (fun fd_ready ->
                  match
                    List.find_opt
                      (fun c -> c.alive && c.c_fd = fd_ready)
                      st.clients
                  with
                  | Some c -> flush_client st c
                  | None -> ())
                wready;
              List.iter
                (fun fd_ready ->
                  if Some fd_ready = st.listen_fd then (
                    match
                      Artifact.restart_on_eintr (fun () -> Unix.accept fd_ready)
                    with
                    | exception Unix.Unix_error _ -> ()
                    | cfd, _ ->
                        (* Non-blocking: a wedged client can never
                           stall the event loop on a write. *)
                        Unix.set_nonblock cfd;
                        let c =
                          {
                            c_fd = cfd;
                            dec = Wire.create ~expect_greeting:true;
                            watching = None;
                            alive = true;
                            outbuf = Buffer.create 256;
                          }
                        in
                        st.clients <- st.clients @ [ c ];
                        Ops.incr st.ops "client.accept";
                        client_write st c Wire.greeting)
                  else
                    match
                      List.find_opt
                        (fun c -> c.alive && c.c_fd = fd_ready)
                        st.clients
                    with
                    | Some c -> handle_client_bytes st c
                    | None -> (
                        match
                          List.find_opt
                            (fun r -> r.event_r = fd_ready)
                            st.runners
                        with
                        | Some r -> handle_runner_event st r
                        | None -> ()))
                ready;
              (* Exporter throttle: a scrape file is refreshed at most
                 about once a second, plus once at drain below. *)
              (if cfg.ops_export <> None then
                 let now = Unix.gettimeofday () in
                 if now >= st.export_due then begin
                   st.export_due <- now +. 1.0;
                   export_ops st
                 end);
              Ops.observe st.ops "loop.tick_us"
                (int_of_float
                   ((Unix.gettimeofday () -. tick_start) *. 1_000_000.))
            end
          done;
          (match st.listen_fd with
          | Some l -> ( try Unix.close l with Unix.Unix_error _ -> ())
          | None -> ());
          (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
          List.iter (fun c -> detach st c) st.clients;
          write_last_drain st;
          export_ops st;
          ops_event st "daemon.drained" [ ("version", Json.String version) ];
          (match st.oplog with Some l -> Oplog.close l | None -> ());
          log_line st "drained cleanly";
          0)
