(* szcd end to end: wire fuzzing, admission control, multi-tenant
   fair-share byte identity, detach/reattach. The daemon under test is
   the real ../bin/szcd.exe; clients speak the real protocol through
   Stz_daemon.Client, and solo reference campaigns run through the
   real ../bin/szc.exe. *)

module D = Stz_daemon
module Wire = D.Wire
module Protocol = D.Protocol
module Spool = D.Spool
module Client = D.Client
module Quota = D.Quota

open Helpers
let szc_exe = "../bin/szc.exe"
let szcd_exe = "../bin/szcd.exe"

let deadline_in s = Unix.gettimeofday () +. s

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

type daemon = {
  mutable pid : int;  (** the current daemon; see [restart_daemon] *)
  socket : string;
  spool : string;
  root : string;
}

(* Scratch roots live under the system temp dir so an interrupted run
   never litters the repo; fall back to a repo-relative path only when
   TMPDIR is deep enough that the socket would overflow sun_path's 108
   bytes. with_daemon removes the root on exit either way. *)
let test_root name =
  let base = Printf.sprintf "szcd-test-%s-%d" name (Unix.getpid ()) in
  let tmp = Filename.concat (Filename.get_temp_dir_name ()) base in
  if String.length tmp + String.length "/d.sock" <= 100 then tmp else base

let spawn_szcd ?(extra = []) ?(slots = 4) ~socket ~spool () =
  let argv =
    Array.of_list
      ([
         szcd_exe; "--socket"; socket; "--spool"; spool; "--slots";
         string_of_int slots; "--quantum"; "2";
       ]
      @ extra)
  in
  Unix.create_process szcd_exe argv Unix.stdin Unix.stdout Unix.stderr

let start_daemon ?extra ?slots name =
  let root = test_root name in
  rm_rf root;
  Unix.mkdir root 0o755;
  let socket = Filename.concat root "d.sock" in
  let spool = Filename.concat root "spool" in
  let pid =
    try spawn_szcd ?extra ?slots ~socket ~spool ()
    with e ->
      rm_rf root;
      raise e
  in
  { pid; socket; spool; root }

let wait_ready d =
  let deadline = deadline_in 20.0 in
  match Client.connect ~socket:d.socket ~deadline ~seed:1L () with
  | Error e -> Alcotest.failf "daemon never came up: %s" e
  | Ok t ->
      Fun.protect
        ~finally:(fun () -> Client.close t)
        (fun () ->
          match Client.rpc t ~deadline Protocol.Ping with
          | Ok Protocol.Pong -> ()
          | Ok _ -> Alcotest.fail "expected pong"
          | Error e -> Alcotest.failf "ping failed: %s" e)

(* SIGTERM must drain: finish or checkpoint what is running, then exit
   0. Polls because the drain takes as long as the shortest remaining
   batch. *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec wait tries =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when tries > 0 ->
        Unix.sleepf 0.1;
        wait (tries - 1)
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid);
        Alcotest.fail "daemon did not drain within 30 s"
    | _, st -> st
  in
  wait 300

(* A successor to a daemon that has exited (drained or killed): same
   socket, same spool, default options. *)
let restart_daemon d =
  d.pid <- spawn_szcd ~socket:d.socket ~spool:d.spool ();
  wait_ready d

let check_clean_drain stop =
  match stop () with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "drain exited %d, wanted 0" n
  | Unix.WSIGNALED n -> Alcotest.failf "daemon killed by signal %d" n
  | Unix.WSTOPPED n -> Alcotest.failf "daemon stopped by signal %d" n

let with_daemon ?extra ?slots name f =
  let d = start_daemon ?extra ?slots name in
  Fun.protect
    ~finally:(fun () ->
      (* Kill the current daemon unless it has already been reaped. *)
      (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid)
      | _ | (exception Unix.Unix_error _) -> ());
      rm_rf d.root)
    (fun () ->
      wait_ready d;
      f d (fun () -> stop_daemon d))

let connect_ok d ~deadline ~seed =
  match Client.connect ~socket:d.socket ~deadline ~seed () with
  | Ok t -> t
  | Error e -> Alcotest.failf "connect: %s" e

(* ------------------------------------------------------------------ *)
(* Wire decoder fuzz                                                   *)
(* ------------------------------------------------------------------ *)

let fuzz_frames = [ ("ping", "{}"); ("status", {|{"tenant":"t1","id":"c1"}|}) ]

let fuzz_stream () =
  Wire.greeting
  ^ String.concat ""
      (List.map (fun (v, p) -> Wire.frame ~verb:v p) fuzz_frames)

let wire_roundtrip_bytewise () =
  (* Worst-case framing: the stream arrives one byte at a time. *)
  let dec = Wire.create ~expect_greeting:true in
  let got = ref [] in
  String.iter
    (fun ch ->
      Wire.feed dec (String.make 1 ch);
      let rec drain () =
        match Wire.next dec with
        | Some (Wire.Frame { verb; payload }) ->
            got := (verb, payload) :: !got;
            drain ()
        | Some (Wire.Corrupt msg) -> Alcotest.failf "corrupt: %s" msg
        | None -> ()
      in
      drain ())
    (fuzz_stream ());
  check_bool "all frames decoded, in order" true (List.rev !got = fuzz_frames)

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
  | _ :: _, [] -> false

let every_bitflip_is_contained () =
  (* Flip every bit of every byte of a valid stream: the decoder must
     never raise, never deliver an altered frame (the CRC and the
     framing catch everything), and a dead stream must stay dead. *)
  let stream = fuzz_stream () in
  for i = 0 to String.length stream - 1 do
    for bit = 0 to 7 do
      let mutated = Bytes.of_string stream in
      Bytes.set mutated i (Char.chr (Char.code stream.[i] lxor (1 lsl bit)));
      let dec = Wire.create ~expect_greeting:true in
      Wire.feed dec (Bytes.to_string mutated);
      let rec pull acc =
        match Wire.next dec with
        | Some (Wire.Frame { verb; payload }) -> pull ((verb, payload) :: acc)
        | Some (Wire.Corrupt _) -> (List.rev acc, true)
        | None -> (List.rev acc, false)
      in
      let decoded, died = pull [] in
      (* A flip may truncate the stream, or be semantically neutral
         (e.g. changing a CRC hex digit's case) — but a delivered
         frame is never an altered one. *)
      check_bool
        (Printf.sprintf "byte %d bit %d: delivered frames are a prefix" i bit)
        true
        (is_prefix decoded fuzz_frames);
      if died then
        match Wire.next dec with
        | Some (Wire.Corrupt _) -> ()
        | _ -> Alcotest.fail "dead decoder must stay dead"
    done
  done

(* ------------------------------------------------------------------ *)
(* Live daemon fuzz                                                    *)
(* ------------------------------------------------------------------ *)

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

(* Reads until the peer closes; [None] when the deadline passes with
   the connection still open. *)
let read_to_eof fd ~deadline =
  let buf = Bytes.create 4096 in
  let out = Buffer.create 256 in
  let rec go () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then None
    else
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> None
      | _ -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> Some (Buffer.contents out)
          | n ->
              Buffer.add_subbytes out buf 0 n;
              go ()
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
            ->
              Some (Buffer.contents out))
  in
  go ()

let daemon_survives_every_bitflip () =
  with_daemon "fuzz" (fun d stop ->
      let req =
        Wire.greeting
        ^ Protocol.request_to_frame
            (Protocol.Status { tenant = "t1"; id = "c1" })
      in
      for i = 0 to String.length req - 1 do
        let mutated = Bytes.of_string req in
        Bytes.set mutated i
          (Char.chr (Char.code req.[i] lxor (1 lsl (i mod 8))));
        let fd = raw_connect d.socket in
        Fun.protect
          ~finally:(fun () ->
            try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            (try
               ignore (Unix.write fd mutated 0 (Bytes.length mutated));
               Unix.shutdown fd Unix.SHUTDOWN_SEND
             with Unix.Unix_error _ -> ());
            (* The daemon must isolate the fault: answer with an error
               frame and close, or just close — never wedge, never
               die. *)
            match read_to_eof fd ~deadline:(deadline_in 10.0) with
            | Some _ -> ()
            | None ->
                Alcotest.failf "byte %d: daemon kept the connection open" i)
      done;
      (* Still alive, still serving. *)
      let deadline = deadline_in 10.0 in
      let t = connect_ok d ~deadline ~seed:2L in
      Fun.protect
        ~finally:(fun () -> Client.close t)
        (fun () ->
          match Client.rpc t ~deadline Protocol.Ping with
          | Ok Protocol.Pong -> ()
          | Ok _ -> Alcotest.fail "expected pong after fuzzing"
          | Error e -> Alcotest.failf "ping after fuzzing: %s" e);
      check_clean_drain stop)

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let quota_reservation_accounting () =
  let q =
    Quota.create
      {
        Quota.max_campaigns_per_tenant = 2;
        max_runs_per_tenant = 100;
        global_run_budget = 150;
      }
  in
  check_bool "first admit" true (Quota.admit q ~tenant:"a" ~runs:60 = Ok ());
  check_bool "over per-tenant runs" true
    (Result.is_error (Quota.admit q ~tenant:"a" ~runs:50));
  check_bool "second admit fits" true
    (Quota.admit q ~tenant:"a" ~runs:40 = Ok ());
  check_bool "over per-tenant campaigns" true
    (Result.is_error (Quota.admit q ~tenant:"a" ~runs:1));
  check_bool "other tenant unaffected" true
    (Quota.admit q ~tenant:"b" ~runs:50 = Ok ());
  check_bool "over global budget" true
    (Result.is_error (Quota.admit q ~tenant:"c" ~runs:10));
  Quota.release q ~tenant:"a" ~runs:60;
  check_bool "release frees the budget" true
    (Quota.admit q ~tenant:"c" ~runs:10 = Ok ());
  check_int "in flight" 3 (Quota.in_flight q)

(* The recovery/restart paths re-reserve with [readmit], which must
   really increment the counters (even past a full quota) so the
   eventual release is balanced and never frees a phantom
   reservation. *)
let quota_readmit_balance () =
  let q =
    Quota.create
      {
        Quota.max_campaigns_per_tenant = 1;
        max_runs_per_tenant = 50;
        global_run_budget = 50;
      }
  in
  check_bool "admit" true (Quota.admit q ~tenant:"a" ~runs:50 = Ok ());
  (* A daemon restart re-reserves the same campaign unconditionally. *)
  Quota.readmit q ~tenant:"a" ~runs:50;
  check_int "both reservations counted" 2 (Quota.in_flight q);
  check_bool "budget reflects readmitted load" true
    (Result.is_error (Quota.admit q ~tenant:"b" ~runs:1));
  Quota.release q ~tenant:"a" ~runs:50;
  check_bool "one release frees only one reservation" true
    (Result.is_error (Quota.admit q ~tenant:"b" ~runs:1));
  Quota.release q ~tenant:"a" ~runs:50;
  check_bool "balanced releases free the budget" true
    (Quota.admit q ~tenant:"b" ~runs:50 = Ok ());
  check_int "in flight" 1 (Quota.in_flight q)

let spec_for ~seed ~runs =
  {
    Spool.default_spec with
    Spool.runs;
    seed;
    scale = 0.05;
    faults = "light";
    ledger = true;
  }

let daemon_rejects_over_quota () =
  with_daemon ~extra:[ "--max-runs"; "40" ] "quota" (fun d stop ->
      let deadline = deadline_in 30.0 in
      let t = connect_ok d ~deadline ~seed:3L in
      Fun.protect
        ~finally:(fun () -> Client.close t)
        (fun () ->
          (match
             Client.rpc t ~deadline
               (Protocol.Submit
                  { tenant = "t1"; id = "big"; spec = spec_for ~seed:5 ~runs:41 })
           with
          | Ok (Protocol.Rejected { reason }) ->
              check_bool "rejection carries a reason" true (reason <> "")
          | Ok _ -> Alcotest.fail "over-quota submit must be rejected"
          | Error e -> Alcotest.failf "rpc: %s" e);
          (* A rejected submit reserves nothing: a compliant spec from
             the same tenant still gets in. *)
          match
            Client.rpc t ~deadline
              (Protocol.Submit
                 { tenant = "t1"; id = "ok"; spec = spec_for ~seed:5 ~runs:4 })
          with
          | Ok (Protocol.Accepted _) -> ()
          | Ok (Protocol.Rejected { reason }) ->
              Alcotest.failf "compliant submit rejected: %s" reason
          | Ok _ -> Alcotest.fail "unexpected reply"
          | Error e -> Alcotest.failf "rpc: %s" e);
      check_clean_drain stop)

(* ------------------------------------------------------------------ *)
(* Fair share: concurrent tenants, byte-identical artifacts            *)
(* ------------------------------------------------------------------ *)

let run_solo ~dir ~seed ~runs =
  Unix.mkdir dir 0o755;
  let csv = Filename.concat dir "out.csv" in
  let ck = Filename.concat dir "checkpoint.ck" in
  let ledger = Filename.concat dir "ledger" in
  let cmd =
    Printf.sprintf
      "%s campaign bzip2 --runs %d --seed %d --scale 0.05 --faults light \
       --quiet --csv %s --checkpoint %s --ledger %s >/dev/null 2>&1"
      (Filename.quote szc_exe) runs seed (Filename.quote csv)
      (Filename.quote ck) (Filename.quote ledger)
  in
  check_int "solo szc campaign exits 0" 0 (Sys.command cmd);
  (csv, ck, ledger)

let three_tenants_match_solo () =
  with_daemon "fair" (fun d stop ->
      let deadline = deadline_in 120.0 in
      let runs = 10 in
      let tenants = [ ("t1", 101); ("t2", 102); ("t3", 103) ] in
      (* Kick all three off before following any, so they really do
         contend for the shared pool. *)
      List.iter
        (fun (tenant, seed) ->
          let t = connect_ok d ~deadline ~seed:(Int64.of_int seed) in
          Fun.protect
            ~finally:(fun () -> Client.close t)
            (fun () ->
              match
                Client.rpc t ~deadline
                  (Protocol.Submit
                     { tenant; id = "c"; spec = spec_for ~seed ~runs })
              with
              | Ok (Protocol.Accepted _) -> ()
              | Ok (Protocol.Rejected { reason }) ->
                  Alcotest.failf "%s rejected: %s" tenant reason
              | Ok _ -> Alcotest.fail "unexpected reply"
              | Error e -> Alcotest.failf "%s submit: %s" tenant e))
        tenants;
      (* Follow each to completion: resubmit is idempotent, the stream
         replays from run 0. *)
      List.iter
        (fun (tenant, seed) ->
          match
            Client.submit_and_wait ~socket:d.socket ~deadline
              ~seed:(Int64.of_int seed) ~tenant ~id:"c"
              ~spec:(spec_for ~seed ~runs)
              ~progress:(fun _ _ -> ())
          with
          | Ok (0, _) -> ()
          | Ok (code, line) ->
              Alcotest.failf "%s: exit %d (%s)" tenant code line
          | Error e -> Alcotest.failf "%s: %s" tenant e)
        tenants;
      (* The interleaving must be unobservable: every tenant's CSV,
         checkpoint and ledger byte-identical to a solo run. *)
      List.iter
        (fun (tenant, seed) ->
          let solo = Filename.concat d.root ("solo-" ^ tenant) in
          let csv, ck, ledger = run_solo ~dir:solo ~seed ~runs in
          let spool_dir = Spool.dir ~spool:d.spool ~tenant ~id:"c" in
          check_string (tenant ^ ": csv byte-identical") (read_file csv)
            (read_file (Filename.concat spool_dir "out.csv"));
          check_string
            (tenant ^ ": checkpoint byte-identical")
            (read_file ck)
            (read_file (Filename.concat spool_dir "checkpoint.ck"));
          check_string
            (tenant ^ ": ledger byte-identical")
            (read_file ledger)
            (read_file (Filename.concat spool_dir "ledger")))
        tenants;
      check_clean_drain stop)

(* ------------------------------------------------------------------ *)
(* Detach / reattach                                                   *)
(* ------------------------------------------------------------------ *)

(* Every run [Client.attach] reports from [from_run] on, in order, and
   the exit code and summary line the campaign ends with. *)
let attach_runs d ~deadline ~seed ~id ~from_run =
  let runs = ref [] in
  match
    Client.attach ~socket:d.socket ~deadline ~seed ~tenant:"t1" ~id ~from_run
      ~progress:(fun run _ -> runs := run :: !runs)
  with
  | Ok (code, line) -> (List.rev !runs, code, line)
  | Error e -> Alcotest.failf "attach %s: %s" id e

let completed_runs d ~deadline ~id =
  let t = connect_ok d ~deadline ~seed:11L in
  Fun.protect
    ~finally:(fun () -> Client.close t)
    (fun () ->
      match Client.rpc t ~deadline (Protocol.Status { tenant = "t1"; id }) with
      | Ok (Protocol.Status_is { completed; _ }) -> completed
      | Ok _ -> Alcotest.fail "expected status-is"
      | Error e -> Alcotest.failf "status: %s" e)

let detach_then_reattach () =
  with_daemon "detach" (fun d stop ->
      let deadline = deadline_in 120.0 in
      let runs = 30 in
      let all_runs = List.init runs Fun.id in
      let submit ~id ~seed =
        let t = connect_ok d ~deadline ~seed:(Int64.of_int seed) in
        (match
           Client.rpc t ~deadline
             (Protocol.Submit { tenant = "t1"; id; spec = spec_for ~seed ~runs })
         with
        | Ok (Protocol.Accepted _) -> ()
        | Ok _ -> Alcotest.fail "submit not accepted"
        | Error e -> Alcotest.failf "submit: %s" e);
        t
      in
      let seen = Array.make runs 0 in
      (* Session one: submit, stream, watch a few runs, vanish without
         so much as a goodbye. *)
      let t = submit ~id:"c" ~seed:7 in
      (match
         Client.send t (Protocol.Stream { tenant = "t1"; id = "c"; from_run = 0 })
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "stream: %s" e);
      let watched = ref 0 in
      while !watched < 3 do
        match Client.read_response t ~deadline with
        | Ok (Protocol.Progress { run; _ }) ->
            seen.(run) <- seen.(run) + 1;
            incr watched
        | Ok _ -> ()
        | Error e -> Alcotest.failf "watch: %s" e
      done;
      Client.close t;
      (* The campaign must survive the disconnect. Session two picks
         the feed up at the first unseen run — no gaps, no repeats. *)
      let from_run =
        let rec first i = if i >= runs || seen.(i) = 0 then i else first (i + 1) in
        first 0
      in
      let t2 = connect_ok d ~deadline ~seed:8L in
      let exit_code, summary =
        Fun.protect
          ~finally:(fun () -> Client.close t2)
          (fun () ->
            (match
               Client.send t2
                 (Protocol.Stream { tenant = "t1"; id = "c"; from_run })
             with
            | Ok () -> ()
            | Error e -> Alcotest.failf "re-stream: %s" e);
            let rec follow () =
              match Client.read_response t2 ~deadline with
              | Ok (Protocol.Progress { run; _ }) ->
                  seen.(run) <- seen.(run) + 1;
                  follow ()
              | Ok (Protocol.Summary { exit_code; line }) -> (exit_code, line)
              | Ok Protocol.Cancelled -> Alcotest.fail "spuriously cancelled"
              | Ok (Protocol.Rejected { reason }) ->
                  Alcotest.failf "reattach rejected: %s" reason
              | Ok _ -> follow ()
              | Error e -> Alcotest.failf "follow: %s" e
            in
            follow ())
      in
      check_int "campaign exit code" 0 exit_code;
      Array.iteri
        (fun i c ->
          check_int (Printf.sprintf "run %d delivered exactly once" i) 1 c)
        seen;
      (* Attaching to the finished campaign from run k replays exactly
         runs k.. and returns its exit code. *)
      let k = 17 in
      let replayed, code, _ = attach_runs d ~deadline ~seed:9L ~id:"c" ~from_run:k in
      check_int "attach returns the exit code" 0 code;
      check_bool "attach replays exactly runs >= k" true
        (replayed = List.init (runs - k) (fun i -> k + i));
      (* A successor daemon on the same spool still replays the whole
         feed, from the checkpoint, and the summary line the live
         stream ended with. *)
      check_clean_drain stop;
      restart_daemon d;
      let replayed, code, line =
        attach_runs d ~deadline ~seed:10L ~id:"c" ~from_run:0
      in
      check_int "exit code survives a restart" 0 code;
      check_string "summary line survives a restart" summary line;
      check_bool "restart replays runs 0.. exactly once" true
        (replayed = all_runs);
      (* Mid-campaign SIGKILL: the successor counts the checkpointed
         runs and still streams every run exactly once. *)
      Client.close (submit ~id:"c2" ~seed:8);
      let rec progress_at_least n =
        let c = completed_runs d ~deadline ~id:"c2" in
        if c >= n then c
        else begin
          Unix.sleepf 0.02;
          progress_at_least n
        end
      in
      let before = progress_at_least 3 in
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid);
      restart_daemon d;
      let after = completed_runs d ~deadline ~id:"c2" in
      check_bool
        (Printf.sprintf "status after restart counts checkpointed runs (%d >= %d)"
           after before)
        true (after >= before);
      let replayed, code, _ =
        attach_runs d ~deadline ~seed:12L ~id:"c2" ~from_run:0
      in
      check_int "killed campaign exits 0" 0 code;
      check_bool "killed campaign streams runs 0.. exactly once" true
        (replayed = all_runs);
      check_clean_drain stop)

(* The result record keeps a campaign's summary line (newlines become
   spaces); a record written before lines were stored reads back with
   the generic one. *)
let result_record_keeps_line () =
  let dir = test_root "result" in
  rm_rf dir;
  Stz_store.Artifact.mkdir_p dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Spool.write_result ~dir
        (Spool.Finished { exit_code = 2; line = "runs 1/4,\nno verdict" });
      (match Spool.read_result ~dir with
      | Ok (Spool.Finished { exit_code; line }) ->
          check_int "exit code" 2 exit_code;
          check_string "summary line" "runs 1/4, no verdict" line
      | _ -> Alcotest.fail "result record unreadable");
      Stz_store.Artifact.write_records (Spool.result_path dir)
        ~kind:"szc-result"
        [ ("result", "state finished\nexit_code 0\n") ];
      match Spool.read_result ~dir with
      | Ok (Spool.Finished { exit_code; line }) ->
          check_int "old record: exit code" 0 exit_code;
          check_string "old record: generic line" "campaign finished" line
      | _ -> Alcotest.fail "old result record unreadable")

(* A history ledger that cannot be appended to aborts the campaign with
   exit 3 — from szc and from szcd alike — and keeps the artifacts
   already written. *)
let unappendable_ledger_exits_3 () =
  with_daemon "ledger" (fun d stop ->
      let runs = 4 and seed = 5 in
      let campaign ledger csv =
        Sys.command
          (Printf.sprintf
             "%s campaign bzip2 --runs %d --seed %d --scale 0.05 --faults \
              light --quiet --csv %s --ledger %s >/dev/null 2>&1"
             (Filename.quote szc_exe) runs seed (Filename.quote csv)
             (Filename.quote ledger))
      in
      let path name = Filename.concat d.root name in
      check_int "szc: good ledger exits 0" 0
        (campaign (path "good.ledger") (path "good.csv"));
      let bad = Bytes.of_string (read_file (path "good.ledger")) in
      Bytes.set bad 60 (Char.chr (Char.code (Bytes.get bad 60) lxor 1));
      write_file (path "bad.ledger") (Bytes.to_string bad);
      check_int "szc: bit-flipped ledger exits 3" 3
        (campaign (path "bad.ledger") (path "bad.csv"));
      check_string "szc: CSV still written" (read_file (path "good.csv"))
        (read_file (path "bad.csv"));
      let dir = Spool.dir ~spool:d.spool ~tenant:"t1" ~id:"c" in
      Stz_store.Artifact.mkdir_p dir;
      write_file (Spool.ledger_path dir) (Bytes.to_string bad);
      (match
         Client.submit_and_wait ~socket:d.socket ~deadline:(deadline_in 60.0)
           ~seed:3L ~tenant:"t1" ~id:"c" ~spec:(spec_for ~seed ~runs)
           ~progress:(fun _ _ -> ())
       with
      | Ok (code, line) ->
          check_int "szcd: bit-flipped ledger exits 3" 3 code;
          check_bool "szcd: says why" true
            (contains line "campaign aborted: ledger")
      | Error e -> Alcotest.failf "submit: %s" e);
      check_string "szcd: CSV still written" (read_file (path "good.csv"))
        (read_file (Spool.csv_path dir));
      check_clean_drain stop)

(* ------------------------------------------------------------------ *)
(* Ops plane: stats verb, status info, strict plane separation         *)
(* ------------------------------------------------------------------ *)

let counter_at_least stats key n =
  match List.assoc_opt key stats.Protocol.s_counters with
  | Some v when v >= n -> ()
  | Some v -> Alcotest.failf "counter %s = %d, wanted >= %d" key v n
  | None -> Alcotest.failf "counter %s missing from stats" key

let stats_and_status_info () =
  let oplog_rel root = Filename.concat root "ops.log" in
  let export_rel root = Filename.concat root "ops.prom" in
  (* start_daemon builds root from the test name; mirror it so the
     --oplog/--ops-export paths land inside the daemon's own root. *)
  let root = test_root "ops" in
  with_daemon
    ~extra:[ "--oplog"; oplog_rel root; "--ops-export"; export_rel root ]
    "ops"
    (fun d stop ->
      let deadline = deadline_in 120.0 in
      let runs = 8 in
      let tenants = [ ("t1", 201); ("t2", 202); ("t3", 203) ] in
      List.iter
        (fun (tenant, seed) ->
          let t = connect_ok d ~deadline ~seed:(Int64.of_int seed) in
          Fun.protect
            ~finally:(fun () -> Client.close t)
            (fun () ->
              match
                Client.rpc t ~deadline
                  (Protocol.Submit
                     { tenant; id = "c"; spec = spec_for ~seed ~runs })
              with
              | Ok (Protocol.Accepted _) -> ()
              | Ok _ -> Alcotest.failf "%s submit not accepted" tenant
              | Error e -> Alcotest.failf "%s submit: %s" tenant e))
        tenants;
      (* One-shot snapshot while all three are in flight. *)
      let t = connect_ok d ~deadline ~seed:42L in
      let stats =
        Fun.protect
          ~finally:(fun () -> Client.close t)
          (fun () ->
            match Client.rpc t ~deadline Protocol.Stats with
            | Ok (Protocol.Stats_is s) -> s
            | Ok _ -> Alcotest.fail "expected stats-is"
            | Error e -> Alcotest.failf "stats rpc: %s" e)
      in
      check_string "stats reports the daemon version" D.Daemon.version
        stats.Protocol.s_version;
      check_bool "uptime is positive" true (stats.Protocol.s_uptime_ms >= 0);
      check_int "slots total" 4 stats.Protocol.s_slots_total;
      let row_tenants =
        List.map (fun r -> r.Protocol.tr_tenant) stats.Protocol.s_tenants
      in
      List.iter
        (fun (tenant, _) ->
          check_bool
            (Printf.sprintf "tenant %s has a stats row" tenant)
            true
            (List.mem tenant row_tenants))
        tenants;
      List.iter
        (fun r ->
          check_bool
            (Printf.sprintf "%s: completed <= runs" r.Protocol.tr_tenant)
            true
            (r.Protocol.tr_completed <= r.Protocol.tr_runs))
        stats.Protocol.s_tenants;
      counter_at_least stats "admit.ok" 3;
      counter_at_least stats "wire.rx.submit" 3;
      counter_at_least stats "runner.spawn" 1;
      (match List.assoc_opt "loop.tick_us" stats.Protocol.s_hists with
      | Some h ->
          check_bool "tick histogram has samples" true
            (h.Stz_telemetry.Ops.h_count > 0);
          check_bool "tick p50 <= p99" true
            (h.Stz_telemetry.Ops.h_p50 <= h.Stz_telemetry.Ops.h_p99)
      | None -> Alcotest.fail "loop.tick_us histogram missing");
      (* Polling, as [szc remote top] does: two stats requests 100 ms
         apart on one connection, each answered with a fresh uptime. *)
      let w = connect_ok d ~deadline ~seed:43L in
      Fun.protect
        ~finally:(fun () -> Client.close w)
        (fun () ->
          let uptime () =
            match Client.rpc w ~deadline Protocol.Stats with
            | Ok (Protocol.Stats_is s) -> s.Protocol.s_uptime_ms
            | Ok _ -> Alcotest.fail "expected stats-is"
            | Error e -> Alcotest.failf "stats poll: %s" e
          in
          let first = uptime () in
          Unix.sleepf 0.1;
          check_bool "polled uptime monotone" true (uptime () >= first));
      (* status-is carries the info extras. *)
      let t2 = connect_ok d ~deadline ~seed:44L in
      Fun.protect
        ~finally:(fun () -> Client.close t2)
        (fun () ->
          match
            Client.rpc t2 ~deadline (Protocol.Status { tenant = "t1"; id = "c" })
          with
          | Ok (Protocol.Status_is { info; _ }) ->
              check_bool "info has version" true
                (List.assoc_opt "version" info = Some D.Daemon.version);
              check_bool "info has uptime_ms" true
                (List.mem_assoc "uptime_ms" info)
          | Ok _ -> Alcotest.fail "expected status-is"
          | Error e -> Alcotest.failf "status rpc: %s" e);
      (* Let the campaigns finish so the drain is clean. *)
      List.iter
        (fun (tenant, seed) ->
          match
            Client.submit_and_wait ~socket:d.socket ~deadline
              ~seed:(Int64.of_int seed) ~tenant ~id:"c"
              ~spec:(spec_for ~seed ~runs)
              ~progress:(fun _ _ -> ())
          with
          | Ok (0, _) -> ()
          | Ok (code, line) ->
              Alcotest.failf "%s: exit %d (%s)" tenant code line
          | Error e -> Alcotest.failf "%s: %s" tenant e)
        tenants;
      check_clean_drain stop;
      (* After the drain: the oplog strict-loads and tells the story,
         the exporter file is fresh valid Prometheus text. *)
      (match Stz_telemetry.Oplog.load (oplog_rel d.root) with
      | Ok ((), records) ->
          check_bool "oplog has records" true (records <> []);
          let raw = read_file (oplog_rel d.root) in
          List.iter
            (fun ev ->
              check_bool
                (Printf.sprintf "oplog records %s" ev)
                true
                (contains raw (Printf.sprintf "\"ev\":\"%s\"" ev)))
            [ "daemon.start"; "admit.ok"; "runner.spawn"; "daemon.drained" ]
      | Error e -> Alcotest.failf "oplog does not strict-load: %s" e);
      let prom = read_file (export_rel d.root) in
      List.iter
        (fun needle ->
          check_bool
            (Printf.sprintf "exporter has %S" needle)
            true (contains prom needle))
        [
          "# TYPE szcd_wire_rx_submit counter";
          "# TYPE szcd_sched_slots_busy gauge";
          "szcd_loop_tick_us{quantile=\"0.5\"}";
          "szcd_loop_tick_us_count";
        ])

(* The headline invariant: the ops plane is write-only. A campaign set
   run with every ops feature enabled — oplog, exporter, a live
   [szc remote top] polling stats — produces byte-for-byte the
   artifacts of an ops-dark daemon, under both serial and concurrent
   scheduling. *)
let ops_plane_changes_no_artifact_byte () =
  let runs = 6 in
  let tenants = [ ("t1", 301); ("t2", 302); ("t3", 303) ] in
  let run_set ~name ~slots ~ops =
    let extra =
      if not ops then []
      else
        let root = test_root name in
        [
          "--oplog"; Filename.concat root "ops.log";
          "--ops-export"; Filename.concat root "ops.prom";
        ]
    in
    with_daemon ~extra ~slots name (fun d stop ->
        let deadline = deadline_in 120.0 in
        (* A live poller makes the daemon exercise the whole stats
           path (snapshot building, frame encoding, outbuf) while the
           campaigns run; they start once it has printed a snapshot. *)
        let top_out = Filename.concat d.root "top.raw" in
        let rec await_snapshot tries =
          if not (contains (read_file top_out) "counter wire.rx.stats ") then
            if tries = 0 then Alcotest.fail "the poller printed no snapshot"
            else begin
              Unix.sleepf 0.05;
              await_snapshot (tries - 1)
            end
        in
        let poller =
          if not ops then None
          else begin
            let fd =
              Unix.openfile top_out [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
            in
            let pid =
              Unix.create_process szc_exe
                [|
                  szc_exe; "remote"; "top"; "--socket"; d.socket; "--raw";
                  "--interval"; "0.1"; "--deadline"; "120";
                |]
                Unix.stdin fd Unix.stderr
            in
            Unix.close fd;
            await_snapshot 200;
            Some pid
          end
        in
        List.iter
          (fun (tenant, seed) ->
            match
              Client.submit_and_wait ~socket:d.socket ~deadline
                ~seed:(Int64.of_int seed) ~tenant ~id:"c"
                ~spec:(spec_for ~seed ~runs)
                ~progress:(fun _ _ -> ())
            with
            | Ok (0, _) -> ()
            | Ok (code, line) ->
                Alcotest.failf "%s: exit %d (%s)" tenant code line
            | Error e -> Alcotest.failf "%s: %s" tenant e)
          tenants;
        Option.iter
          (fun pid ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] pid))
          poller;
        let artifacts =
          List.map
            (fun (tenant, _) ->
              let dir = Spool.dir ~spool:d.spool ~tenant ~id:"c" in
              ( tenant,
                read_file (Filename.concat dir "out.csv"),
                read_file (Filename.concat dir "checkpoint.ck"),
                read_file (Filename.concat dir "ledger") ))
            tenants
        in
        check_clean_drain stop;
        artifacts)
  in
  List.iter
    (fun slots ->
      let tag = Printf.sprintf "slots%d" slots in
      let dark = run_set ~name:("dark-" ^ tag) ~slots ~ops:false in
      let lit = run_set ~name:("lit-" ^ tag) ~slots ~ops:true in
      List.iter2
        (fun (t1, csv1, ck1, lg1) (t2, csv2, ck2, lg2) ->
          check_string "same tenant" t1 t2;
          check_string
            (Printf.sprintf "%s %s: csv identical with ops on" tag t1)
            csv1 csv2;
          check_string
            (Printf.sprintf "%s %s: checkpoint identical with ops on" tag t1)
            ck1 ck2;
          check_string
            (Printf.sprintf "%s %s: ledger identical with ops on" tag t1)
            lg1 lg2)
        dark lit)
    [ 1; 4 ]

let () =
  Alcotest.run "daemon"
    [
      ( "wire",
        [
          Alcotest.test_case "byte-at-a-time roundtrip" `Quick
            wire_roundtrip_bytewise;
          Alcotest.test_case "every bit-flip contained" `Quick
            every_bitflip_is_contained;
        ] );
      ( "quota",
        [
          Alcotest.test_case "reservation accounting" `Quick
            quota_reservation_accounting;
          Alcotest.test_case "readmit keeps releases balanced" `Quick
            quota_readmit_balance;
          Alcotest.test_case "daemon rejects over-quota submit" `Quick
            daemon_rejects_over_quota;
        ] );
      ( "service",
        [
          Alcotest.test_case "daemon survives every bit-flip" `Quick
            daemon_survives_every_bitflip;
          Alcotest.test_case "3 tenants byte-identical to solo" `Quick
            three_tenants_match_solo;
          Alcotest.test_case "detach then reattach, no gaps" `Quick
            detach_then_reattach;
          Alcotest.test_case "bad ledger exits 3 in szc and szcd" `Quick
            unappendable_ledger_exits_3;
          Alcotest.test_case "result record keeps the summary line" `Quick
            result_record_keeps_line;
        ] );
      ( "ops",
        [
          Alcotest.test_case "stats polls and status info" `Quick
            stats_and_status_info;
          Alcotest.test_case "ops plane changes no artifact byte" `Quick
            ops_plane_changes_no_artifact_byte;
        ] );
    ]
