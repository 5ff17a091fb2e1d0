module Artifact = Stz_store.Artifact

type t = { fd : Unix.file_descr; dec : Wire.decoder }

let ( let* ) = Result.bind

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* Deterministic jitter: attempt [k] of the stream seeded [seed] always
   sleeps the same amount — reproducible in tests, decorrelated across
   clients with different seeds. *)
let backoff_delay ~seed ~attempt =
  let base = Stdlib.min 1.0 (0.05 *. (2.0 ** float_of_int attempt)) in
  let g = Stz_prng.Splitmix.create (Int64.add seed (Int64.of_int attempt)) in
  let bits = Int64.to_int (Int64.logand (Stz_prng.Splitmix.next g) 0xFFFFL) in
  let jitter = float_of_int bits /. 65536.0 *. 0.25 *. base in
  base +. jitter

let transient = function
  | Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN | Unix.ECONNRESET
  | Unix.EINTR ->
      true
  | _ -> false

let connect ~socket ~deadline ~seed () =
  let rec attempt k =
    if Unix.gettimeofday () > deadline then
      Error (Printf.sprintf "deadline exceeded connecting to %s" socket)
    else
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match
        Artifact.restart_on_eintr (fun () ->
            Unix.connect fd (Unix.ADDR_UNIX socket));
        Artifact.write_exact fd Wire.greeting
      with
      | () -> Ok { fd; dec = Wire.create ~expect_greeting:true }
      | exception Unix.Unix_error (e, _, _) when transient e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Unix.sleepf (backoff_delay ~seed ~attempt:k);
          attempt (k + 1)
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf "cannot connect to %s: %s" socket
               (Unix.error_message e))
  in
  attempt 0

let send t req =
  match Artifact.write_exact t.fd (Protocol.request_to_frame req) with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
      Error ("send failed: " ^ Unix.error_message e)

let read_response t ~deadline =
  let buf = Bytes.create 65536 in
  let rec step () =
    match Wire.next t.dec with
    | Some (Wire.Frame { verb; payload }) ->
        Protocol.response_of_frame ~verb ~payload
    | Some (Wire.Corrupt msg) -> Error ("corrupt frame from daemon: " ^ msg)
    | None -> (
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then Error "deadline exceeded waiting for daemon"
        else
          match
            Artifact.restart_on_eintr (fun () ->
                Unix.select [ t.fd ] [] [] remaining)
          with
          | [], _, _ -> Error "deadline exceeded waiting for daemon"
          | _ -> (
              match
                Artifact.restart_on_eintr (fun () ->
                    Unix.read t.fd buf 0 (Bytes.length buf))
              with
              | 0 -> Error "daemon closed the connection"
              | n ->
                  Wire.feed t.dec (Bytes.sub_string buf 0 n);
                  step ()
              | exception Unix.Unix_error (e, _, _) ->
                  Error ("read failed: " ^ Unix.error_message e)))
  in
  step ()

let rpc t ~deadline req =
  let* () = send t req in
  read_response t ~deadline

(* The one stream-follow loop. Each session connects, runs [opening]
   (the submit, for [submit_and_wait]), then streams from the first run
   not yet seen — which makes [progress] exactly-once across
   reconnects — until the campaign's end. A dropped connection, or an
   opening that answers [`Retry], costs the backoff-with-jitter delay
   and a new session. A cancelled campaign ends as the daemon records
   it: exit 1, "campaign cancelled". *)
let follow ~socket ~deadline ~seed ~tenant ~id ~from_run ~progress opening =
  let next_run = ref from_run in
  let rec session k =
    if Unix.gettimeofday () > deadline then Error "deadline exceeded"
    else
      match connect ~socket ~deadline ~seed:(Int64.add seed 0x5e55L) () with
      | Error e -> Error e
      | Ok t -> (
          let finish r =
            close t;
            r
          in
          let retry () =
            close t;
            Unix.sleepf (backoff_delay ~seed ~attempt:k);
            session (k + 1)
          in
          let rec stream () =
            match read_response t ~deadline with
            | Error _ -> retry ()
            | Ok (Protocol.Progress { run; line }) ->
                if run >= !next_run then begin
                  progress run line;
                  next_run := run + 1
                end;
                stream ()
            | Ok (Protocol.Summary { exit_code; line }) ->
                finish (Ok (exit_code, line))
            | Ok Protocol.Cancelled -> finish (Ok (1, "campaign cancelled"))
            | Ok (Protocol.Rejected { reason }) -> finish (Error reason)
            | Ok (Protocol.Error_frame msg) ->
                finish (Error ("protocol error: " ^ msg))
            | Ok _ -> stream ()
          in
          match opening t with
          | `Retry -> retry ()
          | `Fail e -> finish (Error e)
          | `Stream -> (
              match
                send t (Protocol.Stream { tenant; id; from_run = !next_run })
              with
              | Error _ -> retry ()
              | Ok () -> stream ()))
  in
  session 0

let submit_and_wait ~socket ~deadline ~seed ~tenant ~id ~spec ~progress =
  follow ~socket ~deadline ~seed ~tenant ~id ~from_run:0 ~progress (fun t ->
      match rpc t ~deadline (Protocol.Submit { tenant; id; spec }) with
      | Ok (Protocol.Accepted _) -> `Stream
      | Ok (Protocol.Rejected { reason }) when reason = "daemon is draining" ->
          (* The daemon is going down; a successor will pick the spool
             up. Keep trying until the deadline. *)
          `Retry
      | Ok (Protocol.Rejected { reason }) -> `Fail ("rejected: " ^ reason)
      | Ok (Protocol.Error_frame msg) -> `Fail ("protocol error: " ^ msg)
      | Ok _ | Error _ -> `Retry)

let attach ~socket ~deadline ~seed ~tenant ~id ~from_run ~progress =
  follow ~socket ~deadline ~seed ~tenant ~id ~from_run ~progress (fun _ ->
      `Stream)
