module Json = Stz_telemetry.Json
module Artifact = Stz_store.Artifact

type spec = {
  bench : string;
  runs : int;
  seed : int;
  scale : float;
  opt : string;
  faults : string;
  storage_faults : string;
  storage_seed : int;
  retries : int;
  min_n : int;
  ledger : bool;
  trace : bool;
}

let default_spec =
  {
    bench = "bzip2";
    runs = 30;
    seed = 1;
    scale = 1.0;
    opt = "O2";
    faults = "none";
    storage_faults = "none";
    storage_seed = 1;
    retries =
      Stabilizer.Supervisor.default_policy.Stabilizer.Supervisor.max_retries;
    min_n = 3;
    ledger = false;
    trace = false;
  }

let spec_to_json s =
  Json.Obj
    [
      ("bench", Json.String s.bench);
      ("runs", Json.Int s.runs);
      ("seed", Json.Int s.seed);
      ("scale", Json.String (Printf.sprintf "%.17g" s.scale));
      ("opt", Json.String s.opt);
      ("faults", Json.String s.faults);
      ("storage_faults", Json.String s.storage_faults);
      ("storage_seed", Json.Int s.storage_seed);
      ("retries", Json.Int s.retries);
      ("min_n", Json.Int s.min_n);
      ("ledger", Json.Bool s.ledger);
      ("trace", Json.Bool s.trace);
    ]

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "manifest: missing or malformed %S" name)

let to_bool = function Json.Bool b -> Some b | _ -> None

let to_float_string j =
  Option.bind (Json.to_str j) (fun s -> float_of_string_opt s)

let spec_of_json j =
  let* bench = field "bench" Json.to_str j in
  let* runs = field "runs" Json.to_int j in
  let* seed = field "seed" Json.to_int j in
  let* scale = field "scale" (fun x -> to_float_string x) j in
  let* opt = field "opt" Json.to_str j in
  let* faults = field "faults" Json.to_str j in
  let* storage_faults = field "storage_faults" Json.to_str j in
  let* storage_seed = field "storage_seed" Json.to_int j in
  let* retries = field "retries" Json.to_int j in
  let* min_n = field "min_n" Json.to_int j in
  let* ledger = field "ledger" to_bool j in
  let* trace = field "trace" to_bool j in
  Ok
    {
      bench;
      runs;
      seed;
      scale;
      opt;
      faults;
      storage_faults;
      storage_seed;
      retries;
      min_n;
      ledger;
      trace;
    }

type resolved = {
  workload : Stz_workloads.Profile.t;
  level : Stz_vm.Opt.level;
  profile : Stz_faults.Fault.profile;
  storage : Stz_faults.Storage.profile;
}

let resolve s =
  let* () =
    if s.runs >= 1 then Ok ()
    else Error (Printf.sprintf "runs must be >= 1 (got %d)" s.runs)
  in
  let* () =
    if s.retries >= 0 && s.min_n >= 0 then Ok ()
    else Error "retries and min_n must be >= 0"
  in
  let* () =
    if s.scale > 0.0 && Float.is_finite s.scale then Ok ()
    else Error "scale must be a positive finite float"
  in
  let* workload =
    match Stz_workloads.Spec.find s.bench with
    | Some p -> Ok (Stz_workloads.Profile.scale s.scale p)
    | None -> Error (Printf.sprintf "unknown benchmark %S" s.bench)
  in
  let* level =
    Option.to_result
      ~none:(Printf.sprintf "unknown optimization level %S" s.opt)
      (Stz_vm.Opt.level_of_string s.opt)
  in
  let* profile = Stz_faults.Fault.profile_of_string s.faults in
  let* storage = Stz_faults.Storage.profile_of_string s.storage_faults in
  Ok { workload; level; profile; storage }

let validate s = Result.map ignore (resolve s)

let token_ok t =
  let n = String.length t in
  n >= 1 && n <= 64
  && t.[0] <> '.'
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
         | _ -> false)
       t

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let dir ~spool ~tenant ~id = Filename.concat (Filename.concat spool tenant) id
let manifest_path d = Filename.concat d "manifest"
let checkpoint_path d = Filename.concat d "checkpoint.ck"
let csv_path d = Filename.concat d "out.csv"
let ledger_path d = Filename.concat d "ledger"
let trace_path d = Filename.concat d "trace.json"
let result_path d = Filename.concat d "result"
let pid_path d = Filename.concat d "runner.pid"

(* ------------------------------------------------------------------ *)
(* Manifest and result records                                         *)
(* ------------------------------------------------------------------ *)

let manifest_kind = "szc-manifest"
let result_kind = "szc-result"

let write_manifest ~dir spec =
  Artifact.mkdir_p dir;
  Artifact.write_records (manifest_path dir) ~kind:manifest_kind
    [ ("spec", Json.to_string (spec_to_json spec)) ]

(* The [tag] record of the single-record container of kind [kind] at
   [path], which a [what] is. *)
let read_single path ~kind ~what ~tag =
  let* k, records = Artifact.read_records path in
  if k <> kind then Error (Printf.sprintf "not a %s (kind %S)" what k)
  else
    Option.to_result
      ~none:(Printf.sprintf "%s: no %s record" what tag)
      (List.assoc_opt tag records)

let read_manifest ~dir =
  let* payload =
    read_single (manifest_path dir) ~kind:manifest_kind ~what:"manifest"
      ~tag:"spec"
  in
  Result.bind (Json.of_string payload) spec_of_json

type outcome = Finished of { exit_code : int; line : string } | Cancelled

let outcome_state = function Finished _ -> "finished" | Cancelled -> "cancelled"

let write_result ~dir outcome =
  let payload =
    match outcome with
    | Finished { exit_code; line } ->
        Printf.sprintf "state finished\nexit_code %d\nline %s\n" exit_code
          (Stz_store.Log.Kv.sanitize line)
    | Cancelled -> "state cancelled\n"
  in
  Artifact.write_records (result_path dir) ~kind:result_kind
    [ ("result", payload) ]

let read_result ~dir =
  let* payload =
    read_single (result_path dir) ~kind:result_kind ~what:"result"
      ~tag:"result"
  in
  let kv = Stz_store.Log.Kv.decode payload in
  match Stz_store.Log.Kv.str kv "state" with
  | Ok "cancelled" -> Ok Cancelled
  | Ok "finished" -> (
      match Stz_store.Log.Kv.num kv "exit_code" int_of_string_opt with
      | Ok exit_code ->
          (* A result written before summaries were stored has no line. *)
          let line =
            Result.value ~default:"campaign finished"
              (Stz_store.Log.Kv.str kv "line")
          in
          Ok (Finished { exit_code; line })
      | Error _ -> Error "result: malformed exit_code")
  | _ -> Error "result: malformed state"

let completed_runs ~dir =
  match Stabilizer.Supervisor.load (checkpoint_path dir) with
  | Ok c -> List.length c.Stabilizer.Supervisor.records
  | Error _ -> 0

let progress ~dir =
  match Stabilizer.Supervisor.recover (checkpoint_path dir) with
  | Ok (c, _) ->
      List.map
        (fun r -> (r.Stabilizer.Supervisor.run, Stabilizer.Report.run_line r))
        c.Stabilizer.Supervisor.records
  | Error _ -> []

(* The pid file is advisory scratch state, not an artifact: a plain
   write is fine because the worst a torn pid file can cause is a
   missed (or wrong-pid, hence failed) kill of an already-dead
   runner. *)
let write_pid ~dir pid =
  let oc = open_out (pid_path dir) in
  output_string oc (string_of_int pid);
  close_out oc

let read_pid ~dir =
  match open_in (pid_path dir) with
  | exception Sys_error _ -> None
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in_noerr ic;
      int_of_string_opt (String.trim line)

let clear_pid ~dir = try Sys.remove (pid_path dir) with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

type entry = {
  tenant : string;
  id : string;
  entry_dir : string;
  spec : spec;
  result : outcome option;
}

let list_dirs path =
  match Sys.readdir path with
  | exception Sys_error _ -> []
  | names ->
      Array.sort compare names;
      Array.to_list names
      |> List.filter (fun n ->
             token_ok n
             &&
             try Sys.is_directory (Filename.concat path n)
             with Sys_error _ -> false)

let scan ~spool =
  let entries = ref [] and broken = ref [] in
  List.iter
    (fun tenant ->
      let tdir = Filename.concat spool tenant in
      List.iter
        (fun id ->
          let d = Filename.concat tdir id in
          match read_manifest ~dir:d with
          | Error e -> broken := (d, e) :: !broken
          | Ok spec -> (
              match validate spec with
              | Error e -> broken := (d, "invalid spec: " ^ e) :: !broken
              | Ok () ->
                  let result = Result.to_option (read_result ~dir:d) in
                  entries :=
                    { tenant; id; entry_dir = d; spec; result } :: !entries))
        (list_dirs tdir))
    (list_dirs spool);
  (List.rev !entries, List.rev !broken)

let promote_tmp path notes =
  let tmp = path ^ ".tmp" in
  if (not (Sys.file_exists path)) && Sys.file_exists tmp then begin
    Sys.rename tmp path;
    notes := Printf.sprintf "%s: promoted rename-dropped temp file" path :: !notes
  end
  else if Sys.file_exists tmp then begin
    (* Both present: the rename either happened (tmp is a stale
       leftover) or was dropped after an earlier version existed; the
       salvage pass below decides what the main file is worth. *)
    (try Sys.remove tmp with Sys_error _ -> ());
    notes := Printf.sprintf "%s: removed stale temp file" tmp :: !notes
  end

let repair ~dir =
  let notes = ref [] in
  let ck = checkpoint_path dir and lg = ledger_path dir in
  promote_tmp ck notes;
  promote_tmp lg notes;
  (* An unrecoverable checkpoint is moved aside so the campaign
     restarts from run 0 instead of refusing to resume. *)
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  List.iter
    (fun (path, check) ->
      if Sys.file_exists path then
        match check ~repair:true path with
        | Stz_store.Log.Intact _ -> ()
        | Salvageable (n, _) ->
            note "%s: rewritten from salvaged prefix (%s)" path n
        | Unrecoverable e -> note "%s: unrecoverable (%s), moved aside" path e
        | exception Sys_error _ -> ())
    [ (ck, Stabilizer.Supervisor.check); (lg, Stz_store.Ledger.check) ];
  List.iter
    (fun path ->
      promote_tmp path notes;
      (try Sys.remove (path ^ ".sum.tmp") with Sys_error _ -> ());
      if Sys.file_exists path then
        match Artifact.verify_sum path with
        | Ok _ -> ()
        | Error e ->
            (try Sys.remove path with Sys_error _ -> ());
            (try Sys.remove (Artifact.sum_path path) with Sys_error _ -> ());
            note "%s: checksum mismatch (%s), removed — rewritten at completion"
              path e)
    [ csv_path dir; trace_path dir ];
  (try Sys.remove (result_path dir ^ ".tmp") with Sys_error _ -> ());
  (try Sys.remove (manifest_path dir ^ ".tmp") with Sys_error _ -> ());
  List.rev !notes
