module Json = Stz_telemetry.Json

type request =
  | Ping
  | Submit of { tenant : string; id : string; spec : Spool.spec }
  | Status of { tenant : string; id : string }
  | Stream of { tenant : string; id : string; from_run : int }
  | Cancel of { tenant : string; id : string }
  | Drain
  | Stats

type tenant_row = {
  tr_tenant : string;
  tr_active : int;
  tr_queued : int;
  tr_completed : int;
  tr_runs : int;
  tr_held : int;
  tr_deficit : int;
}

type stats = {
  s_version : string;
  s_uptime_ms : int;
  s_draining : bool;
  s_slots_busy : int;
  s_slots_total : int;
  s_tenants : tenant_row list;
  s_counters : (string * int) list;
  s_gauges : (string * int) list;
  s_hists : (string * Stz_telemetry.Ops.hist_summary) list;
}

type response =
  | Pong
  | Accepted of { id : string; state : string }
  | Rejected of { reason : string }
  | Status_is of {
      state : string;
      completed : int;
      runs : int;
      exit_code : int option;
      info : (string * string) list;
    }
  | Progress of { run : int; line : string }
  | Summary of { exit_code : int; line : string }
  | Draining of { in_flight : int }
  | Cancelled
  | Stats_is of stats
  | Error_frame of string

let ( let* ) = Result.bind

let obj_frame verb fields = Wire.frame ~verb (Json.to_string (Json.Obj fields))

let request_to_frame = function
  | Ping -> obj_frame "ping" []
  | Submit { tenant; id; spec } ->
      obj_frame "submit"
        [
          ("tenant", Json.String tenant);
          ("id", Json.String id);
          ("spec", Spool.spec_to_json spec);
        ]
  | Status { tenant; id } ->
      obj_frame "status" [ ("tenant", Json.String tenant); ("id", Json.String id) ]
  | Stream { tenant; id; from_run } ->
      obj_frame "stream"
        [
          ("tenant", Json.String tenant);
          ("id", Json.String id);
          ("from_run", Json.Int from_run);
        ]
  | Cancel { tenant; id } ->
      obj_frame "cancel" [ ("tenant", Json.String tenant); ("id", Json.String id) ]
  | Drain -> obj_frame "drain" []
  | Stats -> obj_frame "stats" []

let tenant_row_to_json r =
  Json.Obj
    [
      ("tenant", Json.String r.tr_tenant);
      ("active", Json.Int r.tr_active);
      ("queued", Json.Int r.tr_queued);
      ("completed", Json.Int r.tr_completed);
      ("runs", Json.Int r.tr_runs);
      ("held", Json.Int r.tr_held);
      ("deficit", Json.Int r.tr_deficit);
    ]

let hist_summary_to_json (s : Stz_telemetry.Ops.hist_summary) =
  Json.Obj
    [
      ("count", Json.Int s.h_count);
      ("sum", Json.Int s.h_sum);
      ("min", Json.Int s.h_min);
      ("p50", Json.Int s.h_p50);
      ("p90", Json.Int s.h_p90);
      ("p99", Json.Int s.h_p99);
      ("max", Json.Int s.h_max);
    ]

let stats_to_fields s =
  [
    ("version", Json.String s.s_version);
    ("uptime_ms", Json.Int s.s_uptime_ms);
    ("draining", Json.Bool s.s_draining);
    ("busy", Json.Int s.s_slots_busy);
    ("slots", Json.Int s.s_slots_total);
    ("tenants", Json.List (List.map tenant_row_to_json s.s_tenants));
    ( "counters",
      Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.s_counters) );
    ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.s_gauges));
    ( "hists",
      Json.Obj (List.map (fun (k, h) -> (k, hist_summary_to_json h)) s.s_hists)
    );
  ]

let response_to_frame = function
  | Pong -> obj_frame "pong" []
  | Accepted { id; state } ->
      obj_frame "accepted" [ ("id", Json.String id); ("state", Json.String state) ]
  | Rejected { reason } -> obj_frame "rejected" [ ("reason", Json.String reason) ]
  | Status_is { state; completed; runs; exit_code; info } ->
      obj_frame "status-is"
        ([
           ("state", Json.String state);
           ("completed", Json.Int completed);
           ("runs", Json.Int runs);
           ( "exit_code",
             match exit_code with Some c -> Json.Int c | None -> Json.Null );
         ]
        @
        (* Older clients ignore unknown fields, so the info object can
           ride along without a protocol version bump. *)
        if info = [] then []
        else
          [ ("info", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) info)) ]
        )
  | Progress { run; line } ->
      obj_frame "progress" [ ("run", Json.Int run); ("line", Json.String line) ]
  | Summary { exit_code; line } ->
      obj_frame "summary"
        [ ("exit_code", Json.Int exit_code); ("line", Json.String line) ]
  | Draining { in_flight } ->
      obj_frame "draining" [ ("in_flight", Json.Int in_flight) ]
  | Cancelled -> obj_frame "cancelled" []
  | Stats_is s -> obj_frame "stats-is" (stats_to_fields s)
  | Error_frame msg -> obj_frame "error" [ ("message", Json.String msg) ]

let parse payload =
  match Json.of_string payload with
  | Ok j -> Ok j
  | Error e -> Error ("malformed frame payload: " ^ e)

let str name j =
  match Option.bind (Json.member name j) Json.to_str with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing or malformed %S" name)

let int_field name j =
  match Option.bind (Json.member name j) Json.to_int with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "missing or malformed %S" name)

let tenant_and_id j =
  let* tenant = str "tenant" j in
  let* id = str "id" j in
  let* () =
    if Spool.token_ok tenant && Spool.token_ok id then Ok ()
    else Error "tenant and id must be filesystem tokens ([A-Za-z0-9._-], <= 64)"
  in
  Ok (tenant, id)

let request_of_frame ~verb ~payload =
  match verb with
  | "ping" -> Ok Ping
  | "drain" -> Ok Drain
  | "submit" ->
      let* j = parse payload in
      let* tenant, id = tenant_and_id j in
      let* spec_json =
        match Json.member "spec" j with
        | Some s -> Ok s
        | None -> Error "missing \"spec\""
      in
      let* spec = Spool.spec_of_json spec_json in
      Ok (Submit { tenant; id; spec })
  | "status" ->
      let* j = parse payload in
      let* tenant, id = tenant_and_id j in
      Ok (Status { tenant; id })
  | "stream" ->
      let* j = parse payload in
      let* tenant, id = tenant_and_id j in
      let* from_run = int_field "from_run" j in
      Ok (Stream { tenant; id; from_run })
  | "cancel" ->
      let* j = parse payload in
      let* tenant, id = tenant_and_id j in
      Ok (Cancel { tenant; id })
  | "stats" -> Ok Stats
  | v -> Error (Printf.sprintf "unknown request verb %S" v)

let info_of_json j =
  match Json.member "info" j with
  | Some (Json.Obj fields) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
        fields
  | _ -> []

let int_entries = function
  | Some (Json.Obj fields) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun i -> (k, i)) (Json.to_int v))
        fields
  | _ -> []

let tenant_row_of_json j =
  let* tenant = str "tenant" j in
  let* active = int_field "active" j in
  let* queued = int_field "queued" j in
  let* completed = int_field "completed" j in
  let* runs = int_field "runs" j in
  let* held = int_field "held" j in
  let* deficit = int_field "deficit" j in
  Ok
    {
      tr_tenant = tenant;
      tr_active = active;
      tr_queued = queued;
      tr_completed = completed;
      tr_runs = runs;
      tr_held = held;
      tr_deficit = deficit;
    }

let hist_summary_of_json j : (Stz_telemetry.Ops.hist_summary, string) result =
  let* count = int_field "count" j in
  let* sum = int_field "sum" j in
  let* vmin = int_field "min" j in
  let* p50 = int_field "p50" j in
  let* p90 = int_field "p90" j in
  let* p99 = int_field "p99" j in
  let* vmax = int_field "max" j in
  Ok
    {
      Stz_telemetry.Ops.h_count = count;
      h_sum = sum;
      h_min = vmin;
      h_p50 = p50;
      h_p90 = p90;
      h_p99 = p99;
      h_max = vmax;
    }

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = collect f rest in
      Ok (y :: ys)

let stats_of_json j =
  let* version = str "version" j in
  let* uptime_ms = int_field "uptime_ms" j in
  let draining =
    match Json.member "draining" j with Some (Json.Bool b) -> b | _ -> false
  in
  let* busy = int_field "busy" j in
  let* slots = int_field "slots" j in
  let* tenants =
    match Json.member "tenants" j with
    | Some (Json.List rows) -> collect tenant_row_of_json rows
    | _ -> Error "missing or malformed \"tenants\""
  in
  let counters = int_entries (Json.member "counters" j) in
  let gauges = int_entries (Json.member "gauges" j) in
  let* hists =
    match Json.member "hists" j with
    | Some (Json.Obj fields) ->
        collect
          (fun (k, v) ->
            let* h = hist_summary_of_json v in
            Ok (k, h))
          fields
    | _ -> Ok []
  in
  Ok
    {
      s_version = version;
      s_uptime_ms = uptime_ms;
      s_draining = draining;
      s_slots_busy = busy;
      s_slots_total = slots;
      s_tenants = tenants;
      s_counters = counters;
      s_gauges = gauges;
      s_hists = hists;
    }

let response_of_frame ~verb ~payload =
  match verb with
  | "pong" -> Ok Pong
  | "cancelled" -> Ok Cancelled
  | "accepted" ->
      let* j = parse payload in
      let* id = str "id" j in
      let* state = str "state" j in
      Ok (Accepted { id; state })
  | "rejected" ->
      let* j = parse payload in
      let* reason = str "reason" j in
      Ok (Rejected { reason })
  | "status-is" ->
      let* j = parse payload in
      let* state = str "state" j in
      let* completed = int_field "completed" j in
      let* runs = int_field "runs" j in
      let exit_code = Option.bind (Json.member "exit_code" j) Json.to_int in
      let info = info_of_json j in
      Ok (Status_is { state; completed; runs; exit_code; info })
  | "progress" ->
      let* j = parse payload in
      let* run = int_field "run" j in
      let* line = str "line" j in
      Ok (Progress { run; line })
  | "summary" ->
      let* j = parse payload in
      let* exit_code = int_field "exit_code" j in
      let* line = str "line" j in
      Ok (Summary { exit_code; line })
  | "draining" ->
      let* j = parse payload in
      let* in_flight = int_field "in_flight" j in
      Ok (Draining { in_flight })
  | "stats-is" ->
      let* j = parse payload in
      let* s = stats_of_json j in
      Ok (Stats_is s)
  | "error" ->
      let* j = parse payload in
      let* message = str "message" j in
      Ok (Error_frame message)
  | v -> Error (Printf.sprintf "unknown response verb %S" v)
