let event_json ~pid e =
  let base name cat lane ts =
    [
      ("name", Json.String name);
      ("cat", Json.String (if cat = "" then "default" else cat));
      ("pid", Json.Int pid);
      ("tid", Json.Int lane);
      ("ts", Json.Int ts);
    ]
  in
  match e with
  | Event.Span { name; cat; lane; ts; dur; args } ->
      Json.Obj
        (base name cat lane ts
        @ [ ("ph", Json.String "X"); ("dur", Json.Int dur) ]
        @ (match args with [] -> [] | a -> [ ("args", Json.Obj a) ]))
  | Event.Instant { name; cat; lane; ts; args } ->
      Json.Obj
        (base name cat lane ts
        @ [ ("ph", Json.String "i"); ("s", Json.String "t") ]
        @ (match args with [] -> [] | a -> [ ("args", Json.Obj a) ]))
  | Event.Counter { name; cat; lane; ts; values } ->
      Json.Obj
        (base name cat lane ts
        @ [
            ("ph", Json.String "C");
            ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) values));
          ])

let metadata ~pid ~tid ~kind ~label =
  Json.Obj
    [
      ("name", Json.String kind);
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String label) ]);
    ]

let lane_label lane =
  if lane = 0 then "control" else Printf.sprintf "virtual-worker %d" (lane - 1)

let sorted_lanes events =
  List.sort_uniq compare (List.map Event.lane events)

let chrome_of_groups groups =
  let trace_events =
    List.concat
      (List.mapi
         (fun pid (pname, events) ->
           (metadata ~pid ~tid:0 ~kind:"process_name" ~label:pname
           :: List.map
                (fun lane ->
                  metadata ~pid ~tid:lane ~kind:"thread_name"
                    ~label:(lane_label lane))
                (sorted_lanes events))
           @ List.map (event_json ~pid) events)
         groups)
  in
  Json.Obj
    [
      ("traceEvents", Json.List trace_events);
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Obj
          [
            ("clock", Json.String "simulated-cycles");
            ("generator", Json.String "stz_telemetry");
          ] );
    ]

let chrome ?(process_name = "stabilizer") events =
  chrome_of_groups [ (process_name, events) ]

let chrome_string ?process_name events =
  Json.to_string (chrome ?process_name events) ^ "\n"

let chrome_groups_string groups = Json.to_string (chrome_of_groups groups) ^ "\n"

(* ------------------------------------------------------------------ *)
(* Validation: the check CI and tests run over an emitted trace file.   *)
(* ------------------------------------------------------------------ *)

let validate_chrome json =
  let ( let* ) = Result.bind in
  let* entries =
    match Option.bind (Json.member "traceEvents" json) Json.to_list with
    | Some l -> Ok l
    | None -> Error "no traceEvents array"
  in
  let check_event i e =
    let get name conv =
      match Option.bind (Json.member name e) conv with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "event %d: bad or missing %S" i name)
    in
    let* ph = get "ph" Json.to_str in
    let* _name = get "name" Json.to_str in
    let* _pid = get "pid" Json.to_int in
    let* _tid = get "tid" Json.to_int in
    match ph with
    | "M" -> Ok `Meta
    | "X" ->
        let* ts = get "ts" Json.to_int in
        let* dur = get "dur" Json.to_int in
        if ts < 0 || dur < 0 then
          Error (Printf.sprintf "event %d: negative ts/dur" i)
        else Ok `Span
    | "i" | "C" ->
        let* ts = get "ts" Json.to_int in
        if ts < 0 then Error (Printf.sprintf "event %d: negative ts" i)
        else Ok `Point
    | ph -> Error (Printf.sprintf "event %d: unknown phase %S" i ph)
  in
  let* spans, points =
    List.fold_left
      (fun acc e ->
        let* s, p = acc in
        let i = s + p in
        let* kind = check_event i e in
        match kind with
        | `Span -> Ok (s + 1, p)
        | `Point -> Ok (s, p + 1)
        | `Meta -> Ok (s, p))
      (Ok (0, 0)) entries
  in
  if spans + points = 0 then Error "trace holds no events, only metadata"
  else Ok (spans, points)

let validate_chrome_string s =
  Result.bind (Json.of_string s) validate_chrome
