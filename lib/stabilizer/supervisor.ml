module Fault = Stz_faults.Fault
module Injector = Stz_faults.Injector
module Interp = Stz_vm.Interp
module Splitmix = Stz_prng.Splitmix
module Hierarchy = Stz_machine.Hierarchy
module Event = Stz_telemetry.Event
module Trace = Stz_telemetry.Trace
module Monitor = Stz_monitor.Monitor

type policy = {
  max_retries : int;
  calibration_runs : int;
  hang_grace : float option;
}

let default_policy =
  {
    max_retries = 3;
    calibration_runs = 5;
    hang_grace = None;
  }

(* Budgets are this multiple of the calibration maximum (cycles / fuel). *)
let budget_margin = 8.0

(* The calibrated watchdog grace is this multiple of the longest
   wall-clock attempt seen in this process. *)
let hang_margin = 25.0

type completed = {
  cycles : int;
  seconds : float;
  return_value : int;
  instructions : int;
  counters : Hierarchy.counters;
  epochs : int;
  relocations : int;
  adaptive_triggers : int;
  allocations : int;
  frees : int;
}

type stored_outcome =
  | Done of completed
  | Trapped of Fault.fault_class * Runtime.partial option
  | Budget_exceeded of Runtime.partial
  | Invalid_result of Runtime.partial
  | Worker_lost
  | Worker_hung

type record = {
  run : int;
  seed : int64;
  retries : int;
  outcome : stored_outcome;
}

type campaign = {
  base_seed : int64;
  runs : int;
  profile_fp : string;
  config_desc : string;
  records : record list;
  quarantined : int64 list;
  budget_cycles : int option;
  budget_fuel : int option;
  reference : int option;
}

type summary = {
  runs : int;
  completed : int;
  censored : int;
  retried_runs : int;
  total_retries : int;
  quarantined : int;
  budget_exceeded : int;
  invalid : int;
  worker_lost : int;
  worker_hung : int;
  by_class : (Fault.fault_class * int) list;
}

exception Mismatch of string

(* ------------------------------------------------------------------ *)
(* Checkpoint record payloads (JSON)                                   *)
(* ------------------------------------------------------------------ *)

let seconds_of_cycles cycles = float_of_int cycles /. 3.2e9

let stored_tag = function
  | Done _ -> "completed"
  | Trapped (c, _) -> Fault.class_to_string c
  | Budget_exceeded _ -> "budget-exceeded"
  | Invalid_result _ -> "invalid-result"
  | Worker_lost -> "worker-lost"
  | Worker_hung -> "worker-hung"

let counters_to_json c =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (Hierarchy.counters_fields c))

let counters_of_json j =
  match j with
  | Json.Obj fields ->
      Some
        (Hierarchy.counters_of_fields
           (List.filter_map
              (fun (k, v) -> Option.map (fun v -> (k, v)) (Json.to_int v))
              fields))
  | _ -> None

let partial_to_json (pp : Runtime.partial) =
  Json.Obj
    [
      ("cycles", Json.Int pp.Runtime.p_cycles);
      ("epochs", Json.Int pp.Runtime.p_epochs);
      ("relocations", Json.Int pp.Runtime.p_relocations);
      ("adaptive_triggers", Json.Int pp.Runtime.p_adaptive_triggers);
      ("counters", counters_to_json pp.Runtime.p_counters);
    ]

let partial_of_json j =
  let ( let* ) = Option.bind in
  let* p_cycles = Option.bind (Json.member "cycles" j) Json.to_int in
  let* p_epochs = Option.bind (Json.member "epochs" j) Json.to_int in
  let* p_relocations = Option.bind (Json.member "relocations" j) Json.to_int in
  let* p_adaptive_triggers =
    Option.bind (Json.member "adaptive_triggers" j) Json.to_int
  in
  let* p_counters = Option.bind (Json.member "counters" j) counters_of_json in
  Some
    {
      Runtime.p_cycles;
      p_counters;
      p_epochs;
      p_relocations;
      p_adaptive_triggers;
    }

let record_to_json r =
  let base =
    [
      ("run", Json.Int r.run);
      ("seed", Json.of_int64 r.seed);
      ("retries", Json.Int r.retries);
      ("outcome", Json.String (stored_tag r.outcome));
    ]
  in
  match r.outcome with
  | Done c ->
      Json.Obj
        (base
        @ [
            ("cycles", Json.Int c.cycles);
            ("value", Json.Int c.return_value);
            ("instructions", Json.Int c.instructions);
            ("counters", counters_to_json c.counters);
            ("epochs", Json.Int c.epochs);
            ("relocations", Json.Int c.relocations);
            ("adaptive_triggers", Json.Int c.adaptive_triggers);
            ("allocations", Json.Int c.allocations);
            ("frees", Json.Int c.frees);
          ])
  | Trapped (_, Some pp) | Budget_exceeded pp | Invalid_result pp ->
      Json.Obj (base @ [ ("at", partial_to_json pp) ])
  | Trapped (_, None) | Worker_lost | Worker_hung -> Json.Obj base

let record_of_json j =
  let ( let* ) = Option.bind in
  let int name = Option.bind (Json.member name j) Json.to_int in
  let* run = int "run" in
  let* seed = Option.bind (Json.member "seed" j) Json.to_int64 in
  let* retries = int "retries" in
  let* tag = Option.bind (Json.member "outcome" j) Json.to_str in
  (* Budget-exceeded and invalid-result records always carry "at"; a
     trap's record lacks it when the trap was raised outside the
     runtime and measured nothing. *)
  let at = Option.bind (Json.member "at" j) partial_of_json in
  let* outcome =
    match tag with
    | "completed" ->
        let* cycles = int "cycles" in
        let* return_value = int "value" in
        let* instructions = int "instructions" in
        let* counters = Option.bind (Json.member "counters" j) counters_of_json in
        let* epochs = int "epochs" in
        let* relocations = int "relocations" in
        let* adaptive_triggers = int "adaptive_triggers" in
        let* allocations = int "allocations" in
        let* frees = int "frees" in
        Some
          (Done
             {
               cycles;
               seconds = seconds_of_cycles cycles;
               return_value;
               instructions;
               counters;
               epochs;
               relocations;
               adaptive_triggers;
               allocations;
               frees;
             })
    | "budget-exceeded" -> Option.map (fun pp -> Budget_exceeded pp) at
    | "invalid-result" -> Option.map (fun pp -> Invalid_result pp) at
    | "worker-lost" -> Some Worker_lost
    | "worker-hung" -> Some Worker_hung
    | s -> Option.map (fun c -> Trapped (c, at)) (Fault.class_of_string s)
  in
  Some { run; seed; retries; outcome }

let opt_int = function None -> Json.Null | Some i -> Json.Int i

(* Retry seeds are derived from the run's primary seed, not drawn from
   the campaign stream, so a retry never shifts the seeds of later runs
   — the property that makes checkpoint/resume exact. *)
let attempt_seed primary k =
  if k = 0 then primary
  else begin
    let g = Splitmix.create primary in
    let s = ref primary in
    for _ = 1 to k do
      s := Splitmix.split g
    done;
    !s
  end

(* ------------------------------------------------------------------ *)
(* Checkpoint IO: v3 checksummed container                             *)
(* ------------------------------------------------------------------ *)

(* Version 3 checkpoints are a {!Stz_store.Log}: a meta record first
   (identity + the reference decision, both fixed at campaign start),
   one record per finished run in run order, and the evolving
   supervisor state (quarantine, budgets) last. The whole file is
   rewritten atomically after every checkpointed run, so a crash or
   torn write costs at most a suffix — which {!recover} salvages. *)

type checkpoint_item =
  | Run of record
  | State of int64 list * int option * int option
      (** quarantined seeds, calibrated cycle and fuel budgets *)

let meta_to_json c =
  Json.Obj
    [
      ("version", Json.Int 3);
      ("base_seed", Json.of_int64 c.base_seed);
      ("runs", Json.Int c.runs);
      ("profile", Json.String c.profile_fp);
      ("config", Json.String c.config_desc);
      ("reference", opt_int c.reference);
    ]

let get_opt_int j name =
  match Json.member name j with
  | Some (Json.Int i) -> Ok (Some i)
  | Some Json.Null | None -> Ok None
  | Some _ -> Error (Printf.sprintf "bad %S" name)

let meta_of_json j =
  let get name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "meta: bad or missing %S" name)
  in
  let ( let* ) = Result.bind in
  let* version = get "version" Json.to_int in
  if version <> 3 then
    Error (Printf.sprintf "unsupported container version %d" version)
  else
    let* base_seed = get "base_seed" Json.to_int64 in
    let* runs = get "runs" Json.to_int in
    let* profile_fp = get "profile" Json.to_str in
    let* config_desc = get "config" Json.to_str in
    let* reference = get_opt_int j "reference" in
    Ok
      {
        base_seed;
        runs;
        profile_fp;
        config_desc;
        records = [];
        quarantined = [];
        budget_cycles = None;
        budget_fuel = None;
        reference;
      }

let state_of_json j =
  let ( let* ) = Result.bind in
  match Option.bind (Json.member "quarantined" j) Json.to_list with
  | Some l when List.for_all (fun x -> Json.to_int64 x <> None) l ->
      let* budget_cycles = get_opt_int j "budget_cycles" in
      let* budget_fuel = get_opt_int j "budget_fuel" in
      Ok (State (List.filter_map Json.to_int64 l, budget_cycles, budget_fuel))
  | _ -> Error "bad state record"

module Checkpoint = Stz_store.Log.Make (struct
  type meta = campaign
  type item = checkpoint_item

  let kind = "szc-checkpoint"
  let name = "checkpoint"
  let noun = "records"
  let meta_payload c = Some (Json.to_string (meta_to_json c))

  let meta_of_payload = function
    | Some m -> Result.bind (Json.of_string m) meta_of_json
    | None -> Error "missing meta record"

  let item_record = function
    | Run r -> ("run", Json.to_string (record_to_json r))
    | State (quarantined, budget_cycles, budget_fuel) ->
        ( "state",
          Json.to_string
            (Json.Obj
               [
                 ("quarantined", Json.List (List.map Json.of_int64 quarantined));
                 ("budget_cycles", opt_int budget_cycles);
                 ("budget_fuel", opt_int budget_fuel);
               ]) )

  let item_of_record = function
    | "run", s ->
        Some
          (Result.bind (Json.of_string s) (fun j ->
               match record_of_json j with
               | Some r -> Ok (Run r)
               | None -> Error "bad record"))
    | "state", s -> Some (Result.bind (Json.of_string s) state_of_json)
    | _ -> None

  let index = None
end)

(* Re-derive the quarantine list when the checkpoint's state record was
   lost to corruption. Every failed attempt seed, in run order then
   attempt order, first occurrence only — exactly the order
   [run_campaign] quarantined them in: a record with [retries = k] had
   attempts [0..k-1] fail, plus attempt [k] itself unless it [Done].
   Runs censored by the pool ([Worker_lost]/[Worker_hung]) quarantine
   nothing: their synthetic record never ran the retry loop, and any
   attempt seeds that failed before the worker died or wedged were
   lost with it — in the live campaign too, so deriving them here
   would *diverge* from the uninterrupted bytes. *)
let derive_quarantine ~base_seed ~runs records =
  let primary = Sample.seeds ~base_seed ~runs in
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let add s =
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.add seen s ();
      out := s :: !out
    end
  in
  List.iter
    (fun r ->
      if r.run >= 0 && r.run < runs then begin
        let last_failed =
          match r.outcome with
          | Done _ -> r.retries - 1
          | Worker_lost | Worker_hung -> -1
          | _ -> r.retries
        in
        for k = 0 to last_failed do
          add (attempt_seed primary.(r.run) k)
        done
      end)
    records;
  List.rev !out

(* Fold checkpoint items into a campaign: runs sorted by index, the
   last state record winning. A lost state record is re-derived — the
   quarantine from the run records, the budgets left uncalibrated so
   resume recalibrates them bit-exactly from the completed prefix —
   and a note says so. *)
let assemble (base, items) =
  let records =
    List.filter_map (function Run r -> Some r | State _ -> None) items
    |> List.sort (fun a b -> compare a.run b.run)
  in
  let state = function State (q, c, f) -> Some (q, c, f) | Run _ -> None in
  match List.find_map state (List.rev items) with
  | Some (quarantined, budget_cycles, budget_fuel) ->
      ({ base with records; quarantined; budget_cycles; budget_fuel }, None)
  | None ->
      let quarantined =
        derive_quarantine ~base_seed:base.base_seed ~runs:base.runs records
      in
      ( { base with records; quarantined },
        Some "supervisor state re-derived from run records" )

let save path c =
  Checkpoint.rewrite path c
    (List.map (fun r -> Run r) c.records
    @ [ State (c.quarantined, c.budget_cycles, c.budget_fuel) ])

let load path =
  Result.bind (Checkpoint.load path) (fun v ->
      match assemble v with
      | c, None -> Ok c
      | _, Some _ -> Error "checkpoint: missing state record")

let recover path =
  Result.map
    (fun (base, items, note) ->
      let c, derived = assemble (base, items) in
      let notes = List.filter_map Fun.id [ note; derived ] in
      (c, if notes = [] then None else Some (String.concat "; " notes)))
    (Checkpoint.recover path)

let check =
  Stz_store.Log.check ~rewrite:save ~recover:(fun path ->
      Result.map (fun (c, n) -> (c, List.length c.records, n)) (recover path))

(* ------------------------------------------------------------------ *)
(* Campaign execution                                                  *)
(* ------------------------------------------------------------------ *)

(* The synthetic stream standing in for a checkpointed run on resume:
   the lane advances by the run's recorded cycles, so the post-resume
   part of the trace lines up with where the interrupted campaign left
   off, but the run's inner events (which happened in a previous
   process) are represented by a single "restored" span. *)
let restored_stream (r : record) =
  let args =
    [
      ("run", Json.Int r.run);
      Spans.seed_arg r.seed;
      ("retries", Json.Int r.retries);
      ("outcome", Json.String (stored_tag r.outcome));
    ]
  in
  let span_and_hw dur counters =
    [
      Event.Span { name = "restored"; cat = "run"; lane = 0; ts = 0; dur; args };
      Event.Counter
        {
          name = "hw";
          cat = "run";
          lane = 0;
          ts = dur;
          values = Hierarchy.counters_fields counters;
        };
    ]
  in
  match r.outcome with
  | Done c -> span_and_hw c.cycles c.counters
  | Trapped (_, Some pp) | Budget_exceeded pp | Invalid_result pp ->
      span_and_hw pp.Runtime.p_cycles pp.Runtime.p_counters
  | Trapped (_, None) | Worker_lost | Worker_hung ->
      [ Event.Instant { name = "restored"; cat = "run"; lane = 0; ts = 0; args } ]

let run_campaign ?(policy = default_policy) ?(profile = Fault.none)
    ?(limits = Interp.default_limits) ?(jobs = 1) ?checkpoint ?(resume = false)
    ?on_record ?telemetry ?monitor ?(dispatch = Parallel.pool_dispatcher)
    ~config ~base_seed ~runs ~args p =
  if runs < 1 then raise (Mismatch "run_campaign: runs must be >= 1");
  let jobs = Stdlib.max 1 jobs in
  (* A wedged run never finishes and never traps; the only recovery is
     the pool watchdog SIGKILLing the worker around it, which needs a
     fork boundary. Refuse configurations where a wedge would hang the
     campaign forever. (The reference probe is injection-free, so it
     cannot wedge even under a wedge-armed profile.) *)
  if profile.Fault.wedge > 0.0 && jobs < 2 then
    raise
      (Mismatch
         "run_campaign: wedge-armed profiles need jobs >= 2 (hang recovery \
          requires a worker pool)");
  (* Captured before any fork: workers must agree with the parent on
     whether to produce events, whatever process executes the run. *)
  let tracing = telemetry <> None in
  let control name args =
    match telemetry with
    | Some tr -> Trace.control_instant tr ~args name
    | None -> ()
  in
  (* The monitor is a pure fold over records in run order; feeding it
     here (replayed checkpoint records, then delivered runs — both in
     run order) makes its state independent of worker count and of
     whether the campaign was interrupted. Each observation lands one
     "monitor" instant on the control lane. *)
  let monitor_observe (r : record) =
    match monitor with
    | None -> ()
    | Some m ->
        (match r.outcome with
        | Done c ->
            Monitor.observe_completed m ~cycles:c.cycles ~seconds:c.seconds
        | Trapped _ | Budget_exceeded _ | Invalid_result _ | Worker_lost
        | Worker_hung ->
            Monitor.observe_censored m);
        let s = Monitor.snapshot m in
        control "monitor"
          [
            ("run", Json.Int r.run);
            ("completed", Json.Int s.Monitor.completed);
            ("censored", Json.Int s.Monitor.censored);
            ( "verdict",
              Json.String (Monitor.verdict_to_string s.Monitor.verdict) );
          ]
  in
  let profile_fp = Fault.fingerprint profile in
  let config_desc = Config.describe config in
  let primary = Sample.seeds ~base_seed ~runs in
  let loaded =
    match (checkpoint, resume) with
    | Some path, true when Sys.file_exists path -> (
        (* Lenient load: a checkpoint corrupted by a crash or torn
           write resumes from its longest valid prefix instead of
           aborting the campaign. *)
        match recover path with
        | Error e -> raise (Mismatch ("checkpoint " ^ path ^ ": " ^ e))
        | Ok (c, note) ->
            if c.base_seed <> base_seed then
              raise (Mismatch "checkpoint belongs to a different base seed");
            if c.runs <> runs then
              raise (Mismatch "checkpoint belongs to a different run count");
            if c.profile_fp <> profile_fp then
              raise (Mismatch "checkpoint belongs to a different fault profile");
            if c.config_desc <> config_desc then
              raise (Mismatch "checkpoint belongs to a different configuration");
            (match note with
            | Some n ->
                control "checkpoint-salvaged" [ ("detail", Json.String n) ]
            | None -> ());
            Some c)
    | _ -> None
  in
  let records : record option array = Array.make runs None in
  (match loaded with
  | Some c ->
      List.iter
        (fun r -> if r.run >= 0 && r.run < runs then records.(r.run) <- Some r)
        c.records
  | None -> ());
  control "campaign-start"
    [
      ("runs", Json.Int runs);
      ("base_seed", Json.String (Int64.to_string base_seed));
      ("profile", Json.String profile_fp);
      ("config", Json.String config_desc);
      ("resumed", Json.Bool (loaded <> None));
    ];
  (* Checkpointed runs re-enter the trace as synthetic spans, in run
     order, so the resumed timeline is a consistent continuation. The
     monitor replays the same records in the same order, which is what
     makes its final verdict identical for an interrupted-then-resumed
     campaign and an uninterrupted one. *)
  Array.iteri
    (fun i r ->
      match r with
      | Some r ->
          (match telemetry with
          | Some tr -> Trace.add_run tr ~run:i (restored_stream r)
          | None -> ());
          monitor_observe r
      | None -> ())
    records;
  let quarantine : (int64, unit) Hashtbl.t = Hashtbl.create 64 in
  let quarantined = ref [] in
  let add_quarantine seed =
    if not (Hashtbl.mem quarantine seed) then begin
      Hashtbl.add quarantine seed ();
      quarantined := seed :: !quarantined
    end
  in
  (match loaded with
  | Some c -> List.iter add_quarantine c.quarantined
  | None -> ());
  let budget_cycles = ref (Option.bind loaded (fun c -> c.budget_cycles)) in
  let budget_fuel = ref (Option.bind loaded (fun c -> c.budget_fuel)) in
  (* Watchdog grace calibration: the longest wall-clock attempt seen so
     far (the reference probe here, every delivered run's attempts where
     they executed) scaled by [hang_margin]. Heartbeats are per attempt,
     so the attempt is what the grace must outlast. Per-run fuel is
     budget-capped, so no honest attempt can exceed the calibration
     maximum by anything like the margin; only a genuinely wedged worker
     goes silent that long. *)
  let max_wall = ref 0.0 in
  let observe_wall dt = if dt > !max_wall then max_wall := dt in
  let timed f =
    let t0 = Unix.gettimeofday () in
    Fun.protect ~finally:(fun () -> observe_wall (Unix.gettimeofday () -. t0)) f
  in
  let hang_grace () =
    match policy.hang_grace with
    | Some g -> g
    | None ->
        if !max_wall > 0.0 then Stdlib.max 1.0 (hang_margin *. !max_wall)
        else 60.0 (* resumed with nothing measured; conservative fallback *)
  in
  (* The reference value comes from one clean (injection-free) run; a
     campaign resumed from a checkpoint reuses the recorded decision so
     the continuation matches the uninterrupted campaign exactly. *)
  let reference =
    match loaded with
    | Some c -> c.reference
    | None ->
        let rec probe k =
          if k > policy.max_retries then None
          else
            match
              timed (fun () ->
                  Runtime.run ~limits ~config ~seed:(attempt_seed primary.(0) k)
                    p ~args)
            with
            | r -> Some r.Runtime.return_value
            | exception ((Stack_overflow | Assert_failure _) as fatal) ->
                raise fatal
            | exception _ -> probe (k + 1)
        in
        probe 0
  in
  control "reference-probe"
    [
      ( "value",
        match reference with Some v -> Json.Int v | None -> Json.Null );
    ];
  (* Budget calibration state: completed runs in run order feed the
     calibrator until it freezes. Resumed records re-feed it, which
     reproduces the budgets an uninterrupted campaign would have set. *)
  let calib_cycles = ref [] in
  let calib_fuel = ref [] in
  let calib_n = ref 0 in
  let feed_calibration (c : completed) =
    if !budget_cycles = None && !calib_n < policy.calibration_runs then begin
      calib_cycles := c.cycles :: !calib_cycles;
      calib_fuel := c.instructions :: !calib_fuel;
      incr calib_n;
      if !calib_n >= policy.calibration_runs then begin
        let scale xs =
          int_of_float
            (budget_margin
            *. float_of_int (List.fold_left Stdlib.max 1 xs))
        in
        budget_cycles := Some (scale !calib_cycles);
        budget_fuel := Some (scale !calib_fuel)
      end
    end
  in
  (match loaded with
  | Some _ ->
      if !budget_cycles = None then
        Array.iter
          (function
            | Some { outcome = Done c; _ } -> feed_calibration c
            | _ -> ())
          records
  | None -> ());
  let campaign_so_far () =
    {
      base_seed;
      runs;
      profile_fp;
      config_desc;
      records =
        Array.to_list records |> List.filter_map Fun.id
        |> List.sort (fun a b -> compare a.run b.run);
      quarantined = List.rev !quarantined;
      budget_cycles = !budget_cycles;
      budget_fuel = !budget_fuel;
      reference;
    }
  in
  let finished = ref 0 in
  let checkpoint_now () =
    match checkpoint with
    | Some path ->
        save path (campaign_so_far ());
        control "checkpoint" [ ("finished", Json.Int !finished) ]
    | None -> ()
  in
  let effective_limits () =
    match !budget_fuel with
    | Some fuel ->
        {
          limits with
          Interp.max_instructions = Stdlib.min limits.Interp.max_instructions fuel;
        }
    | None -> limits
  in
  let execute seed =
    let plan = Injector.plan ~profile ~limits:(effective_limits ()) ~seed () in
    Outcome.run ~limits:plan.Injector.limits
      ?machine_factory:plan.Injector.machine_factory
      ~env_wrap:plan.Injector.env_wrap ?budget_cycles:!budget_cycles ?reference
      ~events:tracing ~config ~seed p ~args
  in
  let store_outcome = function
    | Outcome.Completed r ->
        Done
          {
            cycles = r.Runtime.cycles;
            seconds = r.Runtime.virtual_seconds;
            return_value = r.Runtime.return_value;
            instructions = r.Runtime.counters.Hierarchy.instructions;
            counters = r.Runtime.counters;
            epochs = r.Runtime.epochs;
            relocations = r.Runtime.relocations;
            adaptive_triggers = r.Runtime.adaptive_triggers;
            allocations = r.Runtime.heap_stats.Stz_alloc.Allocator.allocations;
            frees = r.Runtime.heap_stats.Stz_alloc.Allocator.frees;
          }
    | Outcome.Trapped (c, pp) -> Trapped (c, pp)
    | Outcome.Budget_exceeded r -> Budget_exceeded (Runtime.partial_of_result r)
    | Outcome.Invalid_result r -> Invalid_result (Runtime.partial_of_result r)
    | Outcome.Worker_lost -> Worker_lost
    | Outcome.Worker_hung -> Worker_hung
  in
  (* One supervised run: the bounded retry loop. Quarantine lookups see
     the global table as of the call (in a worker: as of the fork) plus
     this run's own failed attempts; the failed seeds come back with
     the record so the parent can merge them in run order, and the
     longest attempt's wall time comes back for the watchdog grace.
     Cross-run quarantine hits require two splitmix streams to collide
     (~2^-64), which is what makes the parallel merge bit-identical to a
     serial campaign. *)
  let attempt_run i =
    let failed_seeds = ref [] in
    let streams = ref [] in
    let longest = ref 0.0 in
    let timed_execute seed =
      let t0 = Unix.gettimeofday () in
      let outcome = execute seed in
      let dt = Unix.gettimeofday () -. t0 in
      if dt > !longest then longest := dt;
      outcome
    in
    let note k seed outcome =
      if tracing then
        streams :=
          Spans.of_outcome
            ~name:(if k = 0 then "run" else "retry")
            ~args:
              (("run", Json.Int i) :: Spans.seed_arg seed
              :: (if k > 0 then [ ("attempt", Json.Int k) ] else []))
            outcome
          :: !streams
    in
    let rec attempt k =
      (* Heartbeat: a multi-attempt task keeps resetting the watchdog
         clock, so only a single silent *attempt* — not a long retry
         loop — can trip it. No-op outside a forked worker. *)
      Parallel.beat ();
      let seed = attempt_seed primary.(i) k in
      let outcome =
        if Hashtbl.mem quarantine seed || List.mem seed !failed_seeds then
          (* Known-bad seed: counts as a failed attempt, not re-run. *)
          Outcome.Trapped (Fault.Unknown_trap, None)
        else timed_execute seed
      in
      note k seed outcome;
      match outcome with
      | Outcome.Completed _ ->
          { run = i; seed; retries = k; outcome = store_outcome outcome }
      | failed ->
          failed_seeds := seed :: !failed_seeds;
          if k < policy.max_retries then attempt (k + 1)
          else { run = i; seed; retries = k; outcome = store_outcome failed }
    in
    let r = attempt 0 in
    ((r, List.rev !failed_seeds, Spans.sequence (List.rev !streams)), !longest)
  in
  (* All bookkeeping stays in the parent and happens in run order, so
     quarantine, calibration, on_record and checkpoints are identical
     whatever the worker count. *)
  let deliver i ((r : record), failed_seeds, events) =
    List.iter add_quarantine failed_seeds;
    (match telemetry with
    | Some tr -> Trace.add_run tr ~run:i events
    | None -> ());
    let unfrozen = !budget_cycles = None in
    (match r.outcome with Done c -> feed_calibration c | _ -> ());
    (if unfrozen then
       match !budget_cycles with
       | Some b ->
           control "budgets-frozen"
             [
               ("budget_cycles", Json.Int b);
               ( "budget_fuel",
                 match !budget_fuel with
                 | Some f -> Json.Int f
                 | None -> Json.Null );
             ]
       | None -> ());
    records.(i) <- Some r;
    incr finished;
    (* Monitor before [on_record] so a live status callback sees the
       estimator state that already includes this run. *)
    monitor_observe r;
    (match on_record with Some f -> f r | None -> ());
    checkpoint_now ()
  in
  (* A censored run's synthetic payload: no seeds to quarantine, an
     instant in the trace. Used for tasks whose worker died or hung. *)
  let censored_payload i stored outcome =
    ( { run = i; seed = primary.(i); retries = 0; outcome = stored },
      [],
      if tracing then
        Spans.of_outcome ~name:"run"
          ~args:[ ("run", Json.Int i); Spans.seed_arg primary.(i) ]
          outcome
      else [] )
  in
  (* One execution loop, in waves. Budget calibration is
     order-dependent — budgets freeze after the first [calibration_runs]
     completed runs and tighten the limits of every later run — but a
     run executes unbudgeted exactly when fewer than [calibration_runs]
     runs before it completed. So while the budgets are unfrozen the
     next [calibration_runs - completed] pending runs go out together:
     however the wave turns out, each of them is a run the serial loop
     would also have executed unbudgeted. Once the budgets freeze the
     rest go out at once. [Parallel] reports results in task order, so
     [deliver] sees run order for any worker count: a mid-flight
     checkpoint always holds a prefix of completed runs, exactly what a
     serial campaign interrupted at the same point would have written.
     With [jobs <= 1] everything runs in-process, where a wave is the
     serial loop; otherwise every wave crosses a fork boundary under the
     watchdog, whose grace is recomputed at each wave from the attempts
     delivered so far, so a wedge during calibration is as survivable as
     one in the fan-out. *)
  let dispatch, watchdog =
    if jobs <= 1 then (Parallel.pool_dispatcher, fun () -> None)
    else (dispatch, fun () -> Some (hang_grace ()))
  in
  let dispatch_runs batch =
    let tasks = Array.of_list batch in
    dispatch.Parallel.dispatch ?watchdog:(watchdog ()) ~jobs
      ~on_result:(fun pos res ->
        let i = tasks.(pos) in
        deliver i
          (match res with
          | Parallel.Value (payload, wall) ->
              (* A hung or lost run measured nothing: only delivered
                 attempts calibrate the grace. *)
              observe_wall wall;
              payload
          | Parallel.Lost -> censored_payload i Worker_lost Outcome.Worker_lost
          | Parallel.Hung -> censored_payload i Worker_hung Outcome.Worker_hung))
      ~f:(fun pos -> attempt_run tasks.(pos))
      (Array.length tasks)
  in
  let rec loop = function
    | [] -> ()
    | rest when !budget_cycles <> None -> dispatch_runs rest
    | pending ->
        let wave = Stdlib.max 1 (policy.calibration_runs - !calib_n) in
        dispatch_runs (List.filteri (fun k _ -> k < wave) pending);
        loop (List.filteri (fun k _ -> k >= wave) pending)
  in
  loop (List.filter (fun i -> records.(i) = None) (List.init runs Fun.id));
  let c = campaign_so_far () in
  (match checkpoint with Some path -> save path c | None -> ());
  (match monitor with
  | Some m ->
      control "monitor-verdict"
        [
          ("verdict", Json.String (Monitor.verdict_to_string (Monitor.advise m)));
          ("status", Json.String (Monitor.status_line m));
        ]
  | None -> ());
  (match telemetry with
  | Some tr ->
      let s = List.length (List.filter (fun r -> match r.outcome with Done _ -> true | _ -> false) c.records) in
      Trace.control_counter tr "campaign"
        ~values:
          [
            ("finished", List.length c.records);
            ("completed", s);
            ("quarantined", List.length c.quarantined);
          ]
  | None -> ());
  c

(* ------------------------------------------------------------------ *)
(* Derived views                                                       *)
(* ------------------------------------------------------------------ *)

let times c =
  c.records
  |> List.filter_map (fun r ->
         match r.outcome with Done d -> Some d.seconds | _ -> None)
  |> Array.of_list

let summarize c =
  let completed = ref 0 in
  let censored = ref 0 in
  let retried_runs = ref 0 in
  let total_retries = ref 0 in
  let budget_exceeded = ref 0 in
  let invalid = ref 0 in
  let worker_lost = ref 0 in
  let worker_hung = ref 0 in
  let class_counts = Hashtbl.create 8 in
  List.iter
    (fun r ->
      if r.retries > 0 then incr retried_runs;
      total_retries := !total_retries + r.retries;
      match r.outcome with
      | Done _ -> incr completed
      | Budget_exceeded _ ->
          incr censored;
          incr budget_exceeded
      | Invalid_result _ ->
          incr censored;
          incr invalid
      | Worker_lost ->
          incr censored;
          incr worker_lost
      | Worker_hung ->
          incr censored;
          incr worker_hung
      | Trapped (cls, _) ->
          incr censored;
          Hashtbl.replace class_counts cls
            (1 + Option.value ~default:0 (Hashtbl.find_opt class_counts cls)))
    c.records;
  {
    runs = c.runs;
    completed = !completed;
    censored = !censored;
    retried_runs = !retried_runs;
    total_retries = !total_retries;
    quarantined = List.length c.quarantined;
    budget_exceeded = !budget_exceeded;
    invalid = !invalid;
    worker_lost = !worker_lost;
    worker_hung = !worker_hung;
    by_class =
      List.map
        (fun cls ->
          (cls, Option.value ~default:0 (Hashtbl.find_opt class_counts cls)))
        Fault.all_classes;
  }

let exit_code ~min_n s =
  if s.completed = 0 then 3 else if s.completed < min_n then 2 else 0

let verdict ?alpha ~min_n a b =
  Experiment.compare_samples_gated ?alpha ~min_n (times a) (times b)
