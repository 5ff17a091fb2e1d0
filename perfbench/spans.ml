(* Host-time spans recorded from outside the library: the benchmark
   wraps its own calls into each layer's public functions, keeps every
   span in memory, and writes them once at the end as a Chrome trace.

   One process keeps one recorder. A forked pool task starts from an
   empty span list and hands its spans back with its result (they are
   plain data, so they Marshal over the pool pipe); the parent places
   them on the task's worker lane. Environment callbacks fire tens of
   thousands of times per run, so they are not spans: each run span
   carries an accumulator of call counts and total seconds per
   callback, counted as hidden child time. *)

module Event = Stz_telemetry.Event
module Json = Stz_telemetry.Json
module Interp = Stz_vm.Interp

let now = Unix.gettimeofday

type span = {
  id : int;
  parent : int;  (** -1 for a top-level span *)
  lane : int;  (** 0 = benchmark process, 1.. = pool worker slots *)
  name : string;  (** ["<layer>.<what>"], the layer named after lib/ *)
  t0 : float;
  t1 : float;
  hidden : (string * int * float) list;
      (** accumulated callbacks: layer name, calls, seconds *)
}

let enabled = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

(* [with_span name f] times [f ()] as a child of the innermost open
   span. [hidden] is read when the span closes. Off when [!enabled] is
   false, so the untraced pass pays nothing. *)
let with_span ?hidden name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        stack := List.tl !stack;
        let hidden = match hidden with Some h -> h () | None -> [] in
        spans := { id; parent; lane = 0; name; t0; t1; hidden } :: !spans)
      f
  end

(* Run [f] with a fresh span list and return its spans alongside the
   result — the shape of a pool task. Restores the caller's state, so
   it is also correct when the task runs in-process. *)
let isolated f =
  let saved_spans = !spans and saved_stack = !stack and saved_id = !next_id in
  spans := [];
  stack := [];
  next_id := 0;
  Fun.protect
    ~finally:(fun () ->
      spans := saved_spans;
      stack := saved_stack;
      next_id := saved_id)
    (fun () ->
      let v = f () in
      (v, !spans))

(* Adopt a task's spans onto [lane], renumbering ids past ours. The
   task's top-level spans become children of our innermost open span
   (the pool map that ran the task). *)
let adopt ~lane task_spans =
  let base = !next_id in
  let caller = match !stack with p :: _ -> p | [] -> -1 in
  List.iter
    (fun s ->
      spans :=
        {
          s with
          id = base + s.id;
          parent = (if s.parent < 0 then caller else base + s.parent);
          lane;
        }
        :: !spans;
      next_id := Stdlib.max !next_id (base + s.id + 1))
    task_spans

let reset () =
  spans := [];
  stack := [];
  next_id := 0

(* ------------------------------------------------------------------ *)
(* Accumulated environment callbacks                                   *)
(* ------------------------------------------------------------------ *)

(* Callback slots and the layer each one is charged to. *)
let k_enter = 0
let k_frame = 1
let k_call = 2
let k_global = 3
let k_malloc = 4
let k_free = 5

let slot_names =
  [| "layout.enter"; "layout.frame"; "layout.call"; "layout.global";
     "alloc.malloc"; "alloc.free" |]

type accum = { calls : int array; secs : float array }

let accum () =
  let n = Array.length slot_names in
  { calls = Array.make n 0; secs = Array.make n 0.0 }

let charge a k t0 =
  a.secs.(k) <- a.secs.(k) +. (now () -. t0);
  a.calls.(k) <- a.calls.(k) + 1

let hidden_of a () =
  Array.to_list (Array.mapi (fun k n -> (n, a.calls.(k), a.secs.(k))) slot_names)

(* Time every layout and allocator callback of one run's environment. *)
let wrap_env a (env : Interp.env) =
  {
    env with
    Interp.enter_function =
      (fun ~fid ->
        let t0 = now () in
        let v = env.Interp.enter_function ~fid in
        charge a k_enter t0;
        v);
    frame_push =
      (fun ~fid ->
        let t0 = now () in
        let v = env.Interp.frame_push ~fid in
        charge a k_frame t0;
        v);
    frame_pop =
      (fun ~fid ->
        let t0 = now () in
        env.Interp.frame_pop ~fid;
        charge a k_frame t0);
    global_addr =
      (fun ~caller ~gid ->
        let t0 = now () in
        let v = env.Interp.global_addr ~caller ~gid in
        charge a k_global t0;
        v);
    malloc =
      (fun ~size ->
        let t0 = now () in
        let v = env.Interp.malloc ~size in
        charge a k_malloc t0;
        v);
    free =
      (fun ~addr ->
        let t0 = now () in
        env.Interp.free ~addr;
        charge a k_free t0);
    call_prologue =
      (fun ~caller ~callee ->
        let t0 = now () in
        env.Interp.call_prologue ~caller ~callee;
        charge a k_call t0);
  }

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let dur s = s.t1 -. s.t0

(* Length of the part of [t0, t1] that the intervals cover. *)
let covered ~t0 ~t1 intervals =
  let sorted =
    List.sort compare
      (List.filter_map
         (fun (a, b) ->
           let a = Float.max a t0 and b = Float.min b t1 in
           if b > a then Some (a, b) else None)
         intervals)
  in
  fst
    (List.fold_left
       (fun (total, last) (a, b) ->
         let a = Float.max a last in
         if b > a then (total +. (b -. a), b) else (total, last))
       (0.0, neg_infinity) sorted)

(* Self time per span name: duration minus the part of it that child
   spans cover (pool tasks overlap one another on their own lanes)
   minus accumulated callbacks; each callback's seconds go to its own
   name. Returns (name, self seconds, count, total seconds) with count
   = spans or calls. *)
let self_times all =
  let intervals = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace intervals s.parent
          ((s.t0, s.t1) :: Option.value ~default:[] (Hashtbl.find_opt intervals s.parent)))
    all;
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt intervals s.id with
      | Some l -> Hashtbl.replace children s.id (covered ~t0:s.t0 ~t1:s.t1 l)
      | None -> ())
    all;
  let tbl = Hashtbl.create 32 in
  let add name self n total =
    let s0, n0, t0 = Option.value ~default:(0.0, 0, 0.0) (Hashtbl.find_opt tbl name) in
    Hashtbl.replace tbl name (s0 +. self, n0 + n, t0 +. total)
  in
  List.iter
    (fun s ->
      let kids = Option.value ~default:0.0 (Hashtbl.find_opt children s.id) in
      let hid = List.fold_left (fun acc (_, _, x) -> acc +. x) 0.0 s.hidden in
      add s.name (dur s -. kids -. hid) 1 (dur s);
      List.iter (fun (n, c, x) -> add n x c x) s.hidden)
    all;
  Hashtbl.fold (fun name (self, n, total) acc -> (name, self, n, total) :: acc) tbl []
  |> List.sort compare

let lookup table name =
  match List.find_opt (fun (n, _, _, _) -> n = name) table with
  | Some (_, self, n, _) -> (self, n)
  | None -> (0.0, 0)

(* Share of [t0, t1] that top-level spans of lane 0 cover. *)
let coverage all ~t0 ~t1 =
  let top = List.filter (fun s -> s.lane = 0 && s.parent < 0) all in
  if t1 > t0 then covered ~t0 ~t1 (List.map (fun s -> (s.t0, s.t1)) top) /. (t1 -. t0)
  else 0.0

(* Chrome trace_event export through the repo's own exporter; the clock
   is host microseconds since [origin]. *)
let chrome ~process_name ~origin all =
  let us t = Stdlib.max 0 (int_of_float ((t -. origin) *. 1e6)) in
  let events =
    List.rev_map
      (fun s ->
        let cat =
          match String.index_opt s.name '.' with
          | Some i -> String.sub s.name 0 i
          | None -> s.name
        in
        let ts = us s.t0 in
        Event.Span
          {
            name = s.name;
            cat;
            lane = s.lane;
            ts;
            dur = Stdlib.max 0 (us s.t1 - ts);
            args =
              List.concat_map
                (fun (n, c, x) ->
                  [ (n ^ ".calls", Json.Int c); (n ^ ".s", Json.Float x) ])
                s.hidden;
          })
      all
    |> List.sort (fun a b -> compare (Event.ts a) (Event.ts b))
  in
  Stz_telemetry.Export.chrome_string ~process_name events
