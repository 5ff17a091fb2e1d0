let control_lane = 0

type t = {
  lanes : int;
  clocks : int array;  (* virtual clock per run lane, index 0 = lane 1 *)
  mutable control_clock : int;
  mutable events_rev : Event.t list;
}

let create ?(lanes = 4) () =
  if lanes < 1 then invalid_arg "Trace.create: lanes must be >= 1";
  { lanes; clocks = Array.make lanes 0; control_clock = 0; events_rev = [] }

let lane_for t ~run = 1 + (run mod t.lanes)

(* The virtual "now" of campaign-level bookkeeping: nothing the
   supervisor does can predate work already merged. *)
let now t =
  Array.fold_left max t.control_clock t.clocks

let push t e = t.events_rev <- e :: t.events_rev

let add_run t ~run events =
  let lane = lane_for t ~run in
  let base = t.clocks.(lane - 1) in
  List.iter (fun e -> push t (Event.shift ~lane ~by:base e)) events;
  t.clocks.(lane - 1) <- base + Event.extent events

let control_instant t ?(cat = "control") ?(args = []) name =
  let ts = now t in
  t.control_clock <- ts;
  push t (Event.Instant { name; cat; lane = control_lane; ts; args })

let control_counter t ?(cat = "control") name ~values =
  let ts = now t in
  t.control_clock <- ts;
  push t (Event.Counter { name; cat; lane = control_lane; ts; values })

let events t = List.rev t.events_rev
