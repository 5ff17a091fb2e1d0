type open_span = {
  o_name : string;
  o_cat : string;
  o_ts : int;
  o_args : Event.args;
}

type t = {
  mutable events_rev : Event.t list;
  mutable stack : open_span list;
  mutable last_ts : int;
}

let create () = { events_rev = []; stack = []; last_ts = 0 }

let check_clock t ~now =
  if now < t.last_ts then
    invalid_arg
      (Printf.sprintf "Runlog: clock went backwards (%d after %d)" now t.last_ts);
  t.last_ts <- now

let begin_span t ?(cat = "") ?(args = []) name ~now =
  check_clock t ~now;
  t.stack <- { o_name = name; o_cat = cat; o_ts = now; o_args = args } :: t.stack

let end_span ?(args = []) t ~now =
  check_clock t ~now;
  match t.stack with
  | [] -> invalid_arg "Runlog.end_span: no open span"
  | s :: rest ->
      t.stack <- rest;
      t.events_rev <-
        Event.Span
          {
            name = s.o_name;
            cat = s.o_cat;
            lane = 0;
            ts = s.o_ts;
            dur = now - s.o_ts;
            args = s.o_args @ args;
          }
        :: t.events_rev

let instant t ?(cat = "") ?(args = []) name ~now =
  check_clock t ~now;
  t.events_rev <- Event.Instant { name; cat; lane = 0; ts = now; args } :: t.events_rev

let counter t ?(cat = "") name ~values ~now =
  check_clock t ~now;
  t.events_rev <- Event.Counter { name; cat; lane = 0; ts = now; values } :: t.events_rev

let depth t = List.length t.stack

let close t ~now = while t.stack <> [] do end_span t ~now done

let events t =
  if t.stack <> [] then
    invalid_arg
      (Printf.sprintf "Runlog.events: %d unclosed span(s), innermost %S"
         (List.length t.stack)
         (match t.stack with s :: _ -> s.o_name | [] -> ""));
  (* Spans are recorded at their *end*; emit the stream ordered by start
     timestamp (stable, so nesting order survives ties) — the order the
     run actually produced them in. *)
  List.stable_sort
    (fun a b -> compare (Event.ts a) (Event.ts b))
    (List.rev t.events_rev)
