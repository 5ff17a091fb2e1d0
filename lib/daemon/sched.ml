type flow = {
  key : string;
  mutable want : int;
  mutable deficit : int;
  mutable held : int;  (** slots granted and not yet freed *)
}

type t = {
  quantum : int;
  slots : int;
  mutable flows : flow list;  (** arrival order *)
  mutable busy : int;
}

let create ~quantum ~slots =
  { quantum = Stdlib.max 1 quantum; slots = Stdlib.max 1 slots; flows = []; busy = 0 }

let find t key = List.find_opt (fun f -> f.key = key) t.flows

let register t ~key =
  if find t key = None then
    t.flows <- t.flows @ [ { key; want = 0; deficit = 0; held = 0 } ]

let unregister t ~key =
  (match find t key with
  | Some f -> t.busy <- Stdlib.max 0 (t.busy - f.held)
  | None -> ());
  t.flows <- List.filter (fun f -> f.key <> key) t.flows

let want t ~key n = match find t key with Some f -> f.want <- Stdlib.max 0 n | None -> ()

let free t ~key n =
  match find t key with
  | Some f ->
      let n = Stdlib.min n f.held in
      f.held <- f.held - n;
      t.busy <- Stdlib.max 0 (t.busy - n)
  | None -> ()

let grants t =
  let out = ref [] in
  List.iter
    (fun f ->
      if f.want > 0 && t.busy < t.slots then begin
        f.deficit <- f.deficit + t.quantum;
        let g = Stdlib.min f.want (Stdlib.min f.deficit (t.slots - t.busy)) in
        if g > 0 then begin
          f.deficit <- f.deficit - g;
          f.want <- 0;
          f.held <- f.held + g;
          t.busy <- t.busy + g;
          out := (f.key, g) :: !out
        end
      end
      else if f.want = 0 then
        (* An idle flow carries no deficit into its next burst. *)
        f.deficit <- 0)
    t.flows;
  List.rev !out

let busy t = t.busy
let slots t = t.slots

type flow_stat = { f_key : string; f_deficit : int; f_held : int }

let flows t =
  List.map
    (fun f -> { f_key = f.key; f_deficit = f.deficit; f_held = f.held })
    t.flows
