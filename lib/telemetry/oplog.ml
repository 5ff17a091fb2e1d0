(* Structured operational log for the daemon: one JSON object per
   record, kept with the store's Log discipline, plus size-based
   rotation and swallowed IO errors. *)

module A = Stz_store.Artifact

module Codec = struct
  type meta = unit
  type item = Json.t

  let kind = "szc-oplog"
  let name = "oplog"
  let noun = "records"
  let meta_payload () = None
  let meta_of_payload _ = Ok ()
  let item_record j = ("op", Json.to_string j)

  let item_of_record = function
    | "op", p ->
        Some
          (Result.map_error
             (fun e -> "bad record payload: " ^ e)
             (Json.of_string p))
    | _ -> None

  let index = None
end

module L = Stz_store.Log.Make (Codec)

include (L : Stz_store.Log.FILE with type meta = unit and type item = Json.t)

type t = {
  path : string;
  max_bytes : int;
  keep : int;
  mutable log : L.t;
  mutable closed : bool;
}

let header_bytes = String.length (A.header_line ~kind)

(* Reopening self-heals a torn tail; a file that is not our container
   at all is moved aside rather than silently destroyed. *)
let reopen path =
  match L.resume ~path () with
  | Ok (l, _) -> Ok l
  | Error _ ->
      (try Sys.rename path (path ^ ".corrupt") with Sys_error _ -> ());
      L.create ~path ()

let create ~path ?(max_bytes = 4 * 1024 * 1024) ?(keep = 3) () =
  let max_bytes = Stdlib.max max_bytes (header_bytes + 1) in
  Result.map
    (fun log -> { path; max_bytes; keep; log; closed = false })
    (reopen path)

let rotated t i = Printf.sprintf "%s.%d" t.path i

(* path -> path.1 -> path.2 ... up to [keep] rotated generations. *)
let rotate t =
  L.close t.log;
  (try Sys.remove (rotated t t.keep) with Sys_error _ -> ());
  for i = t.keep - 1 downto 1 do
    if Sys.file_exists (rotated t i) then
      try Sys.rename (rotated t i) (rotated t (i + 1)) with Sys_error _ -> ()
  done;
  (if t.keep >= 1 then
     try Sys.rename t.path (rotated t 1) with Sys_error _ -> ());
  (* A generation that cannot be started turns the oplog off. *)
  match L.create ~path:t.path () with
  | Ok l -> t.log <- l
  | Error _ -> t.closed <- true

let log t json =
  if not t.closed then
    try
      let size = L.size t.log in
      let bytes = String.length (A.record_string (Codec.item_record json)) in
      if size > header_bytes && size + bytes > t.max_bytes then rotate t;
      if not t.closed then L.append t.log json
    with Unix.Unix_error _ | Sys_error _ -> ()

let event t ~ts_ms ~ev fields =
  log t (Json.Obj (("ts_ms", Json.Int ts_ms) :: ("ev", Json.String ev) :: fields))

let path t = t.path

let close t =
  if not t.closed then begin
    t.closed <- true;
    L.close t.log
  end
