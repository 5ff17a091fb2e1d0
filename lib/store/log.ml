(* One crash-safe log discipline over Artifact containers, written once:
   incremental one-write(2) appends with torn-tail self-heal on resume,
   strict and lenient whole-file reads, atomic rewrite, and the
   fsck/repair decision. Each record kind supplies only a codec. *)

module A = Artifact

let ( let* ) = Result.bind

module type CODEC = sig
  type meta
  type item

  val kind : string
  val name : string
  val noun : string
  val meta_payload : meta -> string option
  val meta_of_payload : string option -> (meta, string) result
  val item_record : item -> string * string
  val item_of_record : string * string -> (item, string) result option
  val index : (item -> int) option
end

type verdict =
  | Intact of int
  | Salvageable of string * int
  | Unrecoverable of string

module type FILE = sig
  type meta
  type item

  val kind : string
  val load : string -> (meta * item list, string) result
  val recover : string -> (meta * item list * string option, string) result
  val rewrite : string -> meta -> item list -> unit
  val check : repair:bool -> string -> verdict
end

module type S = sig
  include FILE

  type t

  val create : path:string -> meta -> (t, string) result
  val resume : path:string -> meta -> (t * item list, string) result
  val append : t -> item -> unit
  val size : t -> int
  val close : t -> unit
end

let check ~recover ~rewrite ~repair path =
  match recover path with
  | Ok (_, n, None) -> Intact n
  | Ok (v, n, Some note) ->
      if repair then rewrite path v;
      Salvageable (note, n)
  | Error e ->
      if repair then Sys.rename path (path ^ ".corrupt");
      Unrecoverable e

module Make (C : CODEC) = struct
  type meta = C.meta
  type item = C.item

  let kind = C.kind
  let header = A.header_line ~kind
  let meta_tag = "meta"
  let meta_records = function Some p -> [ (meta_tag, p) ] | None -> []

  (* Split off the leading meta record and decode the items in file
     order, each kept with its raw record, up to the first undecodable
     one; unknown tags are skipped. Also returns the first problem met. *)
  let decode records =
    let stored, rest =
      match records with
      | (tag, p) :: rest when tag = meta_tag -> (Some p, rest)
      | _ -> (None, records)
    in
    let* meta = C.meta_of_payload stored in
    let rec items acc problem = function
      | [] -> (List.rev acc, problem)
      | r :: rest -> (
          let first e = if problem = None then Some e else problem in
          match C.item_of_record r with
          | Some (Ok x) -> items ((r, x) :: acc) problem rest
          | Some (Error e) -> (List.rev acc, first e)
          | None ->
              let e = Printf.sprintf "unknown record tag %S" (fst r) in
              items acc (first e) rest)
    in
    let items, problem = items [] None rest in
    Ok (meta, stored, items, problem)

  let raw_container stored items =
    A.container ~kind (meta_records stored @ List.map fst items)

  let same_kind text =
    let s = A.salvage_string text in
    if s.A.kind = Some kind then Ok s
    else
      Error
        (Printf.sprintf "not a %s container%s" kind
           (match s.A.error with Some e -> " (" ^ e ^ ")" | None -> ""))

  (* The lenient read behind load, recover and repair: the survivors
     with their raw records, and a note unless every record survived. *)
  let salvage path =
    Result.map_error
      (fun e -> C.name ^ ": " ^ e)
      (let* text = A.read_file path in
       let* s = same_kind text in
       let* meta, stored, items, problem = decode s.A.records in
       let why = if problem = None then s.A.error else problem in
       let note =
         Option.map
           (Printf.sprintf "salvaged %d of %d bytes (%d %s): %s" s.A.valid_bytes
              s.A.total_bytes (List.length items) C.noun)
           why
       in
       Ok ((meta, stored, items), note))

  let recover path =
    Result.map
      (fun ((meta, _, items), note) -> (meta, List.map snd items, note))
      (salvage path)

  let load path =
    match recover path with
    | Ok (meta, items, None) -> Ok (meta, items)
    | Ok (_, _, Some note) -> Error (C.name ^ ": " ^ note)
    | Error e -> Error e

  let rewrite path meta items =
    A.write_records path ~kind
      (meta_records (C.meta_payload meta) @ List.map C.item_record items)

  let check =
    check
      ~recover:(fun path ->
        Result.map
          (fun (((_, _, items) as v), note) -> (v, List.length items, note))
          (salvage path))
      ~rewrite:(fun path (_, stored, items) ->
        A.write_file path (raw_container stored items))

  type t = { fd : Unix.file_descr; mutable size : int; mutable closed : bool }

  (* Make [path] (currently [text]) hold exactly [bytes], writing only
     what differs: a torn tail is truncated in place, and a fresh log's
     header and meta go down in one write(2). *)
  let settle path ~text bytes =
    let n = Stdlib.min (String.length text) (String.length bytes) in
    let rec common i =
      if i < n && text.[i] = bytes.[i] then common (i + 1) else i
    in
    let keep = common 0 in
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
    (try
       Unix.ftruncate fd keep;
       ignore (Unix.lseek fd keep Unix.SEEK_SET);
       A.write_exact fd (String.sub bytes keep (String.length bytes - keep))
     with e ->
       Unix.close fd;
       raise e);
    { fd; size = String.length bytes; closed = false }

  let at path r =
    let r =
      try r () with
      | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      | Sys_error e -> Error e
    in
    Result.map_error (fun e -> Printf.sprintf "%s %s: %s" C.name path e) r

  let fresh meta = A.container ~kind (meta_records meta)

  let create ~path meta =
    at path (fun () -> Ok (settle path ~text:"" (fresh (C.meta_payload meta))))

  let mismatch stored wanted =
    let lines = function None -> [] | Some p -> String.split_on_char '\n' p in
    let a = lines stored and b = lines wanted in
    let only a b = List.filter (fun l -> not (List.mem l b)) a in
    Printf.sprintf "meta mismatch (file: %s; requested: %s)"
      (String.concat ", " (only a b))
      (String.concat ", " (only b a))

  (* Only items sitting at their own index are trustworthy: anything
     after a gap was appended out of order. *)
  let in_place items =
    match C.index with
    | None -> items
    | Some index ->
        let rec go k = function
          | ((_, x) as it) :: rest when index x = k -> it :: go (k + 1) rest
          | _ -> []
        in
        go 0 items

  let resume ~path meta =
    at path (fun () ->
        let wanted = C.meta_payload meta in
        let* text = if Sys.file_exists path then A.read_file path else Ok "" in
        let fresh () = Ok (settle path ~text (fresh wanted), []) in
        (* Cut inside the header, or inside the first record: no item
           can precede the meta record, so nothing was lost. *)
        if String.starts_with ~prefix:text header then fresh ()
        else
          let* s = same_kind text in
          if s.A.records = [] then fresh ()
          else
            let* _, stored, items, _ = decode s.A.records in
            if stored <> wanted then Error (mismatch stored wanted)
            else
              let items = in_place items in
              let t = settle path ~text (raw_container stored items) in
              Ok (t, List.map snd items))

  let append t x =
    if t.closed then invalid_arg (C.name ^ ": append after close");
    let r = A.record_string (C.item_record x) in
    A.write_exact t.fd r;
    t.size <- t.size + String.length r

  let size t = t.size

  let close t =
    if not t.closed then begin
      t.closed <- true;
      try Unix.close t.fd with Unix.Unix_error _ -> ()
    end
end

module Kv = struct
  let encode fields =
    String.concat "\n" (List.map (fun (k, v) -> k ^ " " ^ v) fields)

  let sanitize = String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c)
  let hex x = Printf.sprintf "%h" x

  type t = (string, string) Hashtbl.t

  let decode s =
    let t = Hashtbl.create 24 in
    List.iter
      (fun line ->
        if line <> "" then
          match String.index_opt line ' ' with
          | Some i ->
              Hashtbl.replace t (String.sub line 0 i)
                (String.sub line (i + 1) (String.length line - i - 1))
          | None -> Hashtbl.replace t line "")
      (String.split_on_char '\n' s);
    t

  let str t key =
    match Hashtbl.find_opt t key with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" key)

  let num t key conv =
    let* v = str t key in
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "bad field %S" key)
end
