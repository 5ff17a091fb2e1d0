type fault =
  | Torn_write of int
  | Bit_flip of int
  | Short_write of int
  | Rename_dropped

let injector : (path:string -> len:int -> fault option) option ref = ref None
let set_injector f = injector := Some f
let clear_injector () = injector := None

(* ------------------------------------------------------------------ *)
(* Durable writes                                                      *)
(* ------------------------------------------------------------------ *)

let rec restart_on_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

let write_exact fd s =
  let len = String.length s in
  let rec go pos =
    if pos < len then
      let k =
        restart_on_eintr (fun () -> Unix.write_substring fd s pos (len - pos))
      in
      go (pos + k)
  in
  go 0

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Directory fsync makes the rename itself durable (the file's data is
   durable after its own fsync, but the new directory entry is not).
   Best-effort: some filesystems refuse fsync on a directory fd. *)
let fsync_dir path =
  let dir = Filename.dirname path in
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

(* What actually lands on disk under an injected fault, and whether the
   rename happens. *)
let apply_fault contents = function
  | None -> (contents, true)
  | Some (Torn_write k) ->
      (String.sub contents 0 (Stdlib.min (Stdlib.max 0 k) (String.length contents)), true)
  | Some (Short_write k) ->
      (String.sub contents 0 (Stdlib.max 0 (String.length contents - Stdlib.max 0 k)), true)
  | Some (Bit_flip i) ->
      let b = Bytes.of_string contents in
      let bits = 8 * Bytes.length b in
      if bits > 0 then begin
        let i = ((i mod bits) + bits) mod bits in
        Bytes.set b (i / 8)
          (Char.chr (Char.code (Bytes.get b (i / 8)) lxor (1 lsl (i mod 8))))
      end;
      (Bytes.to_string b, true)
  | Some Rename_dropped -> (contents, false)

let write_file path contents =
  let fault =
    match !injector with
    | None -> None
    | Some f -> f ~path ~len:(String.length contents)
  in
  let damaged, renamed = apply_fault contents fault in
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_exact fd damaged;
      Unix.fsync fd);
  (* A dropped rename models a crash between write and rename: the temp
     file stays behind (as it would after a real crash) and the previous
     complete version of [path], if any, survives. *)
  if renamed then begin
    Sys.rename tmp path;
    fsync_dir path
  end

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> Ok text
  | exception Sys_error e -> Error e

(* ------------------------------------------------------------------ *)
(* Record containers                                                   *)
(* ------------------------------------------------------------------ *)

let magic = "%szc-artifact 1"

let is_container text =
  String.length text >= String.length magic
  && String.sub text 0 (String.length magic) = magic

(* The record checksum covers the tag as well as the payload, so a bit
   flip anywhere in a record — header or body — is caught. *)
let record_crc tag payload = Crc32.update (Crc32.update 0l tag) payload

let header_line ~kind = Printf.sprintf "%s %s\n" magic kind

let record_string (tag, payload) =
  Printf.sprintf "@%s %d %s\n%s\n" tag (String.length payload)
    (Crc32.to_hex (record_crc tag payload))
    payload

let container ~kind records =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (header_line ~kind);
  List.iter (fun r -> Buffer.add_string buf (record_string r)) records;
  Buffer.contents buf

let write_records path ~kind records =
  write_file path (container ~kind records)

type salvage = {
  kind : string option;
  records : (string * string) list;
  valid_bytes : int;
  total_bytes : int;
  error : string option;
}

(* A valid tag or kind token: printable, no spaces (anything else means
   the header bytes themselves are damaged). *)
let token_ok s =
  s <> ""
  && String.for_all
       (fun c -> c > ' ' && Char.code c < 0x7f)
       s

let salvage_string text =
  let total = String.length text in
  let fail ?kind ?(records = []) ~at msg =
    { kind; records = List.rev records; valid_bytes = at; total_bytes = total; error = Some msg }
  in
  (* The line [pos..newline); None when no newline before EOF. *)
  let line_at pos =
    match String.index_from_opt text pos '\n' with
    | Some nl -> Some (String.sub text pos (nl - pos), nl + 1)
    | None -> None
  in
  match line_at 0 with
  | None -> fail ~at:0 "missing or truncated header line"
  | Some (header, body) -> (
      match String.split_on_char ' ' header with
      | [ "%szc-artifact"; "1"; kind ] when token_ok kind ->
          let rec records pos acc =
            if pos >= total then
              {
                kind = Some kind;
                records = List.rev acc;
                valid_bytes = pos;
                total_bytes = total;
                error = None;
              }
            else
              match line_at pos with
              | None ->
                  fail ~kind ~records:acc ~at:pos "truncated record header"
              | Some (rh, payload_start) -> (
                  match String.split_on_char ' ' rh with
                  | [ tag; len; crc ]
                    when String.length tag > 1
                         && tag.[0] = '@'
                         && token_ok (String.sub tag 1 (String.length tag - 1))
                    -> (
                      match (int_of_string_opt len, Crc32.of_hex crc) with
                      | Some len, Some crc when len >= 0 -> (
                          if payload_start + len + 1 > total then
                            fail ~kind ~records:acc ~at:pos
                              "record payload truncated"
                          else
                            let payload =
                              String.sub text payload_start len
                            in
                            let tag =
                              String.sub tag 1 (String.length tag - 1)
                            in
                            if text.[payload_start + len] <> '\n' then
                              fail ~kind ~records:acc ~at:pos
                                "record framing damaged (missing terminator)"
                            else if record_crc tag payload <> crc then
                              fail ~kind ~records:acc ~at:pos
                                "record checksum mismatch"
                            else
                              records
                                (payload_start + len + 1)
                                ((tag, payload) :: acc))
                      | _ ->
                          fail ~kind ~records:acc ~at:pos
                            "unparsable record header")
                  | _ ->
                      fail ~kind ~records:acc ~at:pos
                        "unparsable record header")
          in
          records body []
      | _ -> fail ~at:0 "not an artifact container (bad header)")

let salvage_file path = Result.map salvage_string (read_file path)

let read_records path =
  match salvage_file path with
  | Error e -> Error e
  | Ok { error = Some e; _ } -> Error e
  | Ok { kind = None; _ } -> Error "not an artifact container"
  | Ok { kind = Some kind; records; _ } -> Ok (kind, records)

(* ------------------------------------------------------------------ *)
(* Summed payloads                                                     *)
(* ------------------------------------------------------------------ *)

let sum_path path = path ^ ".sum"

let sum_line contents =
  Printf.sprintf "crc32 %s len %d\n"
    (Crc32.to_hex (Crc32.digest contents))
    (String.length contents)

let write_with_sum path contents =
  write_file path contents;
  write_file (sum_path path) (sum_line contents)

let verify_sum path =
  if not (Sys.file_exists (sum_path path)) then Ok false
  else
    match read_file (sum_path path) with
    | Error e -> Error e
    | Ok sum -> (
        match String.split_on_char ' ' (String.trim sum) with
        | [ "crc32"; crc; "len"; len ] -> (
            match (Crc32.of_hex crc, int_of_string_opt len) with
            | Some crc, Some len -> (
                match read_file path with
                | Error e -> Error e
                | Ok payload ->
                    if String.length payload <> len then
                      Error
                        (Printf.sprintf
                           "length mismatch: %d bytes on disk, %d expected"
                           (String.length payload) len)
                    else if Crc32.digest payload <> crc then
                      Error "checksum mismatch"
                    else Ok true)
            | _ -> Error "malformed checksum sidecar")
        | _ -> Error "malformed checksum sidecar")
