(** Structured operational log (oplog): an append-only JSONL stream of
    daemon lifecycle events, kept with the {!Stz_store.Log} discipline
    as a container of kind ["szc-oplog"] — one compact JSON object per
    [op] record, no meta record. [szc fsck] verifies it, a SIGKILL
    mid-write salvages to the longest valid record prefix, and a
    reopened oplog self-heals its torn tail before appending resumes.
    Appends are one unbuffered [write(2)] each, so a forked child that
    inherits the descriptor can never duplicate bytes at exit; the
    child simply closes the fd and stays silent.

    Size-based rotation: when the current file would exceed
    [max_bytes], it is renamed to [path.1] (shifting [path.1] to
    [path.2], ... keeping [keep] generations) and a fresh container is
    started.

    This is the {e wall-clock} plane's log. Nothing here is read by —
    or written from — campaign execution; enabling the oplog changes
    zero bytes of any campaign artifact. *)

(** Strict and lenient reads, rewrite and fsck check. *)
include Stz_store.Log.FILE with type meta = unit and type item = Json.t

type t

(** Open (or create) the oplog at [path], self-healing any torn tail; a
    file that is not an oplog is moved aside to [path.corrupt].
    [max_bytes] (default 4 MiB) bounds each generation; [keep]
    (default 3) rotated generations are retained. *)
val create :
  path:string -> ?max_bytes:int -> ?keep:int -> unit -> (t, string) result

(** Append one record. IO errors are swallowed — losing an ops log
    line must never take the daemon down. *)
val log : t -> Json.t -> unit

(** [event t ~ts_ms ~ev fields] appends
    [{"ts_ms": ts_ms, "ev": ev, ...fields}]. [ts_ms] is the caller's
    wall clock in milliseconds. *)
val event : t -> ts_ms:int -> ev:string -> (string * Json.t) list -> unit

val path : t -> string
val close : t -> unit
