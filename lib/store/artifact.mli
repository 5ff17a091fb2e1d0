(** Durable artifact storage: every file the harness must be able to
    trust after a crash goes through this module.

    Two shapes are supported:

    - {b Record containers} — a magic header line plus a sequence of
      tagged, length-prefixed, CRC-32-checksummed records. Used for the
      supervisor's checkpoints: a torn or bit-flipped file is recovered
      to its longest valid record prefix instead of being lost
      ({!salvage_string}).
    - {b Summed payloads} — the payload bytes verbatim (so CSVs stay
      spreadsheet-loadable and traces stay Chrome-loadable) plus a
      [.sum] sidecar carrying the payload's CRC-32 and length
      ({!write_with_sum} / {!verify_sum}).

    All writes are atomic and durable: the bytes go to [path ^ ".tmp"],
    the temp file is fsynced, renamed over [path], and the parent
    directory is fsynced — so a crash at any point leaves either the
    old complete file or the new complete file, never a torn one.

    {b Storage-fault injection.} A process-wide injector hook
    ({!set_injector}) lets a test harness corrupt writes
    deterministically: keep a prefix (torn write), flip one bit, drop a
    tail (short write), or skip the rename entirely (the crash window
    this module otherwise closes). The injector sees every durable
    write in order, so a seeded stream reproduces the same damage every
    time. See [Stz_faults.Storage] for the seeded profiles. *)

(** One injected storage fault, applied to a single durable write. *)
type fault =
  | Torn_write of int
      (** only the first [k] bytes reach the disk (crash mid-write);
          clamped to the payload length *)
  | Bit_flip of int
      (** bit [i] (of the whole payload, [i mod (8 * len)]) is inverted
          — silent media corruption *)
  | Short_write of int
      (** the last [k] bytes are dropped (a short [write(2)] whose
          return value went unchecked); clamped to the payload length *)
  | Rename_dropped
      (** the temp file is written and fsynced but the rename never
          happens — the pre-existing file (if any) survives intact *)

(** Install / remove the storage-fault injector. The callback observes
    every durable write ([path] and payload [len]) and returns the
    fault to apply, or [None] for a clean write. Process-wide; forked
    workers inherit a copy but never write artifacts. *)
val set_injector : (path:string -> len:int -> fault option) -> unit

val clear_injector : unit -> unit

(** [write_file path contents] — atomic, durable, fault-injectable
    write of [contents] to [path] (tmp + fsync + rename + directory
    fsync). Raises [Sys_error]/[Unix.Unix_error] only on real IO
    failure, never because of an injected fault. *)
val write_file : string -> string -> unit

(** [read_file path] — whole file as a string. *)
val read_file : string -> (string, string) result

(** [restart_on_eintr f] calls [f ()] again for as long as it raises
    [Unix_error EINTR]: a signal landing mid-syscall is never an
    error. *)
val restart_on_eintr : (unit -> 'a) -> 'a

(** [write_exact fd s] writes all of [s] at [fd]'s offset, retrying
    short writes and [EINTR]. Neither atomic nor fsynced: incremental
    logs ({!Log}) rely on salvage instead. Any other [Unix_error]
    (e.g. [EPIPE] from a vanished reader) propagates. *)
val write_exact : Unix.file_descr -> string -> unit

(** [mkdir_p dir] creates [dir] and any missing parents (mode 0o755).
    Raises [Unix.Unix_error] on real failure. *)
val mkdir_p : string -> unit

(** {1 Record containers} *)

(** The container magic ("%szc-artifact 1"); a file starting with it is
    treated as a container by {!is_container} and [szc fsck]. *)
val magic : string

val is_container : string -> bool

(** Serialize records to container bytes: a header line
    ["%szc-artifact 1 <kind>\n"], then per record
    ["@<tag> <len> <crc32hex>\n<payload>\n"] — the CRC covers the tag
    and the payload, so a single-bit flip anywhere in a record is
    caught. Deterministic: same records, same bytes. *)
val container : kind:string -> (string * string) list -> string

(** The container header line for [kind] alone — what {!container}
    emits before any records. *)
val header_line : kind:string -> string

(** One framed record, exactly as {!container} emits it. Incremental
    writers (the daemon's oplog) append these to a file that started
    with {!header_line}; the result is byte-compatible with
    {!salvage_string}, so a torn tail recovers to the longest valid
    record prefix. *)
val record_string : string * string -> string

(** {!container} composed with {!write_file}. *)
val write_records : string -> kind:string -> (string * string) list -> unit

(** Result of lenient container parsing: the longest prefix of records
    whose framing and CRC both check out. *)
type salvage = {
  kind : string option;
      (** [None] when the header line itself is unrecognizable — the
          file is not a (recoverable) container *)
  records : (string * string) list;  (** [(tag, payload)], valid prefix *)
  valid_bytes : int;  (** bytes covered by the header + valid prefix *)
  total_bytes : int;
  error : string option;
      (** why parsing stopped short, [None] when the whole file parsed
          ([error = None] implies [valid_bytes = total_bytes]; an empty
          or headerless file has an error even at zero valid bytes) *)
}

(** Never raises: any byte string produces a salvage report. *)
val salvage_string : string -> salvage

(** {!salvage_string} over a file; [Error] only on IO failure. *)
val salvage_file : string -> (salvage, string) result

(** Strict read: [Ok (kind, records)] only when the whole container
    parses and every record's CRC matches. *)
val read_records : string -> (string * (string * string) list, string) result

(** {1 Summed payloads} *)

(** [sum_path path = path ^ ".sum"]. *)
val sum_path : string -> string

(** Durable write of the payload plus its sidecar
    ["crc32 <hex> len <n>\n"]. Both writes are fault-injectable. *)
val write_with_sum : string -> string -> unit

(** Verify [path] against its sidecar. [Ok true] when the checksum
    matches, [Ok false] when no sidecar exists (nothing to verify),
    [Error] on mismatch, unreadable payload, or malformed sidecar. *)
val verify_sum : string -> (bool, string) result
