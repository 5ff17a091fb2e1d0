(** The durable log: one crash-safe discipline over {!Artifact} record
    containers, instantiated per record kind — the history ledger
    ({!Ledger}), the fuzz and sweep ledgers ({!Fuzzlog}, {!Sweeplog}),
    the daemon oplog and the supervisor checkpoint.

    A log is a container of kind [C.kind]: the header line, an optional
    leading [meta] record pinning the log's identity, then one record
    per item. Appends are one unbuffered [write(2)] each — a fresh log's
    header and meta go down together — so a SIGKILL at any instant
    leaves a valid record prefix of what was appended. {!S.resume}
    salvages that prefix, refuses a different meta, keeps only the
    items at their own index, truncates the rest in place and carries
    on: the finished file is byte-identical to an uninterrupted run's.
    Whole-file writes ({!FILE.rewrite}) are atomic and durable.

    Reads are strict ({!FILE.load}) or lenient ({!FILE.recover}: the
    longest valid prefix plus a salvage note), and {!check} is the
    [szc fsck] / spool-repair decision. Resume and repair rebuild from
    the salvaged [(tag, payload)] pairs verbatim, never by re-encoding
    decoded values. *)

(** What a record kind supplies. *)
module type CODEC = sig
  type meta
  type item

  val kind : string  (** container kind in the header line *)

  val name : string  (** error-message prefix, e.g. ["fuzzlog"] *)

  val noun : string  (** plural item noun for salvage notes *)

  (** The [meta] record's payload; [None] for a log without one. *)
  val meta_payload : meta -> string option

  (** Decode the leading [meta] record ([None] when there is none). *)
  val meta_of_payload : string option -> (meta, string) result

  val item_record : item -> string * string  (** [(tag, payload)] *)

  (** [None] for a tag this log does not know. *)
  val item_of_record : string * string -> (item, string) result option

  (** For items that carry their position: resume trusts only the
      prefix whose [k]-th item has index [k]. *)
  val index : (item -> int) option
end

(** Outcome of {!check}. *)
type verdict =
  | Intact of int  (** item count *)
  | Salvageable of string * int
      (** salvage note and items kept; under [~repair] the file was
          rewritten from them *)
  | Unrecoverable of string
      (** under [~repair] the file was moved aside to [path.corrupt] *)

(** The whole-file side every log offers. *)
module type FILE = sig
  type meta
  type item

  val kind : string

  (** Strict read: every record must parse and checksum. *)
  val load : string -> (meta * item list, string) result

  (** Lenient read: the longest valid prefix, plus a salvage note
      unless every record survived. *)
  val recover : string -> (meta * item list * string option, string) result

  (** Write a clean container, atomically and durably. *)
  val rewrite : string -> meta -> item list -> unit

  val check : repair:bool -> string -> verdict
end

(** The whole-file side plus the incremental writer. *)
module type S = sig
  include FILE

  type t

  (** Start a fresh log, truncating any existing file. *)
  val create : path:string -> meta -> (t, string) result

  (** Reopen a log for appending and return its surviving items. A
      missing file, or one cut before its first complete record, starts
      fresh; a different meta is refused, naming the fields that
      differ. *)
  val resume : path:string -> meta -> (t * item list, string) result

  (** One [write(2)]; raises [Unix.Unix_error] on IO failure. *)
  val append : t -> item -> unit

  (** Bytes in the file after the last append. *)
  val size : t -> int

  val close : t -> unit
end

module Make (C : CODEC) : S with type meta = C.meta and type item = C.item

(** [check ~recover ~rewrite ~repair path]: [Intact] when [recover]
    salvages everything (no note); else [Salvageable], rewriting [path]
    from the salvage under [repair]; else [Unrecoverable], moving [path]
    aside under [repair]. [recover] also reports the item count.
    {!Make} instances apply it to their own salvage; the supervisor
    checkpoint applies it to its own [recover]. *)
val check :
  recover:(string -> ('v * int * string option, string) result) ->
  rewrite:(string -> 'v -> unit) ->
  repair:bool ->
  string ->
  verdict

(** Line-oriented ["key value"] payloads in a fixed field order — the
    history, fuzz and sweep ledgers' record encoding. Values may not
    contain newlines. *)
module Kv : sig
  val encode : (string * string) list -> string

  (** Newlines and carriage returns become spaces. *)
  val sanitize : string -> string

  (** [%h]: hexadecimal floats print and parse bit-exactly. *)
  val hex : float -> string

  type t

  val decode : string -> t
  val str : t -> string -> (string, string) result
  val num : t -> string -> (string -> 'a option) -> ('a, string) result
end
