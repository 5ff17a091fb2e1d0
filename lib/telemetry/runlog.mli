(** Run-local event recorder: an append-only log with a span stack, the
    thing a single (possibly forked) run writes into while it executes.
    Timestamps are the producer's clock — simulated cycles here — and
    must be monotone; the recorder enforces it, along with the span
    nesting invariants (every [end_span] matches an open span, and a
    stream with unclosed spans cannot be exported).

    The produced events are run-local: lane 0, timestamps starting
    wherever the producer's clock started. {!Trace.add_run} shifts them
    onto a campaign timeline, which is how worker-side streams merge
    deterministically in run order. *)

type t

val create : unit -> t

(** Raise [Invalid_argument] if [now] is behind the latest recorded
    timestamp (all recording functions do). *)
val begin_span : t -> ?cat:string -> ?args:Event.args -> string -> now:int -> unit

(** Close the innermost open span; [args] are appended to the ones given
    at [begin_span]. Raises [Invalid_argument] when no span is open. *)
val end_span : ?args:Event.args -> t -> now:int -> unit

val instant : t -> ?cat:string -> ?args:Event.args -> string -> now:int -> unit
val counter : t -> ?cat:string -> string -> values:(string * int) list -> now:int -> unit

(** Open spans right now. *)
val depth : t -> int

(** Close every open span at [now] (crash-path convenience). *)
val close : t -> now:int -> unit

(** The recorded stream ordered by start timestamp. Raises
    [Invalid_argument] if any span is still open. *)
val events : t -> Event.t list
