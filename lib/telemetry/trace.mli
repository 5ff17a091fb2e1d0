(** Campaign-level trace assembler. Run-local event streams (produced
    by {!Runlog}, possibly inside forked workers and shipped back over
    their result pipes) are merged *in run order* onto a virtual
    timeline clocked in simulated cycles:

    - lane 0 is the control lane (calibration, checkpoints, campaign
      bookkeeping);
    - runs are dealt round-robin onto [lanes] virtual worker lanes,
      each with its own cumulative clock.

    The lanes model a deterministic round-robin schedule, NOT the
    physical worker pool: physical scheduling (which fork ran which
    stripe, when) is wall-clock nondeterminism, and baking it into the
    trace would break the system's core guarantee that [--jobs N]
    output is byte-identical to serial. The trace is therefore a pure
    function of (seed, run count, lanes), and records nothing of what
    the physical pool did. *)

type t

(** [lanes] virtual worker lanes (default 4, the lane count of every
    trace [szc] and [szcd] write). Raises [Invalid_argument] when
    [lanes < 1]. *)
val create : ?lanes:int -> unit -> t

(** The lane run [run] lands on: [1 + run mod lanes]. *)
val lane_for : t -> run:int -> int

(** Current virtual time: the latest point any lane has reached. *)
val now : t -> int

(** Merge one run's run-local events: shifted onto the run's lane at
    that lane's current clock, which then advances by the stream's
    {!Event.extent}. Call in run order for deterministic output. *)
val add_run : t -> run:int -> Event.t list -> unit

(** Control-lane point event at virtual time {!now}. *)
val control_instant : t -> ?cat:string -> ?args:Event.args -> string -> unit

val control_counter : t -> ?cat:string -> string -> values:(string * int) list -> unit

(** The event stream, in insertion order. *)
val events : t -> Event.t list
