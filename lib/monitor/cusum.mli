(** Two-sided CUSUM drift detector (Page, 1954). Observations are
    standardized against a frozen reference mean/sd and accumulated
    into upper and lower sums with slack [k]; either sum crossing the
    decision threshold [h] raises a persistent alarm. The monitor runs
    one detector on completed-run cycle counts (layout or budget drift)
    and one on the censored-run indicator (fault-rate drift).

    Until {!set_reference} is called, observations are buffered only as
    a count; they accumulate nothing — a detector with no baseline has
    nothing to detect drift from. *)

type t

(** [k] slack and [h] threshold, both in reference-sd units (defaults
    0.5 and 5.0 — the conventional "detect a 1-sd shift" tuning). *)
val create : ?k:float -> ?h:float -> unit -> t

(** Freeze the reference. A non-positive [sd] means an all-equal
    baseline: any later deviation from [mean] is scored at the full
    threshold, so a single drifted observation alarms. *)
val set_reference : t -> mean:float -> sd:float -> unit

val observe : t -> float -> unit

(** Upper / lower cumulative sums, in sd units. *)
val pos : t -> float

val neg : t -> float

(** True once either sum has crossed [h]; never resets. *)
val alarmed : t -> bool

val observations : t -> int
