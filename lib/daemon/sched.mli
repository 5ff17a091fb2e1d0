(** Deficit-round-robin allocation of the shared pool's run slots
    across active campaigns: every scheduling pass visits the campaigns
    with outstanding requests in arrival order, tops each visited
    deficit up by the quantum, and grants
    [min (want, deficit, free slots)] — so a tenant that asks for
    thousands of runs drains the pool no faster than one asking for
    three, and every requester is served within one round. Classic DRR
    (Shreedhar & Varghese): campaigns with nothing to ask accumulate no
    deficit. *)

type t

(** [create ~quantum ~slots] — [slots] concurrent run slots shared by
    everyone; [quantum] runs of deficit added per visit (the fairness
    granularity). *)
val create : quantum:int -> slots:int -> t

val register : t -> key:string -> unit

(** Forget a campaign and reclaim any slots it still holds. *)
val unregister : t -> key:string -> unit

(** Record that campaign [key] currently wants up to [n] more run
    slots (replaces any previous want). *)
val want : t -> key:string -> int -> unit

(** Campaign [key] returned [n] slots. *)
val free : t -> key:string -> int -> unit

(** One DRR pass: allocate free slots to wanting campaigns; returns
    [(key, granted)] for every nonzero grant, and clears the
    corresponding wants. *)
val grants : t -> (string * int) list

(** Slots currently granted and not yet freed. *)
val busy : t -> int

val slots : t -> int

(** Per-flow DRR state in arrival order — the ops plane's scheduler
    view (accumulated deficit, slots held). *)
type flow_stat = { f_key : string; f_deficit : int; f_held : int }

val flows : t -> flow_stat list
