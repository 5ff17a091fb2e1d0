(** Conflict maps: turning the machine model's raw attribution
    snapshots ({!Stz_machine.Hierarchy.attrib_snapshot}) into a ranked
    "who conflicts with whom, in which structure, costing how many
    cycles" answer.

    Events are cross-function: a cache/TLB eviction whose victim line
    was installed by a different function, or a predictor-slot
    misprediction on an entry last trained by a different function.
    Costs are conservative lower-bound estimates from the machine's own
    cost model: each conflict eviction forces at least one refill from
    the next level down. *)

type structure = L1i | L1d | L2 | L3 | Itlb | Dtlb | Predictor

val all_structures : structure list
val structure_name : structure -> string

(** One undirected conflicting pair within one structure. [f1 <= f2];
    [events] sums both eviction directions. *)
type pair = {
  structure : structure;
  f1 : int;
  f2 : int;
  events : int;
  est_cycles : int;  (** events × per-event refill cost *)
}

(** Estimated cycles one conflict event costs in [structure] under
    [cost]: L1 evictions refill from L2, L2 from L3, L3 from memory,
    TLB evictions re-walk, predictor aliases mispredict. *)
val event_cost : Stz_machine.Cost.t -> structure -> int

(** Pointwise sum of two snapshots (same program shape required) —
    accumulating a conflict map over a whole run matrix. *)
val merge :
  Stz_machine.Hierarchy.attrib_snapshot ->
  Stz_machine.Hierarchy.attrib_snapshot ->
  Stz_machine.Hierarchy.attrib_snapshot

(** All nonzero cross-function pairs in every structure, ranked worst
    first: by estimated cycles, then events, then a fixed structural
    order — a deterministic total order, so reports are byte-stable. *)
val pairs :
  ?cost:Stz_machine.Cost.t ->
  Stz_machine.Hierarchy.attrib_snapshot ->
  pair list

(** [pairs] restricted to one structure, same ranking. *)
val pairs_in :
  ?cost:Stz_machine.Cost.t ->
  structure ->
  Stz_machine.Hierarchy.attrib_snapshot ->
  pair list
