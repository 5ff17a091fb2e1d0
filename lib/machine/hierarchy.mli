(** The full memory hierarchy of the simulated machine: split L1
    instruction/data caches, a unified L2 and L3, instruction and data
    TLBs, and a branch predictor, combined under one cycle cost model.
    This is the substrate on which program layout manifests as time. *)

type t

type counters = {
  cycles : int;
  instructions : int;
  l1i_misses : int;
  l1d_misses : int;
  l2_misses : int;
  l3_misses : int;
  itlb_misses : int;
  dtlb_misses : int;
  branches : int;
  branch_mispredictions : int;
}

(** [create ()] builds the default Core-i3-550-like machine; every
    structure can be overridden for ablations. *)
val create :
  ?cost:Cost.t ->
  ?l1i:Cache.config ->
  ?l1d:Cache.config ->
  ?l2:Cache.config ->
  ?l3:Cache.config ->
  ?itlb:Tlb.config ->
  ?dtlb:Tlb.config ->
  ?predictor_entries:int ->
  ?predictor_kind:Branch.kind ->
  unit ->
  t

(** [fetch t pc] charges an instruction fetch at code address [pc]:
    base cost plus I-side cache/TLB penalties; returns cycles. The
    caller is expected to call this once per executed instruction; the
    hierarchy internally filters same-line back-to-back fetches so
    straight-line code costs one L1I access per line, as on hardware. *)
val fetch : t -> int -> int

(** Hot-path decomposition of {!fetch}, used by the interpreter to
    batch base-cycle charging per basic block while keeping every
    counter bit-identical to per-instruction {!fetch} calls: the caller
    compares [pc lsr fetch_shift] against [!(fetch_line_memo t)] inline
    and only calls {!fetch_cross} on a line change (I-TLB + L1I + lower
    levels, penalty cycles charged, memo updated); base cycles and
    retired-instruction counts are then added in bulk with
    {!charge_batch}. *)
val fetch_shift : t -> int

val fetch_line_memo : t -> int ref
val fetch_cross : t -> int -> unit

(** [charge_batch t ~instructions ~cycles] retires [instructions] and
    charges [cycles] in one mutation — the bulk half of the decomposed
    fetch path. *)
val charge_batch : t -> instructions:int -> cycles:int -> unit

(** [data t addr] charges a load/store at [addr]; returns cycles.
    Back-to-back accesses within one L1D line take a memoized fast
    path (mirroring the fetch-line memo) whenever that is invisible to
    the model: a repeated hit must cost 0 cycles ([l1_hit = 0]) and a
    line must fit in a page. All counters are bit-identical either
    way. *)
val data : t -> int -> int

(** [branch t ~pc ~taken] consults and trains the predictor; returns
    penalty cycles (0 when predicted correctly). *)
val branch : t -> pc:int -> taken:bool -> int

(** Extra cycles charged explicitly (e.g. mul/div, runtime costs). *)
val charge : t -> int -> unit

val cycles : t -> int
val counters : t -> counters

(** Counter arithmetic, for snapshot/delta attribution (profiling,
    telemetry rollups). *)
val counters_zero : counters

val counters_add : counters -> counters -> counters
val counters_sub : counters -> counters -> counters

(** Field names and values in declaration order, for uniform export. *)
val counters_fields : counters -> (string * int) list

(** Inverse of {!counters_fields}: unknown keys ignored, missing keys
    zero — lenient on purpose for checkpoint-format evolution. *)
val counters_of_fields : (string * int) list -> counters

(** Cost model in effect. *)
val cost : t -> Cost.t

(** Invalidate all cached state (a context-switch-like wipe) without
    clearing counters. *)
val flush : t -> unit

(** Fresh machine state and counters: every cache and TLB as
    {!Cache.reset}, the predictor back to its initial counters and
    history, cycles and instructions zero, and the fetch and data line
    memos cleared. The machine then charges any stream exactly as a
    newly created one with the same configuration. *)
val reset : t -> unit

(** {1 Conflict attribution}

    Machine-wide arming of the per-structure recorders ({!Cache},
    {!Tlb}, {!Branch}); dark by default and counter-identical when lit
    — the observer never feeds back into the model. The runtime sets
    the owning function id on call/return when (and only when) the
    machine is armed, so campaigns on dark machines execute the exact
    pre-attribution instruction path. *)

(** One snapshot of every structure's recorder, taken together. *)
type attrib_snapshot = {
  a_funcs : int;
  a_l1i : Cache.attrib_view;
  a_l1d : Cache.attrib_view;
  a_l2 : Cache.attrib_view;
  a_l3 : Cache.attrib_view;
  a_itlb : Cache.attrib_view;  (** translation sets, not cache sets *)
  a_dtlb : Cache.attrib_view;
  a_predictor : Branch.attrib_view;
}

(** Arm all seven structures for [funcs] functions. *)
val arm_attrib : t -> funcs:int -> unit

val attrib_armed : t -> bool

(** Charge subsequent accesses in every structure to [fid] ([-1] =
    outside any function, never charged). *)
val set_attrib_owner : t -> int -> unit

(** [None] when dark. *)
val attrib_snapshot : t -> attrib_snapshot option
