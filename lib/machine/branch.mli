(** A bimodal branch predictor: a table of 2-bit saturating counters
    indexed by low-order bits of the branch's code address. Two hot
    branches whose addresses alias to the same entry destructively
    interfere — the "branch aliasing" effect the paper credits for the
    small speedups code randomization sometimes produces (§5.2). *)

type t

(** Predictor kinds: [Bimodal] is the paper-era table of 2-bit counters
    indexed by pc; [Gshare history_bits] XORs a global history register
    into the index, so branch *history* also determines the entry — the
    structure the paper's §8 branch-sense randomization targets. *)
type kind = Bimodal | Gshare of int

(** [create ~entries] with a power-of-two table size (default 4096)
    and predictor [kind] (default [Bimodal]). *)
val create : ?entries:int -> ?kind:kind -> unit -> t

(** [predict_and_update t ~pc ~taken] returns [true] when the prediction
    matched the outcome, and trains the counter either way. *)
val predict_and_update : t -> pc:int -> taken:bool -> bool

val branches : t -> int
val mispredictions : t -> int
val reset : t -> unit

(** Table index used for a pc (with the current history under Gshare) —
    exposed for aliasing diagnostics. *)
val index_of : t -> int -> int

(** {1 Conflict attribution}

    Off-by-default alias recorder that keeps only alias mispredictions,
    same plane-separation contract as {!Cache}. It must note which
    function last trained each entry, so dark it costs one option check
    per branch, not per misprediction; lit it never feeds back into
    predictions, training, or counters. *)

(** [alias_mispredictions] is a [funcs*funcs] row-major matrix: entry
    [prev*funcs + curr] counts mispredicted branches from function
    [curr] that landed on a table entry last trained by function [prev]
    (cross-function only) — the destructive-interference signal the
    paper's §5.2 credits for code-randomization speedups. *)
type attrib_view = { funcs : int; alias_mispredictions : int array }

val arm_attrib : t -> funcs:int -> unit
val attrib_armed : t -> bool

(** Function id charged for subsequent branches; [-1] never charged. *)
val set_attrib_owner : t -> int -> unit

val attrib_view : t -> attrib_view option
