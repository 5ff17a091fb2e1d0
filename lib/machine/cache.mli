(** A set-associative cache with LRU replacement. Addresses are plain
    ints (simulated byte addresses). The *index bits* of an address —
    [line_bits .. line_bits + log2 sets - 1] — decide its set, which is
    exactly the layout sensitivity the paper exploits: two hot objects
    whose index bits collide evict each other regardless of how much
    total capacity is free. *)

type config = {
  name : string;
  sets : int;  (** power of two *)
  ways : int;
  line_bits : int;  (** log2 of the line size in bytes *)
}

type t

(** Raises [Invalid_argument] naming [Cache.create] unless [sets] is a
    positive power of two, [ways] is positive and [line_bits] is
    between 0 and 62. *)
val create : config -> t
val config : t -> config

(** [access t addr] touches the line containing [addr]; returns [true]
    on hit. Every access stamps its way with the next value of a
    per-cache clock. A miss fills the LRU way of the line's set: the
    first way, in way order, with the smallest stamp. An invalid way
    keeps the stamp it had, older than that of any line accessed
    since, so the set fills its invalid ways before it evicts a line.

    An access to the same line as this cache's previous access hits the
    way that access used without scanning the set. The path is
    transparent: nothing touched the cache in between, so the scan
    would find the line in that same way, and the fast path stamps it
    and counts the access exactly as the scan would. {!flush} and
    {!reset} forget the previous line.

    In practice only the TLBs take this path. {!Hierarchy} calls L1I
    only when the fetch line changes, and on the default machine it
    skips a repeated L1D line before L1D sees it. The ITLB, though,
    sees long runs of fetch-line changes within one page: about 90% of
    its accesses take the path on the repo benchmark's workloads, the
    DTLB's 0–4%, L2's and L3's almost none. *)
val access : t -> int -> bool

(** [probe t addr] is [true] if the line is resident; no state change. *)
val probe : t -> int -> bool

val accesses : t -> int
val misses : t -> int

(** A fresh cache: invalidate all lines, zero the LRU stamps, the clock
    and the statistics, and clear the conflict recorder if armed. Any
    access stream afterwards hits and misses exactly as on a newly
    created cache of the same geometry. *)
val reset : t -> unit

(** Invalidate all lines, keep statistics. *)
val flush : t -> unit

(** The range of address bits (lo, hi) that select the set, e.g. (6, 12)
    for a 128-set cache with 64-byte lines — the bits the paper's NIST
    analysis calls the "index bits". *)
val index_bits : t -> int * int

(** {1 Conflict attribution}

    An off-by-default observer plane for layout-bias diagnosis ([szc
    explain]): per-set occupancy plus a per-function eviction matrix
    recording who evicted whose lines. Dark ([attrib_armed t = false],
    the default) it costs one option check per access and changes no
    observable state; lit, it still never feeds back into hits, misses,
    LRU order or the clock — counters are identical either way. *)

(** Immutable copy of the recorder state. [evictions] is a
    [funcs*funcs] row-major matrix: entry [victim*funcs + evictor]
    counts valid lines installed by function [victim] that were evicted
    by a miss from function [evictor] (cross-function only). *)
type attrib_view = {
  funcs : int;
  set_accesses : int array;  (** accesses landing in each set *)
  set_misses : int array;  (** misses landing in each set *)
  evictions : int array;
}

(** Arm the recorder for a program with [funcs] functions (fids
    [0..funcs-1]). Re-arming starts a fresh recorder. *)
val arm_attrib : t -> funcs:int -> unit

val attrib_armed : t -> bool

(** Set the function id charged for subsequent accesses; [-1] (the
    initial state) means "outside any function" and is never charged. *)
val set_attrib_owner : t -> int -> unit

(** Snapshot the recorder ([None] when dark). Arrays are copies. *)
val attrib_view : t -> attrib_view option
