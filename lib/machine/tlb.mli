(** A translation lookaside buffer: a small set-associative cache of
    page translations. Randomized layouts touch more distinct pages, so
    the TLB is the component that charges STABILIZER its overhead (the
    paper attributes most of the slowdown to added TLB pressure). *)

type config = {
  entries : int;  (** total entries, power of two *)
  ways : int;
  page_bits : int;  (** log2 page size, 12 for 4 KiB pages *)
}

type t

(** Raises [Invalid_argument] naming [Tlb.create] unless [ways] is
    positive, [entries] is a positive multiple of [ways],
    [entries / ways] is a power of two and [page_bits] is between 0
    and 62. *)
val create : config -> t

(** [access t addr] looks up the page of [addr]; returns [true] on hit.
    A run of accesses to one page takes {!Cache.access}'s same-line
    path. *)
val access : t -> int -> bool

val misses : t -> int

(** Drop all translations, keep the miss count. *)
val flush : t -> unit

(** A fresh TLB, as {!Cache.reset}. *)
val reset : t -> unit

(** {1 Conflict attribution}

    Delegated to the underlying set-associative translation cache; for
    a TLB the evictions of the {!Cache.attrib_view} are
    page-translation conflicts. Same plane-separation contract and
    cost as {!Cache}: dark, one option check per miss. *)

val arm_attrib : t -> funcs:int -> unit
val attrib_armed : t -> bool
val set_attrib_owner : t -> int -> unit
val attrib_view : t -> Cache.attrib_view option
