(** Packed bit sequences: the input format of the NIST SP 800-22 tests.
    The paper (§3.2) feeds these tests with the *index bits* (bits 6-17
    on the Core2) of addresses produced by each allocator, so this
    module also provides that extraction. *)

type t

val length : t -> int

(** [get t i] is bit [i] as 0 or 1. *)
val get : t -> int -> int

val of_int_array : int array -> t

(** [of_words ~bits_per_word words] takes the low [bits_per_word] bits
    of each word, most significant first. *)
val of_words : bits_per_word:int -> int array -> t

(** [of_addresses ~lo ~hi addrs] extracts bits [lo..hi] (inclusive) of
    each address — e.g. [~lo:6 ~hi:17] for the paper's cache index
    bits — most significant first. *)
val of_addresses : lo:int -> hi:int -> int array -> t

(** [of_source src n] draws [n] bits from a PRNG source (32 per draw). *)
val of_source : Stz_prng.Source.t -> int -> t

(** Count of one bits. *)
val ones : t -> int

(** [slice t pos len] is a fresh sequence of [len] bits from [pos]. *)
val slice : t -> int -> int -> t
