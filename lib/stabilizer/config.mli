(** STABILIZER run configuration. The three randomizations are
    independent (paper §2.5: "All of STABILIZER's randomizations
    (code, stack, and heap) can be enabled independently"), which is
    what lets a developer isolate a layout optimization from its
    incidental effects. *)

type link_order = Declaration | Random_link

type t = {
  code : bool;  (** randomize function placement at runtime *)
  stack : bool;  (** random inter-frame padding *)
  heap : bool;  (** shuffling layer over the base allocator *)
  rerandomize : bool;  (** re-randomize periodically (vs one-time) *)
  interval_cycles : int;
      (** re-randomization epoch length in simulated cycles. The paper
          uses 500 ms of wall-clock time; scaled to this simulator's
          shortened runs the default gives a comparable number of
          epochs per run (~30+, enough for the CLT). *)
  adaptive : bool;
      (** §8 future work: besides the timer, trigger a re-randomization
          when the current epoch's cache-miss + branch-misprediction
          rate exceeds [adaptive_threshold] times the run's average —
          i.e. detect an unlucky layout and escape it early. *)
  adaptive_threshold : float;
  shuffle_n : int;  (** shuffling-layer parameter N (paper: 256) *)
  base_allocator : Stz_alloc.Allocator.kind;
  granularity : Stz_layout.Code_rand.granularity;
      (** function granularity (the paper) or basic-block granularity
          with branch-sense randomization (the paper's §8 future work) *)
  reloc_style : Stz_layout.Code_rand.reloc_style;
      (** x86-64 adjacent relocation tables, or the fixed-absolute-
          address tables of PowerPC / 32-bit x86 (§3.5) *)
  link_order : link_order;  (** static layout of the unrandomized build *)
  env_bytes : int;  (** environment-block size (shifts the stack base) *)
}

(** Everything on: code+stack+heap randomization with re-randomization,
    segregated base heap, N = 256, function granularity. *)
val stabilizer : t

(** Everything off: a plain deterministic build. *)
val baseline : t

(** One-time randomization: like [stabilizer] but no re-randomization. *)
val one_time : t

(** Named partial configurations from Figure 6. *)
val code_only : t

val code_stack : t

(** [validate t] is [Ok t] when every run under [t] can start, or an
    [Error] naming the first bad setting under its [szc] flag: a
    shuffling parameter below 1 or a negative environment size, which
    would otherwise trap every run. *)
val validate : t -> (t, string) result

(** Short name like "code.heap.stack" / "baseline", for reports,
    followed by each other setting that differs from {!stabilizer},
    named after its [szc] flag: e.g.
    ["code.heap.stack interval=5000 alloc=tlsf"]. It is the
    configuration identity a checkpoint is resumed under and a ledger
    fingerprint holds, so two configurations that differ in any
    setting never share it. *)
val describe : t -> string
