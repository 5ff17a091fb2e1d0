(** Cycle cost model. Latencies approximate the paper's evaluation
    machine (Intel Core i3-550: 32 KiB L1, 256 KiB L2, shared 4 MiB L3)
    and its 3.2 GHz clock, which also fixes the cycles-per-millisecond
    conversion used by the virtual re-randomization timer. *)

type t = {
  base_cycles : int;  (** issue cost of any instruction *)
  l1_hit : int;
  l2_hit : int;
  l3_hit : int;
  memory : int;
  tlb_miss : int;  (** page-walk penalty *)
  branch_misprediction : int;
  mul : int;  (** extra cycles for multiply *)
  div : int;  (** extra cycles for divide *)
}

val default : t
