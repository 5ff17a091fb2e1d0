type t = {
  base_cycles : int;
  l1_hit : int;
  l2_hit : int;
  l3_hit : int;
  memory : int;
  tlb_miss : int;
  branch_misprediction : int;
  mul : int;
  div : int;
}

let default =
  {
    base_cycles = 1;
    l1_hit = 0;  (* folded into base_cycles for a pipelined L1 hit *)
    l2_hit = 10;
    l3_hit = 35;
    memory = 200;
    tlb_miss = 30;
    branch_misprediction = 14;
    mul = 2;
    div = 20;
  }
