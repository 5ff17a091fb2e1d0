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

type t = {
  cost : Cost.t;
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  itlb : Tlb.t;
  dtlb : Tlb.t;
  predictor : Branch.t;
  mutable cycles : int;
  mutable instructions : int;
  fetch_shift : int;  (** L1I line_bits — the fetch-line granularity *)
  last_fetch_line : int ref;
  data_shift : int;  (** L1D line_bits — the data-line granularity *)
  last_data_line : int ref;
  data_memo_ok : bool;
      (** the data-side last-line memo is only transparent when a
          repeated L1D hit charges nothing (l1_hit = 0) and a data line
          never straddles a DTLB page *)
}

(* The default machine is the evaluation machine (Core i3-550) scaled
   down 4x: generated workloads are orders of magnitude shorter than
   SPEC runs, and scaling the caches keeps the working-set-to-cache
   ratios — and therefore the layout sensitivity the paper studies —
   in the same regime. Pass explicit configs for a full-size machine. *)
let default_l1i = { Cache.sets = 64; ways = 2; line_bits = 6 } (* 8 KiB *)
let default_l1d = { Cache.sets = 64; ways = 2; line_bits = 6 } (* 8 KiB *)
let default_l2 = { Cache.sets = 128; ways = 8; line_bits = 6 } (* 64 KiB *)
let default_l3 = { Cache.sets = 1024; ways = 16; line_bits = 6 } (* 1 MiB *)
let default_itlb = { Tlb.entries = 32; ways = 4; page_bits = 12 }
let default_dtlb = { Tlb.entries = 32; ways = 4; page_bits = 12 }

let create ?(cost = Cost.default) ?(l1i = default_l1i) ?(l1d = default_l1d)
    ?(l2 = default_l2) ?(l3 = default_l3) ?(itlb = default_itlb)
    ?(dtlb = default_dtlb) ?(predictor_entries = 256)
    ?(predictor_kind = Branch.Bimodal) () =
  {
    cost;
    l1i = Cache.create l1i;
    l1d = Cache.create l1d;
    l2 = Cache.create l2;
    l3 = Cache.create l3;
    itlb = Tlb.create itlb;
    dtlb = Tlb.create dtlb;
    predictor = Branch.create ~entries:predictor_entries ~kind:predictor_kind ();
    cycles = 0;
    instructions = 0;
    fetch_shift = l1i.Cache.line_bits;
    last_fetch_line = ref (-1);
    data_shift = l1d.Cache.line_bits;
    last_data_line = ref (-1);
    data_memo_ok = cost.Cost.l1_hit = 0 && l1d.Cache.line_bits <= dtlb.Tlb.page_bits;
  }

(* Penalty for a miss in an L1 (I or D): walk down L2, L3, memory. *)
let lower_levels t addr =
  if Cache.access t.l2 addr then t.cost.Cost.l2_hit
  else if Cache.access t.l3 addr then t.cost.Cost.l3_hit
  else t.cost.Cost.memory

(* The I-side walk on a fetch-line change: memo update, ITLB, L1I and
   lower levels, penalty cycles charged. Base cycles and the retired
   instruction are NOT counted here — [fetch] adds them per call, the
   interpreter's fast path batches them per basic block. The fetch line
   is [pc lsr fetch_shift] with the shift taken from the configured
   L1I geometry (a hardcoded [lsr 6] used to mischarge non-default
   instruction caches). *)
let fetch_cross t pc =
  t.last_fetch_line := pc lsr t.fetch_shift;
  let tlb_penalty = if Tlb.access t.itlb pc then 0 else t.cost.Cost.tlb_miss in
  let cache_penalty =
    if Cache.access t.l1i pc then t.cost.Cost.l1_hit else lower_levels t pc
  in
  t.cycles <- t.cycles + tlb_penalty + cache_penalty

let fetch t pc =
  t.instructions <- t.instructions + 1;
  let before = t.cycles in
  if pc lsr t.fetch_shift <> !(t.last_fetch_line) then fetch_cross t pc;
  let total = t.cost.Cost.base_cycles + (t.cycles - before) in
  t.cycles <- t.cycles + t.cost.Cost.base_cycles;
  total

let fetch_shift t = t.fetch_shift
let fetch_line_memo t = t.last_fetch_line

let charge_batch t ~instructions ~cycles =
  t.instructions <- t.instructions + instructions;
  t.cycles <- t.cycles + cycles

(* The full D-side walk; [line] is the address's L1D line. *)
let data_cross t addr line =
  t.last_data_line := line;
  let tlb_penalty = if Tlb.access t.dtlb addr then 0 else t.cost.Cost.tlb_miss in
  let cache_penalty =
    if Cache.access t.l1d addr then t.cost.Cost.l1_hit else lower_levels t addr
  in
  let total = tlb_penalty + cache_penalty in
  t.cycles <- t.cycles + total;
  total

let data t addr =
  let line = addr lsr t.data_shift in
  (* Back-to-back accesses in one data line are guaranteed L1D + DTLB
     hits (nothing else touched either structure in between, and a line
     never spans a page), so when a hit costs 0 cycles the walk can be
     skipped entirely. Collapsing consecutive duplicates preserves the
     relative LRU order of every line in every set, so all future
     hit/miss decisions — and therefore every exported counter — are
     bit-identical to the unmemoized machine. *)
  if t.data_memo_ok && line = !(t.last_data_line) then 0
  else data_cross t addr line

let branch t ~pc ~taken =
  if Branch.predict_and_update t.predictor ~pc ~taken then 0
  else begin
    let penalty = t.cost.Cost.branch_misprediction in
    t.cycles <- t.cycles + penalty;
    penalty
  end

let charge t n = t.cycles <- t.cycles + n
let cycles t = t.cycles
let cost t = t.cost

type attrib_snapshot = {
  a_funcs : int;
  a_l1i : Cache.attrib_view;
  a_l1d : Cache.attrib_view;
  a_l2 : Cache.attrib_view;
  a_l3 : Cache.attrib_view;
  a_itlb : Cache.attrib_view;
  a_dtlb : Cache.attrib_view;
  a_predictor : Branch.attrib_view;
}

let arm_attrib t ~funcs =
  Cache.arm_attrib t.l1i ~funcs;
  Cache.arm_attrib t.l1d ~funcs;
  Cache.arm_attrib t.l2 ~funcs;
  Cache.arm_attrib t.l3 ~funcs;
  Tlb.arm_attrib t.itlb ~funcs;
  Tlb.arm_attrib t.dtlb ~funcs;
  Branch.arm_attrib t.predictor ~funcs

let attrib_armed t = Cache.attrib_armed t.l1i

let set_attrib_owner t fid =
  Cache.set_attrib_owner t.l1i fid;
  Cache.set_attrib_owner t.l1d fid;
  Cache.set_attrib_owner t.l2 fid;
  Cache.set_attrib_owner t.l3 fid;
  Tlb.set_attrib_owner t.itlb fid;
  Tlb.set_attrib_owner t.dtlb fid;
  Branch.set_attrib_owner t.predictor fid

let attrib_snapshot t =
  match
    ( Cache.attrib_view t.l1i,
      Cache.attrib_view t.l1d,
      Cache.attrib_view t.l2,
      Cache.attrib_view t.l3,
      Tlb.attrib_view t.itlb,
      Tlb.attrib_view t.dtlb,
      Branch.attrib_view t.predictor )
  with
  | Some l1i, Some l1d, Some l2, Some l3, Some itlb, Some dtlb, Some pred ->
      Some
        {
          a_funcs = l1i.Cache.funcs;
          a_l1i = l1i;
          a_l1d = l1d;
          a_l2 = l2;
          a_l3 = l3;
          a_itlb = itlb;
          a_dtlb = dtlb;
          a_predictor = pred;
        }
  | _ -> None

let counters t =
  {
    cycles = t.cycles;
    instructions = t.instructions;
    l1i_misses = Cache.misses t.l1i;
    l1d_misses = Cache.misses t.l1d;
    l2_misses = Cache.misses t.l2;
    l3_misses = Cache.misses t.l3;
    itlb_misses = Tlb.misses t.itlb;
    dtlb_misses = Tlb.misses t.dtlb;
    branches = Branch.branches t.predictor;
    branch_mispredictions = Branch.mispredictions t.predictor;
  }

let counters_zero =
  {
    cycles = 0;
    instructions = 0;
    l1i_misses = 0;
    l1d_misses = 0;
    l2_misses = 0;
    l3_misses = 0;
    itlb_misses = 0;
    dtlb_misses = 0;
    branches = 0;
    branch_mispredictions = 0;
  }

let counters_map2 f (a : counters) (b : counters) : counters =
  {
    cycles = f a.cycles b.cycles;
    instructions = f a.instructions b.instructions;
    l1i_misses = f a.l1i_misses b.l1i_misses;
    l1d_misses = f a.l1d_misses b.l1d_misses;
    l2_misses = f a.l2_misses b.l2_misses;
    l3_misses = f a.l3_misses b.l3_misses;
    itlb_misses = f a.itlb_misses b.itlb_misses;
    dtlb_misses = f a.dtlb_misses b.dtlb_misses;
    branches = f a.branches b.branches;
    branch_mispredictions = f a.branch_mispredictions b.branch_mispredictions;
  }

let counters_add = counters_map2 ( + )
let counters_sub = counters_map2 ( - )

let counters_fields (c : counters) =
  [
    ("cycles", c.cycles);
    ("instructions", c.instructions);
    ("l1i_misses", c.l1i_misses);
    ("l1d_misses", c.l1d_misses);
    ("l2_misses", c.l2_misses);
    ("l3_misses", c.l3_misses);
    ("itlb_misses", c.itlb_misses);
    ("dtlb_misses", c.dtlb_misses);
    ("branches", c.branches);
    ("branch_mispredictions", c.branch_mispredictions);
  ]

let counters_of_fields fields =
  List.fold_left
    (fun (c : counters) (k, v) ->
      match k with
      | "cycles" -> { c with cycles = v }
      | "instructions" -> { c with instructions = v }
      | "l1i_misses" -> { c with l1i_misses = v }
      | "l1d_misses" -> { c with l1d_misses = v }
      | "l2_misses" -> { c with l2_misses = v }
      | "l3_misses" -> { c with l3_misses = v }
      | "itlb_misses" -> { c with itlb_misses = v }
      | "dtlb_misses" -> { c with dtlb_misses = v }
      | "branches" -> { c with branches = v }
      | "branch_mispredictions" -> { c with branch_mispredictions = v }
      | _ -> c)
    counters_zero fields

let flush t =
  Cache.flush t.l1i;
  Cache.flush t.l1d;
  Cache.flush t.l2;
  Cache.flush t.l3;
  Tlb.flush t.itlb;
  Tlb.flush t.dtlb;
  t.last_fetch_line := -1;
  t.last_data_line := -1

let reset t =
  Cache.reset t.l1i;
  Cache.reset t.l1d;
  Cache.reset t.l2;
  Cache.reset t.l3;
  Tlb.reset t.itlb;
  Tlb.reset t.dtlb;
  Branch.reset t.predictor;
  t.cycles <- 0;
  t.instructions <- 0;
  t.last_fetch_line := -1;
  t.last_data_line := -1
