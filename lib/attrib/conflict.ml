module Hierarchy = Stz_machine.Hierarchy
module Cache = Stz_machine.Cache
module Branch = Stz_machine.Branch
module Cost = Stz_machine.Cost

type structure = L1i | L1d | L2 | L3 | Itlb | Dtlb | Predictor

let all_structures = [ L1i; L1d; L2; L3; Itlb; Dtlb; Predictor ]

let structure_name = function
  | L1i -> "l1i"
  | L1d -> "l1d"
  | L2 -> "l2"
  | L3 -> "l3"
  | Itlb -> "itlb"
  | Dtlb -> "dtlb"
  | Predictor -> "branch"

let structure_rank = function
  | L1i -> 0
  | L1d -> 1
  | L2 -> 2
  | L3 -> 3
  | Itlb -> 4
  | Dtlb -> 5
  | Predictor -> 6

type pair = {
  structure : structure;
  f1 : int;
  f2 : int;
  events : int;
  est_cycles : int;
}

(* A conflict eviction forces at least one refill of the victim line
   from the next level down; a predictor alias costs (at least) the
   mispredictions it coincided with. Lower bounds on purpose: the table
   ranks, it does not promise exact cycle recovery. *)
let event_cost (cost : Cost.t) = function
  | L1i | L1d -> cost.Cost.l2_hit
  | L2 -> cost.Cost.l3_hit
  | L3 -> cost.Cost.memory
  | Itlb | Dtlb -> cost.Cost.tlb_miss
  | Predictor -> cost.Cost.branch_misprediction

let add_arrays a b = Array.mapi (fun i x -> x + b.(i)) a

let check_funcs a b =
  if a <> b then invalid_arg "Conflict.merge: function-count mismatch"

let merge_cache (a : Cache.attrib_view) (b : Cache.attrib_view) =
  check_funcs a.Cache.funcs b.Cache.funcs;
  { a with Cache.evictions = add_arrays a.Cache.evictions b.Cache.evictions }

let merge_branch (a : Branch.attrib_view) (b : Branch.attrib_view) =
  check_funcs a.Branch.funcs b.Branch.funcs;
  {
    a with
    Branch.alias_mispredictions =
      add_arrays a.Branch.alias_mispredictions b.Branch.alias_mispredictions;
  }

let merge (a : Hierarchy.attrib_snapshot) (b : Hierarchy.attrib_snapshot) =
  {
    Hierarchy.a_funcs = a.Hierarchy.a_funcs;
    a_l1i = merge_cache a.Hierarchy.a_l1i b.Hierarchy.a_l1i;
    a_l1d = merge_cache a.Hierarchy.a_l1d b.Hierarchy.a_l1d;
    a_l2 = merge_cache a.Hierarchy.a_l2 b.Hierarchy.a_l2;
    a_l3 = merge_cache a.Hierarchy.a_l3 b.Hierarchy.a_l3;
    a_itlb = merge_cache a.Hierarchy.a_itlb b.Hierarchy.a_itlb;
    a_dtlb = merge_cache a.Hierarchy.a_dtlb b.Hierarchy.a_dtlb;
    a_predictor = merge_branch a.Hierarchy.a_predictor b.Hierarchy.a_predictor;
  }

(* Fold a funcs*funcs directional matrix into undirected pairs: entry
   (v, e) and (e, v) describe the same conflicting pair ping-ponging. *)
let matrix_pairs structure ~cost ~funcs m =
  let acc = ref [] in
  for f1 = 0 to funcs - 1 do
    for f2 = f1 + 1 to funcs - 1 do
      let events = m.((f1 * funcs) + f2) + m.((f2 * funcs) + f1) in
      if events > 0 then
        acc :=
          {
            structure;
            f1;
            f2;
            events;
            est_cycles = events * event_cost cost structure;
          }
          :: !acc
    done
  done;
  !acc

let compare_pairs a b =
  let c = compare b.est_cycles a.est_cycles in
  if c <> 0 then c
  else
    let c = compare b.events a.events in
    if c <> 0 then c
    else
      let c = compare (structure_rank a.structure) (structure_rank b.structure) in
      if c <> 0 then c
      else compare (a.f1, a.f2) (b.f1, b.f2)

let structure_pairs ~cost structure (s : Hierarchy.attrib_snapshot) =
  let cache (v : Cache.attrib_view) =
    matrix_pairs structure ~cost ~funcs:v.Cache.funcs v.Cache.evictions
  in
  match structure with
  | L1i -> cache s.Hierarchy.a_l1i
  | L1d -> cache s.Hierarchy.a_l1d
  | L2 -> cache s.Hierarchy.a_l2
  | L3 -> cache s.Hierarchy.a_l3
  | Itlb -> cache s.Hierarchy.a_itlb
  | Dtlb -> cache s.Hierarchy.a_dtlb
  | Predictor ->
      let v = s.Hierarchy.a_predictor in
      matrix_pairs Predictor ~cost ~funcs:v.Branch.funcs
        v.Branch.alias_mispredictions

let pairs ?(cost = Cost.default) s =
  List.sort compare_pairs
    (List.concat_map (fun st -> structure_pairs ~cost st s) all_structures)

let pairs_in ?(cost = Cost.default) structure s =
  List.sort compare_pairs (structure_pairs ~cost structure s)
