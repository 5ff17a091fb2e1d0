(* Layout-sweep ledger: one meta record plus one case record per swept
   index, kept with the Log discipline. Effect sizes are hex-float
   encoded so records round-trip bit-exactly. *)

module Kv = Log.Kv

let ( let* ) = Result.bind

type meta = {
  version : int;
  fuzz_seed : int64;
  count : int;
  layout_seeds : int;
  variants : int;
  threshold : float;
  shrink_budget : int;
}

type verdict = Measured | Trapped | Crashed | Hung

type case = {
  index : int;
  case_seed : int64;
  verdict : verdict;
  eta2 : float;
  partial_eta2 : float;
  workload_share : float;
  residual_share : float;
  mean_cycles : int;
  instrs : int;
  structure : string;
  victim : int;
  evictor : int;
  conflict_events : int;
  conflict_cycles : int;
  repro : string;
  repro_instrs : int;
  shrink_steps : int;
  detail : string;
}

let verdict_to_string = function
  | Measured -> "measured"
  | Trapped -> "trapped"
  | Crashed -> "crashed"
  | Hung -> "hung"

let verdict_of_string = function
  | "measured" -> Some Measured
  | "trapped" -> Some Trapped
  | "crashed" -> Some Crashed
  | "hung" -> Some Hung
  | _ -> None

let meta_to_payload m =
  Kv.encode
    [
      ("version", string_of_int m.version);
      ("fuzz_seed", Int64.to_string m.fuzz_seed);
      ("count", string_of_int m.count);
      ("layout_seeds", string_of_int m.layout_seeds);
      ("variants", string_of_int m.variants);
      ("threshold", Kv.hex m.threshold);
      ("shrink_budget", string_of_int m.shrink_budget);
    ]

let case_to_payload c =
  Kv.encode
    [
      ("index", string_of_int c.index);
      ("case_seed", Int64.to_string c.case_seed);
      ("verdict", verdict_to_string c.verdict);
      ("eta2", Kv.hex c.eta2);
      ("partial_eta2", Kv.hex c.partial_eta2);
      ("workload_share", Kv.hex c.workload_share);
      ("residual_share", Kv.hex c.residual_share);
      ("mean_cycles", string_of_int c.mean_cycles);
      ("instrs", string_of_int c.instrs);
      ("structure", Kv.sanitize c.structure);
      ("victim", string_of_int c.victim);
      ("evictor", string_of_int c.evictor);
      ("conflict_events", string_of_int c.conflict_events);
      ("conflict_cycles", string_of_int c.conflict_cycles);
      ("repro", Kv.sanitize c.repro);
      ("repro_instrs", string_of_int c.repro_instrs);
      ("shrink_steps", string_of_int c.shrink_steps);
      ("detail", Kv.sanitize c.detail);
    ]

let meta_of_payload = function
  | None -> Error "missing meta record"
  | Some s ->
      let p = Kv.decode s in
      let* version = Kv.num p "version" int_of_string_opt in
      let* fuzz_seed = Kv.num p "fuzz_seed" Int64.of_string_opt in
      let* count = Kv.num p "count" int_of_string_opt in
      let* layout_seeds = Kv.num p "layout_seeds" int_of_string_opt in
      let* variants = Kv.num p "variants" int_of_string_opt in
      let* threshold = Kv.num p "threshold" float_of_string_opt in
      let* shrink_budget = Kv.num p "shrink_budget" int_of_string_opt in
      Ok
        {
          version;
          fuzz_seed;
          count;
          layout_seeds;
          variants;
          threshold;
          shrink_budget;
        }

let case_of_payload s =
  let p = Kv.decode s in
  let* index = Kv.num p "index" int_of_string_opt in
  let* case_seed = Kv.num p "case_seed" Int64.of_string_opt in
  let* verdict = Kv.num p "verdict" verdict_of_string in
  let* eta2 = Kv.num p "eta2" float_of_string_opt in
  let* partial_eta2 = Kv.num p "partial_eta2" float_of_string_opt in
  let* workload_share = Kv.num p "workload_share" float_of_string_opt in
  let* residual_share = Kv.num p "residual_share" float_of_string_opt in
  let* mean_cycles = Kv.num p "mean_cycles" int_of_string_opt in
  let* instrs = Kv.num p "instrs" int_of_string_opt in
  let* structure = Kv.str p "structure" in
  let* victim = Kv.num p "victim" int_of_string_opt in
  let* evictor = Kv.num p "evictor" int_of_string_opt in
  let* conflict_events = Kv.num p "conflict_events" int_of_string_opt in
  let* conflict_cycles = Kv.num p "conflict_cycles" int_of_string_opt in
  let* repro = Kv.str p "repro" in
  let* repro_instrs = Kv.num p "repro_instrs" int_of_string_opt in
  let* shrink_steps = Kv.num p "shrink_steps" int_of_string_opt in
  let* detail = Kv.str p "detail" in
  Ok
    {
      index;
      case_seed;
      verdict;
      eta2;
      partial_eta2;
      workload_share;
      residual_share;
      mean_cycles;
      instrs;
      structure;
      victim;
      evictor;
      conflict_events;
      conflict_cycles;
      repro;
      repro_instrs;
      shrink_steps;
      detail;
    }

module Codec = struct
  type nonrec meta = meta
  type item = case

  let kind = "szc-sweep"
  let name = "sweeplog"
  let noun = "cases"
  let meta_payload m = Some (meta_to_payload m)
  let meta_of_payload = meta_of_payload
  let item_record c = ("case", case_to_payload c)

  let item_of_record = function
    | "case", p -> Some (case_of_payload p)
    | _ -> None

  let index = Some (fun c -> c.index)
end

include (Log.Make (Codec) : Log.S with type meta := meta and type item = case)
