(* Fuzz-campaign ledger: one meta record plus one case record per
   index, kept with the Log discipline. *)

module Kv = Log.Kv

let ( let* ) = Result.bind

type meta = {
  version : int;
  fuzz_seed : int64;
  count : int;
  rand_runs : int;
  plant : string;
}

type verdict = Clean | Trapped | Fail | Crashed | Hung

type case = {
  index : int;
  case_seed : int64;
  verdict : verdict;
  oracle : string;
  detail : string;
  repro : string;
  repro_instrs : int;
  shrink_steps : int;
  result : int;
  cycles : int;
}

let verdict_to_string = function
  | Clean -> "clean"
  | Trapped -> "trapped"
  | Fail -> "fail"
  | Crashed -> "crashed"
  | Hung -> "hung"

let verdict_of_string = function
  | "clean" -> Some Clean
  | "trapped" -> Some Trapped
  | "fail" -> Some Fail
  | "crashed" -> Some Crashed
  | "hung" -> Some Hung
  | _ -> None

let meta_to_payload m =
  Kv.encode
    [
      ("version", string_of_int m.version);
      ("fuzz_seed", Int64.to_string m.fuzz_seed);
      ("count", string_of_int m.count);
      ("rand_runs", string_of_int m.rand_runs);
      ("plant", Kv.sanitize m.plant);
    ]

let case_to_payload c =
  Kv.encode
    [
      ("index", string_of_int c.index);
      ("case_seed", Int64.to_string c.case_seed);
      ("verdict", verdict_to_string c.verdict);
      ("oracle", Kv.sanitize c.oracle);
      ("detail", Kv.sanitize c.detail);
      ("repro", Kv.sanitize c.repro);
      ("repro_instrs", string_of_int c.repro_instrs);
      ("shrink_steps", string_of_int c.shrink_steps);
      ("result", string_of_int c.result);
      ("cycles", string_of_int c.cycles);
    ]

let meta_of_payload = function
  | None -> Error "missing meta record"
  | Some s ->
      let p = Kv.decode s in
      let* version = Kv.num p "version" int_of_string_opt in
      let* fuzz_seed = Kv.num p "fuzz_seed" Int64.of_string_opt in
      let* count = Kv.num p "count" int_of_string_opt in
      let* rand_runs = Kv.num p "rand_runs" int_of_string_opt in
      let* plant = Kv.str p "plant" in
      Ok { version; fuzz_seed; count; rand_runs; plant }

let case_of_payload s =
  let p = Kv.decode s in
  let* index = Kv.num p "index" int_of_string_opt in
  let* case_seed = Kv.num p "case_seed" Int64.of_string_opt in
  let* verdict = Kv.num p "verdict" verdict_of_string in
  let* oracle = Kv.str p "oracle" in
  let* detail = Kv.str p "detail" in
  let* repro = Kv.str p "repro" in
  let* repro_instrs = Kv.num p "repro_instrs" int_of_string_opt in
  let* shrink_steps = Kv.num p "shrink_steps" int_of_string_opt in
  let* result = Kv.num p "result" int_of_string_opt in
  let* cycles = Kv.num p "cycles" int_of_string_opt in
  Ok
    {
      index;
      case_seed;
      verdict;
      oracle;
      detail;
      repro;
      repro_instrs;
      shrink_steps;
      result;
      cycles;
    }

module Codec = struct
  type nonrec meta = meta
  type item = case

  let kind = "szc-fuzz"
  let name = "fuzzlog"
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
