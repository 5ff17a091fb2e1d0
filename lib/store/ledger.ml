type entry = {
  label : string;
  fingerprint : string;
  base_seed : int64;
  runs : int;
  completed : int;
  censored : int;
  mean : float;
  sd : float;
  min : float;
  max : float;
  skewness : float;
  kurtosis : float;
  detectable_effect : float;
  verdict : string;
}

(* Line-oriented payload: one "key value" pair per line, fixed order.
   Floats are written as hexadecimal literals so they round-trip
   bit-exactly — the regression decision must be recomputable from the
   ledger alone, on any machine, to the last bit. *)

module Kv = Log.Kv

let entry_to_payload e =
  Kv.encode
    [
      ("label", e.label);
      ("fingerprint", e.fingerprint);
      ("base_seed", Int64.to_string e.base_seed);
      ("runs", string_of_int e.runs);
      ("completed", string_of_int e.completed);
      ("censored", string_of_int e.censored);
      ("mean", Kv.hex e.mean);
      ("sd", Kv.hex e.sd);
      ("min", Kv.hex e.min);
      ("max", Kv.hex e.max);
      ("skewness", Kv.hex e.skewness);
      ("kurtosis", Kv.hex e.kurtosis);
      ("detectable_effect", Kv.hex e.detectable_effect);
      ("verdict", e.verdict);
    ]

let entry_of_payload s =
  let p = Kv.decode s in
  let ( let* ) = Result.bind in
  let int key = Kv.num p key int_of_string_opt in
  let flt key = Kv.num p key float_of_string_opt in
  let* label = Kv.str p "label" in
  let* fingerprint = Kv.str p "fingerprint" in
  let* base_seed = Kv.num p "base_seed" Int64.of_string_opt in
  let* runs = int "runs" in
  let* completed = int "completed" in
  let* censored = int "censored" in
  let* mean = flt "mean" in
  let* sd = flt "sd" in
  let* min = flt "min" in
  let* max = flt "max" in
  let* skewness = flt "skewness" in
  let* kurtosis = flt "kurtosis" in
  let* detectable_effect = flt "detectable_effect" in
  let* verdict = Kv.str p "verdict" in
  Ok
    {
      label;
      fingerprint;
      base_seed;
      runs;
      completed;
      censored;
      mean;
      sd;
      min;
      max;
      skewness;
      kurtosis;
      detectable_effect;
      verdict;
    }

include Log.Make (struct
  type meta = unit
  type item = entry

  let kind = "szc-ledger"
  let name = "ledger"
  let noun = "entries"
  let meta_payload () = None
  let meta_of_payload _ = Ok ()
  let item_record e = ("campaign", entry_to_payload e)

  let item_of_record = function
    | "campaign", p -> Some (entry_of_payload p)
    | _ -> None

  let index = None
end)

(* Strict load, then an atomic whole-file rewrite: a corrupt ledger is
   refused, never truncated by an append. *)
let append path e =
  (* A zero-length file is a fresh ledger, not a corrupt one: callers
     (and Filename.temp_file) routinely pre-create the file empty. *)
  let existing =
    if Sys.file_exists path && (Unix.stat path).Unix.st_size > 0 then
      Result.map snd (load path)
    else Ok []
  in
  Result.map
    (fun entries ->
      rewrite path () (entries @ [ e ]);
      List.length entries)
    existing
