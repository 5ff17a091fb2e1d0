(* Helpers shared by the test suites: scratch files and directories,
   whole-file reads, and sample fuzz- and sweep-ledger records. *)

module Fl = Stz_store.Fuzzlog
module Sl = Stz_store.Sweeplog

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let unwrap = function Ok v -> v | Error e -> Alcotest.fail e

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let write_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let with_temp_dir f =
  let path = Filename.temp_file "szc-test" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

let fuzz_meta =
  { Fl.version = 1; fuzz_seed = 5L; count = 6; rand_runs = 2; plant = "none" }

let fuzz_case i verdict =
  let failing = verdict = Fl.Fail in
  {
    Fl.index = i;
    case_seed = Int64.of_int (1000 + i);
    verdict;
    oracle = (if failing then "divergence(O2)" else "");
    detail = (if failing then "result 4 <> 8" else "ok");
    repro = (if failing then Printf.sprintf "repro-%06d.szt" i else "");
    repro_instrs = (if failing then 7 else 0);
    shrink_steps = (if failing then 12 else 0);
    result = 4;
    cycles = 100 + i;
  }

let sweep_meta =
  {
    Sl.version = 1;
    fuzz_seed = 9L;
    count = 4;
    layout_seeds = 4;
    variants = 3;
    threshold = 0.25;
    shrink_budget = 10;
  }

let sweep_case i =
  {
    Sl.index = i;
    case_seed = Int64.of_int (1000 + i);
    verdict = (if i mod 3 = 2 then Sl.Trapped else Sl.Measured);
    eta2 = 0.1 +. (0.7 /. float_of_int (i + 1));
    partial_eta2 = 0.99;
    workload_share = 0.2;
    residual_share = 1e-9;
    mean_cycles = 4000 + i;
    instrs = 200 + i;
    structure = "l1i";
    victim = 1;
    evictor = 2;
    conflict_events = 17 * (i + 1);
    conflict_cycles = 170 * (i + 1);
    repro = (if i = 0 then "repro-000000.szt" else "");
    repro_instrs = (if i = 0 then 12 else 0);
    shrink_steps = (if i = 0 then 5 else 0);
    detail = "multi\nline gets sanitized";
  }
