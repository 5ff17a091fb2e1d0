(* perfbench: the repo benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads: campaign-perlbench, explain-mcf, fuzz-meta. The last line
   of standard output is one JSON object with the keys correct,
   attempted, failed and metrics; progress and the per-layer table go
   to standard error. Scratch files and traces are written under
   .perfbench/ in the current directory. Exit 0 when a result line was
   printed (correct or not), 2 on a usage error, 1 on a harness error. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let rec go (o : Bench.opts) = function
    | [] -> o
    | "--workload" :: v :: rest -> go { o with workload = v } rest
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with Some s -> go { o with seed = s } rest | None -> usage ())
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s >= 0.0 -> go { o with seconds = s } rest
        | _ -> usage ())
    | "--trace" :: "0" :: rest -> go { o with trace = false } rest
    | "--trace" :: "1" :: rest -> go { o with trace = true } rest
    | _ -> usage ()
  in
  let o = go Bench.defaults (List.tl (Array.to_list argv)) in
  if o.workload = "" then usage () else o

let () =
  let o = parse Sys.argv in
  match Bench.run o with
  | Ok r -> print_endline (Bench.to_json r)
  | Error e ->
      prerr_endline ("perfbench: " ^ e);
      exit 2
  | exception e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 1
