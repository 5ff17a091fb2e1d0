(* The benchmark's own test: at tiny size, every workload prints every
   metric BENCHMARK.json names, finite and with its unit, in both
   modes; the traced run's Chrome trace validates; and the output check
   rejects a planted wrong reference. *)

open Perfbench
module Json = Stz_telemetry.Json

let out_dir = "perfbench-test-out"

let run ?(plant = false) ~trace workload =
  let o =
    {
      Bench.workload;
      seed = 7;
      seconds = 0.0;
      trace;
      size = Workloads.tiny;
      plant;
      out_dir;
    }
  in
  match Bench.run o with Ok r -> r | Error e -> Alcotest.fail e

let declared section =
  let text = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  match Json.of_string text with
  | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e)
  | Ok j ->
      let field k m = Option.bind (Json.member k m) Json.to_str |> Option.get in
      Option.bind (Json.member section j) Json.to_list
      |> Option.get
      |> List.map (fun m ->
             if section = "workloads" then (field "name" m, "")
             else (field "name" m, field "unit" m))

let test_declared () =
  let names l = List.map fst l in
  Alcotest.(check (list (pair string string)))
    "end_to_end" (declared "end_to_end") Bench.end_to_end;
  Alcotest.(check (list (pair string string))) "per_layer" (declared "per_layer") Bench.per_layer;
  Alcotest.(check (list string))
    "workloads"
    (names (declared "workloads"))
    (names Workloads.all)

let check_metrics ~expected (r : Bench.result) =
  Alcotest.(check bool) "correct" true r.Bench.correct;
  Alcotest.(check int) "failed" 0 r.Bench.failed;
  Alcotest.(check bool) "attempted" true (r.Bench.attempted >= 1);
  Alcotest.(check (list (pair string string)))
    "names and units" expected
    (List.map (fun (n, _, u) -> (n, u)) r.Bench.metrics);
  List.iter
    (fun (n, v, _) ->
      if not (Float.is_finite v) then Alcotest.failf "%s is not finite: %g" n v)
    r.Bench.metrics;
  (* The result line is one JSON object with exactly the four keys. *)
  match Json.of_string (Bench.to_json r) with
  | Ok (Json.Obj fields) ->
      Alcotest.(check (list string))
        "result keys"
        [ "correct"; "attempted"; "failed"; "metrics" ]
        (List.map fst fields)
  | _ -> Alcotest.fail "result line is not a JSON object"

let test_untraced workload () = check_metrics ~expected:Bench.end_to_end (run ~trace:false workload)

let test_traced workload () =
  let r = run ~trace:true workload in
  check_metrics ~expected:Bench.per_layer r;
  let path = Option.get r.Bench.trace_file in
  Alcotest.(check (result bool string)) "trace checksum" (Ok true)
    (Stz_store.Artifact.verify_sum path);
  match
    Stz_telemetry.Export.validate_chrome_string
      (In_channel.with_open_bin path In_channel.input_all)
  with
  | Ok (spans, _) -> Alcotest.(check bool) "trace has spans" true (spans > 0)
  | Error e -> Alcotest.fail e

let test_planted workload () =
  let r = run ~plant:true ~trace:false workload in
  Alcotest.(check bool) "correct" false r.Bench.correct;
  Alcotest.(check int) "every unit failed" r.Bench.attempted r.Bench.failed

let () =
  let per_workload (name, _) =
    ( name,
      [
        Alcotest.test_case "prints every end-to-end metric" `Quick (test_untraced name);
        Alcotest.test_case "prints every per-layer metric and a valid trace" `Quick
          (test_traced name);
        Alcotest.test_case "rejects a planted wrong reference" `Quick (test_planted name);
      ] )
  in
  Alcotest.run "perfbench"
    (("declared", [ Alcotest.test_case "BENCHMARK.json matches the benchmark" `Quick test_declared ])
    :: List.map per_workload Workloads.all)
