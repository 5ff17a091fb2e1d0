module W = Stz_workloads
module Ir = Stz_vm.Ir

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let all_valid () =
  List.iter
    (fun prof ->
      let p = W.Generate.program prof in
      Alcotest.(check (list string))
        (prof.W.Profile.name ^ " validates")
        []
        (List.map
           (fun e -> e.Stz_vm.Validate.where ^ ": " ^ e.Stz_vm.Validate.what)
           (Stz_vm.Validate.check_program p)))
    W.Spec.all

let eighteen_benchmarks () =
  check_int "suite size" 18 (List.length W.Spec.all);
  let names = List.map (fun p -> p.W.Profile.name) W.Spec.all in
  check_int "names unique" 18 (List.length (List.sort_uniq compare names))

let spec_find () =
  check_bool "finds astar" true (W.Spec.find "astar" <> None);
  check_bool "case-insensitive" true (W.Spec.find "CACTUSadm" <> None);
  check_bool "unknown is None" true (W.Spec.find "doom3" = None)

let generation_deterministic () =
  let p1 = W.Generate.program W.Spec.astar in
  let p2 = W.Generate.program W.Spec.astar in
  check_int "same code size" (Ir.program_size_bytes p1) (Ir.program_size_bytes p2);
  check_int "same function count" (Array.length p1.Ir.funcs) (Array.length p2.Ir.funcs)

let structure_matches_profile () =
  let prof = W.Spec.gcc in
  let p = W.Generate.program prof in
  (* main + helpers + work + dead *)
  check_int "function count"
    (1 + prof.W.Profile.leaf_helpers + prof.W.Profile.functions
   + prof.W.Profile.dead_functions)
    (Array.length p.Ir.funcs);
  check_int "global count"
    (prof.W.Profile.large_arrays + prof.W.Profile.globals)
    (Array.length p.Ir.globals);
  check_int "entry is main" 0 p.Ir.entry

let dead_functions_unreachable () =
  let prof = W.Spec.perlbench in
  let p = W.Generate.program prof in
  (* Reachable set from main must exclude exactly the dead functions. *)
  let n = Array.length p.Ir.funcs in
  let reachable = Array.make n false in
  let rec visit fid =
    if not reachable.(fid) then begin
      reachable.(fid) <- true;
      List.iter visit (Ir.callees p.Ir.funcs.(fid))
    end
  in
  visit p.Ir.entry;
  let unreachable = Array.fold_left (fun a r -> if r then a else a + 1) 0 reachable in
  check_bool "at least the declared dead functions" true
    (unreachable >= prof.W.Profile.dead_functions)

let programs_terminate () =
  (* Every benchmark, scaled down hard, must run to completion within a
     modest fuel budget. *)
  List.iter
    (fun prof ->
      let prof = W.Profile.scale 0.05 prof in
      let p = W.Generate.program prof in
      let r =
        Stabilizer.Runtime.run
          ~limits:{ Stz_vm.Interp.max_instructions = 50_000_000; max_call_depth = 64 }
          ~config:Stabilizer.Config.baseline ~seed:1L p ~args:W.Generate.default_args
      in
      check_bool (prof.W.Profile.name ^ " produced work") true (r.Stabilizer.Runtime.cycles > 1000))
    W.Spec.all

let sized_inputs () =
  let r = W.Spec.sized `Ref W.Spec.astar in
  let t = W.Spec.sized `Train W.Spec.astar in
  let e = W.Spec.sized `Test W.Spec.astar in
  check_int "ref unchanged" W.Spec.astar.W.Profile.iterations r.W.Profile.iterations;
  check_bool "test < train < ref" true
    (e.W.Profile.iterations < t.W.Profile.iterations
    && t.W.Profile.iterations < r.W.Profile.iterations)

let scale_changes_iterations () =
  let p = W.Profile.scale 0.5 W.Spec.astar in
  check_int "halved" (int_of_float (float_of_int W.Spec.astar.W.Profile.iterations *. 0.5))
    p.W.Profile.iterations;
  let tiny = W.Profile.scale 0.0001 W.Spec.astar in
  check_int "never below 1" 1 tiny.W.Profile.iterations

let code_sizes_reasonable () =
  List.iter
    (fun prof ->
      let p = W.Generate.program prof in
      let bytes = Ir.program_size_bytes p in
      check_bool
        (Printf.sprintf "%s code size %d in [4KiB, 1MiB]" prof.W.Profile.name bytes)
        true
        (bytes > 4096 && bytes < 1_048_576))
    W.Spec.all

let heavy_benchmarks_have_many_functions () =
  (* The gobmk/gcc/perlbench trait the paper leans on for Figure 6. *)
  List.iter
    (fun name ->
      match W.Spec.find name with
      | Some p -> check_bool (name ^ " has many functions") true (p.W.Profile.functions >= 70)
      | None -> Alcotest.fail ("missing " ^ name))
    [ "gcc"; "gobmk"; "perlbench" ]

let cactus_wastes_heap () =
  (* cactusADM's large arrays must fall just above a power of two so the
     segregated heap rounds them up (the paper's explanation for its
     heap-randomization overhead). *)
  let prof = W.Spec.cactusadm in
  let size = prof.W.Profile.large_array_size in
  let c = Stz_alloc.Segregated.class_of_size size in
  let rounded = Stz_alloc.Segregated.size_of_class c in
  check_bool "wastes > 40% when rounded" true
    (float_of_int (rounded - size) /. float_of_int rounded > 0.4)

let values_independent_of_machine =
  (* The same program must compute the same result on machines with
     different cache geometries: the substrate can only change timing. *)
  QCheck.Test.make ~name:"results independent of machine geometry" ~count:6
    QCheck.(int_bound 1000)
    (fun seed ->
      let prof =
        {
          W.Profile.default with
          W.Profile.functions = 5;
          hot_functions = 3;
          iterations = 6;
          inner_trips = 6;
          seed = Int64.of_int (seed + 1);
        }
      in
      let p = W.Generate.program prof in
      let run_on machine =
        let code_addrs =
          let pos = ref 0x400000 in
          Array.map
            (fun f ->
              let a = !pos in
              pos := !pos + Ir.func_size_bytes f + 16;
              a)
            p.Ir.funcs
        in
        let global_addrs =
          let pos = ref 0x600000 in
          Array.map
            (fun (g : Ir.global) ->
              let a = !pos in
              pos := !pos + g.Ir.gsize + 16;
              a)
            p.Ir.globals
        in
        let brk = ref 0x10000000 in
        let env =
          Stz_vm.Interp.plain_env ~machine ~code_addrs ~global_addrs
            ~stack_base:0x7FFF0000
            ~malloc:(fun size ->
              let a = !brk in
              brk := !brk + ((size + 15) land lnot 15);
              a)
            ~free:(fun _ -> ())
            p
        in
        Stz_vm.Interp.run env p ~args:[ 1 ]
      in
      let small = Stz_machine.Hierarchy.create () in
      let big =
        Stz_machine.Hierarchy.create
          ~l1i:{ Stz_machine.Cache.sets = 128; ways = 8; line_bits = 6 }
          ~l1d:{ Stz_machine.Cache.sets = 128; ways = 8; line_bits = 6 }
          ~predictor_entries:8192 ()
      in
      run_on small = run_on big)

let () =
  Alcotest.run "workloads"
    [
      ( "spec",
        [
          Alcotest.test_case "all valid" `Quick all_valid;
          Alcotest.test_case "eighteen benchmarks" `Quick eighteen_benchmarks;
          Alcotest.test_case "find" `Quick spec_find;
          Alcotest.test_case "many functions trait" `Quick heavy_benchmarks_have_many_functions;
          Alcotest.test_case "cactus waste trait" `Quick cactus_wastes_heap;
        ] );
      ( "generate",
        [
          Alcotest.test_case "deterministic" `Quick generation_deterministic;
          Alcotest.test_case "structure" `Quick structure_matches_profile;
          Alcotest.test_case "dead unreachable" `Quick dead_functions_unreachable;
          Alcotest.test_case "terminate" `Slow programs_terminate;
          Alcotest.test_case "scale" `Quick scale_changes_iterations;
          Alcotest.test_case "sized inputs" `Quick sized_inputs;
          Alcotest.test_case "code sizes" `Quick code_sizes_reasonable;
          QCheck_alcotest.to_alcotest values_independent_of_machine;
        ] );
    ]
