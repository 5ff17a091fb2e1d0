module Ir = Stz_vm.Ir
module B = Stz_vm.Builder
module V = Stz_vm.Validate
module I = Stz_vm.Interp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A trivial machine + env for semantics tests. *)
let env_for p =
  let machine = Stz_machine.Hierarchy.create () in
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
        pos := !pos + g.gsize + 16;
        a)
      p.Ir.globals
  in
  let brk = ref 0x10000000 in
  let malloc size =
    let a = !brk in
    brk := !brk + ((size + 15) land lnot 15);
    a
  in
  I.plain_env ~machine ~code_addrs ~global_addrs ~stack_base:0x7FFF0000 ~malloc
    ~free:(fun _ -> ())
    p

let run p args = I.run (env_for p) p ~args

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

let builder_rejects_unterminated () =
  let b = B.func ~fid:0 ~name:"f" ~n_args:0 () in
  B.emit b (Ir.Mov (B.fresh_reg b, Ir.Imm 1));
  let raised = try ignore (B.finish b); false with Invalid_argument _ -> true in
  check_bool "missing terminator rejected" true raised

let builder_rejects_empty_block () =
  let b = B.func ~fid:0 ~name:"f" ~n_args:0 () in
  B.emit b (Ir.Ret (Ir.Imm 0));
  ignore (B.new_block b);
  let raised = try ignore (B.finish b); false with Invalid_argument _ -> true in
  check_bool "empty block rejected" true raised

let builder_program_requires_dense_fids () =
  let f fid =
    let b = B.func ~fid ~name:"f" ~n_args:0 () in
    B.emit b (Ir.Ret (Ir.Imm 0));
    B.finish b
  in
  let raised =
    try ignore (B.program ~funcs:[ f 0; f 2 ] ~globals:[] ~entry:0); false
    with Invalid_argument _ -> true
  in
  check_bool "gap in fids rejected" true raised

(* ------------------------------------------------------------------ *)
(* Validate                                                            *)
(* ------------------------------------------------------------------ *)

let make_single instrs =
  let f =
    {
      Ir.fid = 0;
      fname = "f";
      blocks = [| { Ir.instrs = Array.of_list instrs } |];
      n_args = 0;
      n_regs = 2;
      frame_size = 32;
    }
  in
  { Ir.funcs = [| f |]; globals = [||]; entry = 0 }

let validate_catches_bad_register () =
  let p = make_single [ Ir.Mov (5, Ir.Imm 1); Ir.Ret (Ir.Imm 0) ] in
  check_bool "error found" true (V.check_program p <> [])

let validate_catches_bad_branch () =
  let p = make_single [ Ir.Br 3 ] in
  check_bool "error found" true (V.check_program p <> [])

let validate_catches_bad_call () =
  let p = make_single [ Ir.Call { fn = 7; args = []; dst = 0 }; Ir.Ret (Ir.Imm 0) ] in
  check_bool "error found" true (V.check_program p <> [])

let validate_catches_bad_global () =
  let p = make_single [ Ir.Global (0, 0); Ir.Ret (Ir.Imm 0) ] in
  check_bool "error found" true (V.check_program p <> [])

let validate_catches_misplaced_terminator () =
  let p = make_single [ Ir.Ret (Ir.Imm 0); Ir.Mov (0, Ir.Imm 1); Ir.Ret (Ir.Imm 0) ] in
  check_bool "error found" true (V.check_program p <> [])

let validate_catches_bad_frame_offset () =
  let p = make_single [ Ir.Frame (0, 4096); Ir.Ret (Ir.Imm 0) ] in
  check_bool "error found" true (V.check_program p <> [])

let validate_accepts_good () =
  let p = make_single [ Ir.Mov (0, Ir.Imm 1); Ir.Ret (Ir.Reg 0) ] in
  check_int "no errors" 0 (List.length (V.check_program p));
  V.check_exn p

(* ------------------------------------------------------------------ *)
(* Interpreter semantics                                               *)
(* ------------------------------------------------------------------ *)

(* sum of 1..n via loop *)
let sum_program () =
  let b = B.func ~fid:0 ~name:"main" ~n_args:1 () in
  let n = 0 in
  let acc = B.fresh_reg b in
  let i = B.fresh_reg b in
  B.emit b (Ir.Mov (acc, Ir.Imm 0));
  B.emit b (Ir.Mov (i, Ir.Imm 1));
  let head = B.new_block b in
  let body = B.new_block b in
  let exit = B.new_block b in
  B.emit b (Ir.Br head);
  B.set_block b head;
  let c = B.fresh_reg b in
  B.emit b (Ir.Cmp (Ir.Le, c, Ir.Reg i, Ir.Reg n));
  B.emit b (Ir.Brc (Ir.Reg c, body, exit));
  B.set_block b body;
  B.emit b (Ir.Bin (Ir.Add, acc, Ir.Reg acc, Ir.Reg i));
  B.emit b (Ir.Bin (Ir.Add, i, Ir.Reg i, Ir.Imm 1));
  B.emit b (Ir.Br head);
  B.set_block b exit;
  B.emit b (Ir.Ret (Ir.Reg acc));
  B.program ~funcs:[ B.finish b ] ~globals:[] ~entry:0

let interp_loop_sum () =
  let p = sum_program () in
  check_int "sum 1..10" 55 (run p [ 10 ]);
  check_int "sum 1..100" 5050 (run p [ 100 ]);
  check_int "sum of none" 0 (run p [ 0 ])

let fact_program () =
  (* f(n) = n <= 1 ? 1 : n * f(n-1): recursion through the call stack. *)
  let b = B.func ~fid:0 ~name:"fact" ~n_args:1 () in
  let n = 0 in
  let base = B.new_block b in
  let rec_ = B.new_block b in
  let c = B.fresh_reg b in
  B.emit b (Ir.Cmp (Ir.Le, c, Ir.Reg n, Ir.Imm 1));
  B.emit b (Ir.Brc (Ir.Reg c, base, rec_));
  B.set_block b base;
  B.emit b (Ir.Ret (Ir.Imm 1));
  B.set_block b rec_;
  let m = B.fresh_reg b in
  let r = B.fresh_reg b in
  B.emit b (Ir.Bin (Ir.Sub, m, Ir.Reg n, Ir.Imm 1));
  B.emit b (Ir.Call { fn = 0; args = [ Ir.Reg m ]; dst = r });
  let out = B.fresh_reg b in
  B.emit b (Ir.Bin (Ir.Mul, out, Ir.Reg n, Ir.Reg r));
  B.emit b (Ir.Ret (Ir.Reg out));
  B.program ~funcs:[ B.finish b ] ~globals:[] ~entry:0

let interp_recursion () =
  let p = fact_program () in
  check_int "5!" 120 (run p [ 5 ]);
  check_int "10!" 3628800 (run p [ 10 ])

let interp_memory_roundtrip () =
  let b = B.func ~fid:0 ~name:"main" ~n_args:0 ~frame_size:64 () in
  let slot = B.fresh_reg b in
  let v = B.fresh_reg b in
  B.emit b (Ir.Frame (slot, 16));
  B.emit b (Ir.Store (slot, 0, Ir.Imm 1234));
  B.emit b (Ir.Load (v, slot, 0));
  B.emit b (Ir.Ret (Ir.Reg v));
  let p = B.program ~funcs:[ B.finish b ] ~globals:[] ~entry:0 in
  check_int "store/load" 1234 (run p [])

let interp_untouched_memory_is_zero () =
  let b = B.func ~fid:0 ~name:"main" ~n_args:0 ~frame_size:64 () in
  let slot = B.fresh_reg b in
  let v = B.fresh_reg b in
  B.emit b (Ir.Frame (slot, 32));
  B.emit b (Ir.Load (v, slot, 0));
  B.emit b (Ir.Ret (Ir.Reg v));
  let p = B.program ~funcs:[ B.finish b ] ~globals:[] ~entry:0 in
  check_int "reads zero" 0 (run p [])

let interp_malloc_free () =
  let b = B.func ~fid:0 ~name:"main" ~n_args:0 () in
  let ptr = B.fresh_reg b in
  let v = B.fresh_reg b in
  B.emit b (Ir.Malloc (ptr, Ir.Imm 128));
  B.emit b (Ir.Store (ptr, 8, Ir.Imm 77));
  B.emit b (Ir.Load (v, ptr, 8));
  B.emit b (Ir.Free ptr);
  B.emit b (Ir.Ret (Ir.Reg v));
  let p = B.program ~funcs:[ B.finish b ] ~globals:[] ~entry:0 in
  check_int "heap store/load" 77 (run p [])

let interp_call_args () =
  (* callee(a, b) = a - b; main calls with (10, 3). *)
  let callee =
    let b = B.func ~fid:1 ~name:"sub" ~n_args:2 () in
    let r = B.fresh_reg b in
    B.emit b (Ir.Bin (Ir.Sub, r, Ir.Reg 0, Ir.Reg 1));
    B.emit b (Ir.Ret (Ir.Reg r));
    B.finish b
  in
  let main =
    let b = B.func ~fid:0 ~name:"main" ~n_args:0 () in
    let r = B.fresh_reg b in
    B.emit b (Ir.Call { fn = 1; args = [ Ir.Imm 10; Ir.Imm 3 ]; dst = r });
    B.emit b (Ir.Ret (Ir.Reg r));
    B.finish b
  in
  let p = B.program ~funcs:[ main; callee ] ~globals:[] ~entry:0 in
  check_int "args passed in order" 7 (run p [])

let interp_division_semantics () =
  check_int "div" 3 (I.eval_binop Ir.Div 7 2);
  check_int "div by zero is 0" 0 (I.eval_binop Ir.Div 7 0);
  check_int "shift truncated" (1 lsl 2) (I.eval_binop Ir.Shl 1 (64 + 2));
  check_int "cmp true" 1 (I.eval_cmp Ir.Lt 1 2);
  check_int "cmp false" 0 (I.eval_cmp Ir.Gt 1 2)

let interp_shift_semantics () =
  (* The clamp must keep odd amounts: an earlier [land 62] mask
     silently zeroed the low bit, simulating [x lsl 1] as [x lsl 0]. *)
  check_int "shl 0" 5 (I.eval_binop Ir.Shl 5 0);
  check_int "shl 1 doubles" 10 (I.eval_binop Ir.Shl 5 1);
  check_int "shl 3 odd amount" 40 (I.eval_binop Ir.Shl 5 3);
  check_int "shr 1 halves" 5 (I.eval_binop Ir.Shr 10 1);
  check_int "shl 62" (1 lsl 62) (I.eval_binop Ir.Shl 1 62);
  check_int "shl 63 clamps to 62" (1 lsl 62) (I.eval_binop Ir.Shl 1 63);
  check_int "shr 62" (min_int asr 62) (I.eval_binop Ir.Shr min_int 62);
  check_int "shr 63 clamps to 62" (min_int asr 62)
    (I.eval_binop Ir.Shr min_int 63);
  (* [Shr] is arithmetic: negative operands keep their sign. *)
  check_int "asr negative" (-4) (I.eval_binop Ir.Shr (-16) 2);
  check_int "asr negative saturates to -1" (-1) (I.eval_binop Ir.Shr (-1) 40);
  check_int "asr negative by 62" (-1) (I.eval_binop Ir.Shr (-1000) 62);
  (* Negative amounts wrap through [land 63] like a hardware shifter,
     then clamp: -1 land 63 = 63 -> 62. *)
  check_int "negative amount wraps" (1 lsl 62) (I.eval_binop Ir.Shl 1 (-1));
  check_int "amount 65 wraps to 1" 10 (I.eval_binop Ir.Shl 5 65);
  (* End to end through the interpreter (register and immediate
     operand shapes take different pre-decoded paths). *)
  let b = B.func ~fid:0 ~name:"main" ~n_args:1 () in
  let r = B.fresh_reg b in
  let s = B.fresh_reg b in
  B.emit b (Ir.Bin (Ir.Shl, r, Ir.Reg 0, Ir.Imm 1));
  B.emit b (Ir.Mov (s, Ir.Imm 3));
  B.emit b (Ir.Bin (Ir.Shl, r, Ir.Reg r, Ir.Reg s));
  B.emit b (Ir.Bin (Ir.Shr, r, Ir.Reg r, Ir.Imm 2));
  B.emit b (Ir.Ret (Ir.Reg r));
  let p = B.program ~funcs:[ B.finish b ] ~globals:[] ~entry:0 in
  check_int "x lsl 1 lsl 3 asr 2 = 4x" 84 (run p [ 21 ])

(* Pin the exact counters of small fixed programs on the default
   machine. Any interpreter or hierarchy change that drifts the
   simulated machine model — rather than just making it faster —
   fails here loudly. Values recorded after the shift-semantics fix;
   they are a contract, not a derivation. *)
let golden_counters program args expected =
  let p = program () in
  let m = Stz_machine.Hierarchy.create () in
  let env =
    I.plain_env ~machine:m
      ~code_addrs:(Array.map (fun _ -> 0x400000) p.Ir.funcs)
      ~global_addrs:[||] ~stack_base:0x7FFF0000
      ~malloc:(fun _ -> 0x10000000)
      ~free:(fun _ -> ())
      p
  in
  ignore (I.run env p ~args);
  List.iter2
    (fun (k, v) (k', v') ->
      check_int ("field order: " ^ k) 0 (compare k k');
      check_int k v' v)
    (Stz_machine.Hierarchy.counters_fields
       (Stz_machine.Hierarchy.counters m))
    expected

let interp_golden_counters_sum () =
  golden_counters sum_program [ 100 ]
    [
      ("cycles", 980);
      ("instructions", 506);
      ("l1i_misses", 1);
      ("l1d_misses", 1);
      ("l2_misses", 2);
      ("l3_misses", 2);
      ("itlb_misses", 1);
      ("dtlb_misses", 1);
      ("branches", 101);
      ("branch_mispredictions", 1);
    ]

let interp_golden_counters_fact () =
  golden_counters fact_program [ 10 ]
    [
      ("cycles", 2381);
      ("instructions", 57);
      ("l1i_misses", 1);
      ("l1d_misses", 10);
      ("l2_misses", 11);
      ("l3_misses", 11);
      ("itlb_misses", 1);
      ("dtlb_misses", 1);
      ("branches", 10);
      ("branch_mispredictions", 2);
    ]

let interp_fuel_exhaustion () =
  (* Infinite loop must hit the fuel limit. *)
  let b = B.func ~fid:0 ~name:"main" ~n_args:0 () in
  B.emit b (Ir.Br 0);
  let p = B.program ~funcs:[ B.finish b ] ~globals:[] ~entry:0 in
  let env = env_for p in
  Alcotest.check_raises "fuel" I.Fuel_exhausted (fun () ->
      ignore
        (I.run ~limits:{ I.max_instructions = 1000; max_call_depth = 10 } env p
           ~args:[]))

let interp_call_depth () =
  let p = fact_program () in
  let env = env_for p in
  Alcotest.check_raises "depth" I.Call_depth_exceeded (fun () ->
      ignore
        (I.run ~limits:{ I.max_instructions = 1_000_000; max_call_depth = 5 } env p
           ~args:[ 100 ]))

(* Paged memory against a plain word map. Stores go to 72 pages: 64 at
   positive addresses, where pages 16 apart share a memo slot, and 8 at
   negative addresses that all share one. Loads then read them back in
   another order. Each load must see the last value stored to its word,
   or 0. Pages that share a slot are written at the same offsets, so a
   memo that served a slot's page without comparing its index would
   read or overwrite a neighbour's word. *)
let interp_paged_memory_matches_word_map () =
  let page_bytes = 8 * 4096 in
  let pages =
    Array.append
      (Array.init 64 (fun i -> (5 + i) * page_bytes))
      (Array.init 8 (fun j -> -(1 + (16 * j)) * page_bytes))
  in
  let n = Array.length pages in
  let b = B.func ~fid:0 ~name:"main" ~n_args:0 () in
  let addr = B.fresh_reg b and got = B.fresh_reg b in
  let wrong = B.fresh_reg b and bad = B.fresh_reg b in
  let model = Hashtbl.create 256 in
  let store a v =
    B.emit b (Ir.Mov (addr, Ir.Imm a));
    B.emit b (Ir.Store (addr, 0, Ir.Imm v));
    Hashtbl.replace model (a lsr 3) v
  in
  let loads = ref 0 in
  let load a =
    let expect = Option.value (Hashtbl.find_opt model (a lsr 3)) ~default:0 in
    B.emit b (Ir.Mov (addr, Ir.Imm a));
    B.emit b (Ir.Load (got, addr, 0));
    B.emit b (Ir.Cmp (Ir.Ne, wrong, Ir.Reg got, Ir.Imm expect));
    B.emit b (Ir.Bin (Ir.Add, bad, Ir.Reg bad, Ir.Reg wrong));
    incr loads
  in
  B.emit b (Ir.Mov (bad, Ir.Imm 0));
  Array.iteri
    (fun i p ->
      store p (1000 + i);
      store (p + 8) (2000 + i))
    pages;
  Array.iteri (fun i p -> if i mod 3 = 0 then store p (3000 + i)) pages;
  for k = 0 to n - 1 do
    let p = pages.(k * 29 mod n) in
    load p;
    load (p + 8);
    load (p + 16)
  done;
  load (200 * page_bytes);
  load (-300 * page_bytes);
  B.emit b (Ir.Ret (Ir.Reg bad));
  let prog = B.program ~funcs:[ B.finish b ] ~globals:[] ~entry:0 in
  check_bool "negative pages present" true (pages.(n - 1) < 0);
  check_int (Printf.sprintf "wrong loads out of %d" !loads) 0 (run prog [])

let interp_deterministic_cycles () =
  let p = sum_program () in
  let m1 = Stz_machine.Hierarchy.create () in
  let m2 = Stz_machine.Hierarchy.create () in
  let mk m =
    I.plain_env ~machine:m
      ~code_addrs:[| 0x400000 |]
      ~global_addrs:[||] ~stack_base:0x7FFF0000
      ~malloc:(fun _ -> 0x10000000)
      ~free:(fun _ -> ())
      p
  in
  ignore (I.run (mk m1) p ~args:[ 50 ]);
  ignore (I.run (mk m2) p ~args:[ 50 ]);
  check_int "same cycles" (Stz_machine.Hierarchy.cycles m1)
    (Stz_machine.Hierarchy.cycles m2)

let interp_layout_affects_time_not_values () =
  let p = sum_program () in
  let m1 = Stz_machine.Hierarchy.create () in
  let m2 = Stz_machine.Hierarchy.create () in
  let mk m code =
    I.plain_env ~machine:m ~code_addrs:[| code |] ~global_addrs:[||]
      ~stack_base:0x7FFF0000
      ~malloc:(fun _ -> 0x10000000)
      ~free:(fun _ -> ())
      p
  in
  let r1 = I.run (mk m1 0x400000) p ~args:[ 1000 ] in
  let r2 = I.run (mk m2 0x444440) p ~args:[ 1000 ] in
  check_int "same value under different layout" r1 r2

(* ------------------------------------------------------------------ *)
(* Ir utilities                                                        *)
(* ------------------------------------------------------------------ *)

let ir_sizes () =
  let p = sum_program () in
  let f = p.Ir.funcs.(0) in
  check_int "instr count" 9 (Ir.func_instr_count f);
  check_int "bytes" 36 (Ir.func_size_bytes f);
  let offsets = Ir.block_offsets f in
  check_int "entry offset" 0 offsets.(0);
  check_int "blocks contiguous" (3 * 4) offsets.(1)

let ir_callees_and_globals () =
  let p = fact_program () in
  Alcotest.(check (list int)) "self-recursive" [ 0 ] (Ir.callees p.Ir.funcs.(0));
  Alcotest.(check (list int)) "no globals" [] (Ir.referenced_globals p.Ir.funcs.(0))

let ir_copy_is_deep () =
  let p = sum_program () in
  let q = Ir.copy_program p in
  q.Ir.funcs.(0).Ir.blocks.(0).Ir.instrs <- [||];
  check_bool "original untouched" true
    (Array.length p.Ir.funcs.(0).Ir.blocks.(0).Ir.instrs > 0)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let ir_pp_smoke () =
  let p = fact_program () in
  let s = Format.asprintf "%a" Ir.pp_program p in
  check_bool "mentions function" true (contains_substring s "fact");
  check_bool "mentions call" true (contains_substring s "call")

(* ------------------------------------------------------------------ *)
(* Textual IR format                                                   *)
(* ------------------------------------------------------------------ *)

let text_roundtrip_simple () =
  let p = fact_program () in
  let q = Stz_vm.Text.of_string (Stz_vm.Text.to_string p) in
  check_int "same text" 0 (compare (Stz_vm.Text.to_string p) (Stz_vm.Text.to_string q));
  check_int "same result" (run p [ 6 ]) (run q [ 6 ])

let text_roundtrip_generated =
  QCheck.Test.make ~name:"textual IR roundtrips on generated programs" ~count:8
    QCheck.(int_bound 1000)
    (fun seed ->
      let prof =
        {
          Stz_workloads.Profile.default with
          Stz_workloads.Profile.name = "text-test";
          functions = 5;
          hot_functions = 2;
          iterations = 3;
          inner_trips = 4;
          seed = Int64.of_int (seed + 1);
        }
      in
      let p = Stz_workloads.Generate.program prof in
      let text = Stz_vm.Text.to_string p in
      let q = Stz_vm.Text.of_string text in
      Stz_vm.Text.to_string q = text)

let text_parses_handwritten () =
  let src =
    "program entry=f0
" ^ "global g0 scratch size=64
"
    ^ "func f0 main args=1 regs=4 frame=32
" ^ "block b0
"
    ^ "  r1 = global g0        # address of scratch
"
    ^ "  store [r1 + 0], r0
" ^ "  r2 = load [r1 + 0]
"
    ^ "  r3 = add r2, r2
" ^ "  ret r3
"
  in
  let p = Stz_vm.Text.of_string src in
  check_int "doubles" 42 (run p [ 21 ])

let text_parse_errors () =
  let expect_error src =
    match Stz_vm.Text.of_string src with
    | exception Stz_vm.Text.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected a parse error"
  in
  expect_error "func f0 main args=0 regs=1 frame=16
block b0
  ret 0
"
  (* missing program header *);
  expect_error "program entry=f0
func f0 main args=0 regs=1 frame=16
  ret 0
"
  (* instruction before block *);
  expect_error
    "program entry=f0
func f0 main args=0 regs=1 frame=16
block b1
  ret 0
"
  (* out-of-order block *);
  expect_error
    "program entry=f0
func f0 main args=0 regs=1 frame=16
block b0
  r0 = frob 1, 2
"
  (* unknown op *);
  expect_error "program entry=f9
func f0 main args=0 regs=1 frame=16
block b0
  ret 0
"
  (* bad entry: validation *)

let text_parse_error_reports_line () =
  match
    Stz_vm.Text.of_string
      "program entry=f0
func f0 main args=0 regs=1 frame=16
block b0
  wat
"
  with
  | exception Stz_vm.Text.Parse_error { line; _ } -> check_int "line number" 4 line
  | _ -> Alcotest.fail "expected a parse error"

let () =
  Alcotest.run "vm"
    [
      ( "builder",
        [
          Alcotest.test_case "unterminated" `Quick builder_rejects_unterminated;
          Alcotest.test_case "empty block" `Quick builder_rejects_empty_block;
          Alcotest.test_case "dense fids" `Quick builder_program_requires_dense_fids;
        ] );
      ( "validate",
        [
          Alcotest.test_case "bad register" `Quick validate_catches_bad_register;
          Alcotest.test_case "bad branch" `Quick validate_catches_bad_branch;
          Alcotest.test_case "bad call" `Quick validate_catches_bad_call;
          Alcotest.test_case "bad global" `Quick validate_catches_bad_global;
          Alcotest.test_case "misplaced terminator" `Quick validate_catches_misplaced_terminator;
          Alcotest.test_case "bad frame offset" `Quick validate_catches_bad_frame_offset;
          Alcotest.test_case "accepts good" `Quick validate_accepts_good;
        ] );
      ( "interp",
        [
          Alcotest.test_case "loop sum" `Quick interp_loop_sum;
          Alcotest.test_case "recursion" `Quick interp_recursion;
          Alcotest.test_case "memory roundtrip" `Quick interp_memory_roundtrip;
          Alcotest.test_case "untouched reads zero" `Quick interp_untouched_memory_is_zero;
          Alcotest.test_case "malloc/free" `Quick interp_malloc_free;
          Alcotest.test_case "call args" `Quick interp_call_args;
          Alcotest.test_case "division/shift" `Quick interp_division_semantics;
          Alcotest.test_case "shift semantics" `Quick interp_shift_semantics;
          Alcotest.test_case "golden counters (sum)" `Quick interp_golden_counters_sum;
          Alcotest.test_case "golden counters (fact)" `Quick interp_golden_counters_fact;
          Alcotest.test_case "fuel" `Quick interp_fuel_exhaustion;
          Alcotest.test_case "call depth" `Quick interp_call_depth;
          Alcotest.test_case "deterministic" `Quick interp_deterministic_cycles;
          Alcotest.test_case "layout-independent values" `Quick interp_layout_affects_time_not_values;
          Alcotest.test_case "paged memory matches word map" `Quick
            interp_paged_memory_matches_word_map;
        ] );
      ( "text format",
        [
          Alcotest.test_case "roundtrip simple" `Quick text_roundtrip_simple;
          QCheck_alcotest.to_alcotest text_roundtrip_generated;
          Alcotest.test_case "handwritten program" `Quick text_parses_handwritten;
          Alcotest.test_case "parse errors" `Quick text_parse_errors;
          Alcotest.test_case "error line numbers" `Quick text_parse_error_reports_line;
        ] );
      ( "ir",
        [
          Alcotest.test_case "sizes" `Quick ir_sizes;
          Alcotest.test_case "callees/globals" `Quick ir_callees_and_globals;
          Alcotest.test_case "deep copy" `Quick ir_copy_is_deep;
          Alcotest.test_case "pretty printer" `Quick ir_pp_smoke;
        ] );
    ]
