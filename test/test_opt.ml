module Ir = Stz_vm.Ir
module B = Stz_vm.Builder
module O = Stz_vm.Opt
module I = Stz_vm.Interp
module V = Stz_vm.Validate

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let single instrs ~n_regs =
  let f =
    {
      Ir.fid = 0;
      fname = "f";
      blocks = [| { Ir.instrs = Array.of_list instrs } |];
      n_args = 0;
      n_regs;
      frame_size = 64;
    }
  in
  { Ir.funcs = [| f |]; globals = [||]; entry = 0 }

let instrs_of p = Array.to_list p.Ir.funcs.(0).Ir.blocks.(0).Ir.instrs

let run_plain p args =
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
  let env =
    I.plain_env ~machine ~code_addrs ~global_addrs ~stack_base:0x7FFF0000
      ~malloc:(fun size ->
        let a = !brk in
        brk := !brk + ((size + 15) land lnot 15);
        a)
      ~free:(fun _ -> ())
      p
  in
  let v = I.run env p ~args in
  (v, Stz_machine.Hierarchy.cycles machine, (Stz_machine.Hierarchy.counters machine).Stz_machine.Hierarchy.instructions)

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)
(* ------------------------------------------------------------------ *)

let fold_collapses_chain () =
  let p =
    single ~n_regs:4
      [
        Ir.Mov (0, Ir.Imm 3);
        Ir.Bin (Ir.Mul, 1, Ir.Reg 0, Ir.Imm 4);
        Ir.Bin (Ir.Add, 2, Ir.Reg 1, Ir.Imm 5);
        Ir.Ret (Ir.Reg 2);
      ]
  in
  let q = O.const_fold p in
  (match instrs_of q with
  | [ _; Ir.Mov (1, Ir.Imm 12); Ir.Mov (2, Ir.Imm 17); Ir.Ret (Ir.Imm 17) ] -> ()
  | other ->
      Alcotest.failf "unexpected folding result: %d instrs" (List.length other));
  let v, _, _ = run_plain q [] in
  check_int "value preserved" 17 v

let fold_resolves_constant_branch () =
  let f =
    {
      Ir.fid = 0;
      fname = "f";
      blocks =
        [|
          { Ir.instrs = [| Ir.Mov (0, Ir.Imm 1); Ir.Brc (Ir.Reg 0, 1, 2) |] };
          { Ir.instrs = [| Ir.Ret (Ir.Imm 100) |] };
          { Ir.instrs = [| Ir.Ret (Ir.Imm 200) |] };
        |];
      n_args = 0;
      n_regs = 1;
      frame_size = 16;
    }
  in
  let p = { Ir.funcs = [| f |]; globals = [||]; entry = 0 } in
  let q = O.const_fold p in
  (match q.Ir.funcs.(0).Ir.blocks.(0).Ir.instrs.(1) with
  | Ir.Br 1 -> ()
  | _ -> Alcotest.fail "Brc on constant not resolved");
  let v, _, _ = run_plain q [] in
  check_int "takes then-branch" 100 v

let fold_does_not_cross_blocks () =
  (* Constants known in block 0 must not leak into block 1 (registers
     are mutable across blocks; our folder is block-local). *)
  let f =
    {
      Ir.fid = 0;
      fname = "f";
      blocks =
        [|
          { Ir.instrs = [| Ir.Mov (0, Ir.Imm 7); Ir.Br 1 |] };
          { Ir.instrs = [| Ir.Bin (Ir.Add, 1, Ir.Reg 0, Ir.Imm 1); Ir.Ret (Ir.Reg 1) |] };
        |];
      n_args = 0;
      n_regs = 2;
      frame_size = 16;
    }
  in
  let p = { Ir.funcs = [| f |]; globals = [||]; entry = 0 } in
  let q = O.const_fold p in
  (match q.Ir.funcs.(0).Ir.blocks.(1).Ir.instrs.(0) with
  | Ir.Bin (Ir.Add, 1, Ir.Reg 0, Ir.Imm 1) -> ()
  | _ -> Alcotest.fail "folder crossed a block boundary");
  let v, _, _ = run_plain q [] in
  check_int "still correct" 8 v

(* ------------------------------------------------------------------ *)
(* Simplify                                                            *)
(* ------------------------------------------------------------------ *)

let simplify_identities () =
  let p =
    single ~n_regs:6
      [
        Ir.Mov (0, Ir.Imm 9);
        Ir.Bin (Ir.Add, 1, Ir.Reg 0, Ir.Imm 0);
        Ir.Bin (Ir.Mul, 2, Ir.Reg 1, Ir.Imm 1);
        Ir.Bin (Ir.Mul, 3, Ir.Reg 2, Ir.Imm 0);
        Ir.Bin (Ir.Xor, 4, Ir.Reg 2, Ir.Imm 0);
        Ir.Ret (Ir.Reg 4);
      ]
  in
  let q = O.simplify p in
  let movs =
    List.length
      (List.filter (function Ir.Mov _ -> true | _ -> false) (instrs_of q))
  in
  check_int "all identities became moves" 5 movs;
  let v, _, _ = run_plain q [] in
  check_int "value preserved" 9 v

(* ------------------------------------------------------------------ *)
(* DCE                                                                 *)
(* ------------------------------------------------------------------ *)

let dce_removes_dead () =
  let p =
    single ~n_regs:4
      [
        Ir.Mov (0, Ir.Imm 1);
        Ir.Mov (1, Ir.Imm 2) (* dead *);
        Ir.Bin (Ir.Add, 2, Ir.Reg 1, Ir.Imm 1) (* makes r1 live... *);
        Ir.Ret (Ir.Reg 0);
      ]
  in
  (* r2 is dead -> removed; then r1's use disappears -> r1 dead too:
     the fixpoint matters. *)
  let q = O.dce p in
  check_int "only live code remains" 2 (List.length (instrs_of q));
  let v, _, _ = run_plain q [] in
  check_int "value preserved" 1 v

let dce_keeps_side_effects () =
  let p =
    single ~n_regs:4
      [
        Ir.Frame (0, 0);
        Ir.Store (0, 0, Ir.Imm 5) (* store kept although nothing reads it *);
        Ir.Malloc (1, Ir.Imm 64) (* kept: allocation is observable *);
        Ir.Ret (Ir.Imm 0);
      ]
  in
  let q = O.dce p in
  check_int "nothing removed" 4 (List.length (instrs_of q))

(* ------------------------------------------------------------------ *)
(* CSE                                                                 *)
(* ------------------------------------------------------------------ *)

let cse_removes_duplicate () =
  let p =
    single ~n_regs:6
      [
        Ir.Mov (0, Ir.Imm 6);
        Ir.Mov (1, Ir.Imm 7);
        Ir.Bin (Ir.Mul, 2, Ir.Reg 0, Ir.Reg 1);
        Ir.Bin (Ir.Mul, 3, Ir.Reg 0, Ir.Reg 1) (* duplicate *);
        Ir.Bin (Ir.Add, 4, Ir.Reg 2, Ir.Reg 3);
        Ir.Ret (Ir.Reg 4);
      ]
  in
  let q = O.cse_local p in
  (match List.nth (instrs_of q) 3 with
  | Ir.Mov (3, Ir.Reg 2) -> ()
  | _ -> Alcotest.fail "duplicate not replaced by move");
  let v, _, _ = run_plain q [] in
  check_int "value preserved" 84 v

(* x*y computed, then x changes: the second x*y must NOT be reused. *)
let cse_redefinition_program () =
  single ~n_regs:6
    [
      Ir.Mov (0, Ir.Imm 2);
      Ir.Mov (1, Ir.Imm 3);
      Ir.Bin (Ir.Mul, 2, Ir.Reg 0, Ir.Reg 1);
      Ir.Mov (0, Ir.Imm 10) (* redefinition *);
      Ir.Bin (Ir.Mul, 3, Ir.Reg 0, Ir.Reg 1);
      Ir.Bin (Ir.Add, 4, Ir.Reg 2, Ir.Reg 3);
      Ir.Ret (Ir.Reg 4);
    ]

let cse_respects_redefinition () =
  let q = O.cse_local (cse_redefinition_program ()) in
  (match List.nth (instrs_of q) 4 with
  | Ir.Bin (Ir.Mul, 3, Ir.Reg 0, Ir.Reg 1) -> ()
  | Ir.Mov _ -> Alcotest.fail "unsound reuse after redefinition"
  | _ -> Alcotest.fail "unexpected rewrite");
  let v, _, _ = run_plain q [] in
  check_int "6 + 30" 36 v

(* acc = acc + 1 twice: the second is NOT redundant. *)
let cse_self_referential_program () =
  single ~n_regs:2
    [
      Ir.Mov (0, Ir.Imm 5);
      Ir.Bin (Ir.Add, 0, Ir.Reg 0, Ir.Imm 1);
      Ir.Bin (Ir.Add, 0, Ir.Reg 0, Ir.Imm 1);
      Ir.Ret (Ir.Reg 0);
    ]

let cse_self_referential_key () =
  let q = O.cse_local (cse_self_referential_program ()) in
  let v, _, _ = run_plain q [] in
  check_int "both increments kept" 7 v

let cse_store_program () =
  single ~n_regs:6
    [
      Ir.Frame (0, 0);
      Ir.Store (0, 0, Ir.Imm 1);
      Ir.Load (1, 0, 0);
      Ir.Store (0, 0, Ir.Imm 2) (* clobbers *);
      Ir.Load (2, 0, 0) (* must reload *);
      Ir.Bin (Ir.Add, 3, Ir.Reg 1, Ir.Reg 2);
      Ir.Ret (Ir.Reg 3);
    ]

let cse_load_invalidated_by_store () =
  let q = O.cse_local (cse_store_program ()) in
  let v, _, _ = run_plain q [] in
  check_int "1 + 2" 3 v

(* x*y is held in r2, then r2 is overwritten: the second x*y must NOT
   become a copy of r2. *)
let cse_holder_program () =
  single ~n_regs:5
    [
      Ir.Mov (0, Ir.Imm 6);
      Ir.Mov (1, Ir.Imm 7);
      Ir.Bin (Ir.Mul, 2, Ir.Reg 0, Ir.Reg 1);
      Ir.Mov (2, Ir.Imm 1) (* the holder redefined *);
      Ir.Bin (Ir.Mul, 3, Ir.Reg 0, Ir.Reg 1);
      Ir.Bin (Ir.Add, 4, Ir.Reg 2, Ir.Reg 3);
      Ir.Ret (Ir.Reg 4);
    ]

let cse_respects_holder_redefinition () =
  let q = O.cse_local (cse_holder_program ()) in
  (match List.nth (instrs_of q) 4 with
  | Ir.Bin (Ir.Mul, 3, Ir.Reg 0, Ir.Reg 1) -> ()
  | _ -> Alcotest.fail "reused a register that no longer holds the value");
  let v, _, _ = run_plain q [] in
  check_int "1 + 42" 43 v

let cse_reuses_repeated_load () =
  let p =
    single ~n_regs:6
      [
        Ir.Frame (0, 0);
        Ir.Store (0, 0, Ir.Imm 9);
        Ir.Load (1, 0, 0);
        Ir.Load (2, 0, 0) (* redundant *);
        Ir.Bin (Ir.Add, 3, Ir.Reg 1, Ir.Reg 2);
        Ir.Ret (Ir.Reg 3);
      ]
  in
  let q = O.cse_local p in
  (match List.nth (instrs_of q) 3 with
  | Ir.Mov (2, Ir.Reg 1) -> ()
  | _ -> Alcotest.fail "redundant load kept");
  let v, _, _ = run_plain q [] in
  check_int "value" 18 v

(* ------------------------------------------------------------------ *)
(* Inlining                                                            *)
(* ------------------------------------------------------------------ *)

let call_program () =
  let callee =
    let b = B.func ~fid:1 ~name:"leaf" ~n_args:2 ~frame_size:32 () in
    let r = B.fresh_reg b in
    B.emit b (Ir.Bin (Ir.Mul, r, Ir.Reg 0, Ir.Reg 1));
    let s = B.fresh_reg b in
    B.emit b (Ir.Frame (s, 0));
    B.emit b (Ir.Store (s, 0, Ir.Reg r));
    let out = B.fresh_reg b in
    B.emit b (Ir.Load (out, s, 0));
    B.emit b (Ir.Ret (Ir.Reg out));
    B.finish b
  in
  let main =
    let b = B.func ~fid:0 ~name:"main" ~n_args:0 ~frame_size:48 () in
    let r1 = B.fresh_reg b in
    let r2 = B.fresh_reg b in
    B.emit b (Ir.Call { fn = 1; args = [ Ir.Imm 6; Ir.Imm 7 ]; dst = r1 });
    B.emit b (Ir.Call { fn = 1; args = [ Ir.Imm 2; Ir.Imm 3 ]; dst = r2 });
    let out = B.fresh_reg b in
    B.emit b (Ir.Bin (Ir.Add, out, Ir.Reg r1, Ir.Reg r2));
    B.emit b (Ir.Ret (Ir.Reg out));
    B.finish b
  in
  B.program ~funcs:[ main; callee ] ~globals:[] ~entry:0

let inline_replaces_calls () =
  let p = call_program () in
  let q = O.inline_leaves p in
  let calls =
    Array.fold_left
      (fun acc blk ->
        acc
        + Array.fold_left
            (fun a i -> match i with Ir.Call _ -> a + 1 | _ -> a)
            0 blk.Ir.instrs)
      0 q.Ir.funcs.(0).Ir.blocks
  in
  check_int "no calls remain in main" 0 calls;
  V.check_exn q;
  let v, _, _ = run_plain q [] in
  check_int "semantics preserved" 48 v

let inline_grows_frame () =
  let p = call_program () in
  let q = O.inline_leaves p in
  check_int "frame absorbs callee" (48 + 32) q.Ir.funcs.(0).Ir.frame_size

let inline_respects_threshold () =
  let p = call_program () in
  let q = O.inline_leaves ~threshold:2 p in
  let calls =
    Array.fold_left
      (fun acc blk ->
        acc
        + Array.fold_left
            (fun a i -> match i with Ir.Call _ -> a + 1 | _ -> a)
            0 blk.Ir.instrs)
      0 q.Ir.funcs.(0).Ir.blocks
  in
  check_int "too big to inline" 2 calls

(* Functions are expanded in fid order: f2 calls the leaf f1, so it is
   not a leaf when main (f0) is expanded, but once its own call is
   inlined it is one, and f3, expanded after it, inlines it. *)
let expanded_callee_program () =
  let leaf =
    let b = B.func ~fid:1 ~name:"leaf" ~n_args:1 () in
    let r = B.fresh_reg b in
    B.emit b (Ir.Bin (Ir.Add, r, Ir.Reg 0, Ir.Imm 1));
    B.emit b (Ir.Ret (Ir.Reg r));
    B.finish b
  in
  let caller fid ~callee =
    let b = B.func ~fid ~name:(Printf.sprintf "f%d" fid) ~n_args:1 () in
    let r = B.fresh_reg b in
    B.emit b (Ir.Call { fn = callee; args = [ Ir.Reg 0 ]; dst = r });
    B.emit b (Ir.Ret (Ir.Reg r));
    B.finish b
  in
  let main =
    let b = B.func ~fid:0 ~name:"main" ~n_args:0 () in
    let r2 = B.fresh_reg b and r3 = B.fresh_reg b and out = B.fresh_reg b in
    B.emit b (Ir.Call { fn = 2; args = [ Ir.Imm 10 ]; dst = r2 });
    B.emit b (Ir.Call { fn = 3; args = [ Ir.Imm 20 ]; dst = r3 });
    B.emit b (Ir.Bin (Ir.Add, out, Ir.Reg r2, Ir.Reg r3));
    B.emit b (Ir.Ret (Ir.Reg out));
    B.finish b
  in
  B.program ~funcs:[ main; leaf; caller 2 ~callee:1; caller 3 ~callee:2 ] ~globals:[] ~entry:0

let inline_expanded_callee () =
  let p = expanded_callee_program () in
  let q = O.inline_leaves p in
  let calls fid =
    Array.fold_left
      (fun acc blk ->
        acc + Array.fold_left (fun a i -> match i with Ir.Call _ -> a + 1 | _ -> a) 0 blk.Ir.instrs)
      0 q.Ir.funcs.(fid).Ir.blocks
  in
  check_int "main keeps its calls: f2 and f3 were not leaves yet" 2 (calls 0);
  check_int "f2 inlined the leaf" 0 (calls 2);
  check_int "f3 inlined the expanded f2" 0 (calls 3);
  let v, _, _ = run_plain q [] in
  check_int "semantics preserved" 32 v

let inline_skips_multiblock () =
  (* A callee with a branch is not inlined. *)
  let callee =
    let b = B.func ~fid:1 ~name:"branchy" ~n_args:1 () in
    let t = B.new_block b in
    let e = B.new_block b in
    B.emit b (Ir.Brc (Ir.Reg 0, t, e));
    B.set_block b t;
    B.emit b (Ir.Ret (Ir.Imm 1));
    B.set_block b e;
    B.emit b (Ir.Ret (Ir.Imm 2));
    B.finish b
  in
  let main =
    let b = B.func ~fid:0 ~name:"main" ~n_args:0 () in
    let r = B.fresh_reg b in
    B.emit b (Ir.Call { fn = 1; args = [ Ir.Imm 1 ]; dst = r });
    B.emit b (Ir.Ret (Ir.Reg r));
    B.finish b
  in
  let p = B.program ~funcs:[ main; callee ] ~globals:[] ~entry:0 in
  let q = O.inline_leaves p in
  (match q.Ir.funcs.(0).Ir.blocks.(0).Ir.instrs.(0) with
  | Ir.Call _ -> ()
  | _ -> Alcotest.fail "multi-block callee was inlined")

(* Three call shapes [Validate] accepts but a real call treats
   differently from a copy of the callee's body: the inliner must leave
   them calls, so O1-O3 return what O0 returns. *)
let leaf_program ~n_args ~n_regs body ~main =
  let leaf =
    {
      Ir.fid = 1;
      fname = "leaf";
      blocks = [| { Ir.instrs = Array.of_list body } |];
      n_args;
      n_regs;
      frame_size = 64;
    }
  in
  B.program ~funcs:[ main; leaf ] ~globals:[] ~entry:0

(* main calls the leaf in a loop of two iterations, summing its
   results. *)
let looping_main ~args =
  let b = B.func ~fid:0 ~name:"main" ~n_args:0 () in
  let i = B.fresh_reg b and acc = B.fresh_reg b and r = B.fresh_reg b in
  let c = B.fresh_reg b in
  let loop = B.new_block b and exit = B.new_block b in
  B.emit b (Ir.Br loop);
  B.set_block b loop;
  B.emit b (Ir.Call { fn = 1; args; dst = r });
  B.emit b (Ir.Bin (Ir.Add, acc, Ir.Reg acc, Ir.Reg r));
  B.emit b (Ir.Bin (Ir.Add, i, Ir.Reg i, Ir.Imm 1));
  B.emit b (Ir.Cmp (Ir.Lt, c, Ir.Reg i, Ir.Imm 2));
  B.emit b (Ir.Brc (Ir.Reg c, loop, exit));
  B.set_block b exit;
  B.emit b (Ir.Ret (Ir.Reg acc));
  B.finish b

let calling_main ~args =
  let b = B.func ~fid:0 ~name:"main" ~n_args:0 () in
  let r = B.fresh_reg b in
  B.emit b (Ir.Call { fn = 1; args; dst = r });
  B.emit b (Ir.Ret (Ir.Reg r));
  B.finish b

let same_as_o0 name p expected =
  V.check_exn p;
  let v0, _, _ = run_plain (O.apply O.O0 p) [] in
  check_int (name ^ ": O0") expected v0;
  List.iter
    (fun level ->
      let v, _, _ = run_plain (O.apply level p) [] in
      check_int (name ^ ": " ^ O.level_to_string level) v0 v)
    [ O.O1; O.O2; O.O3 ]

let inline_keeps_fresh_registers () =
  (* r1 accumulates into a register the call starts at zero: 5 per
     call, where an inlined copy would carry r1 over to the next
     iteration. *)
  same_as_o0 "read before write in a loop"
    (leaf_program ~n_args:1 ~n_regs:2
       [ Ir.Bin (Ir.Add, 1, Ir.Reg 1, Ir.Reg 0); Ir.Ret (Ir.Reg 1) ]
       ~main:(looping_main ~args:[ Ir.Imm 5 ]))
    10

let inline_drops_extra_arguments () =
  (* The second argument lands in r1 of an inlined copy; a call drops
     it and r1 reads zero. *)
  same_as_o0 "extra argument within n_regs"
    (leaf_program ~n_args:1 ~n_regs:2
       [ Ir.Bin (Ir.Add, 1, Ir.Reg 0, Ir.Reg 1); Ir.Ret (Ir.Reg 1) ]
       ~main:(calling_main ~args:[ Ir.Imm 5; Ir.Imm 7 ]))
    5

let inline_rejects_arguments_past_n_regs () =
  (* Inlined, the extra arguments would move into registers past the
     caller's n_regs. *)
  same_as_o0 "extra arguments past n_regs"
    (leaf_program ~n_args:1 ~n_regs:1 [ Ir.Ret (Ir.Reg 0) ]
       ~main:(calling_main ~args:[ Ir.Imm 5; Ir.Imm 7; Ir.Imm 9 ]))
    5;
  (* The same with a callee that declares more arguments than it has
     registers: the call traps when it runs, and the optimizer must
     keep it a call rather than raise. *)
  let p =
    leaf_program ~n_args:3 ~n_regs:1 [ Ir.Ret (Ir.Reg 0) ]
      ~main:(calling_main ~args:[ Ir.Imm 5; Ir.Imm 7; Ir.Imm 9 ])
  in
  V.check_exn p;
  List.iter
    (fun level ->
      let q = O.apply level p in
      check_bool
        ("n_args past n_regs: call kept at " ^ O.level_to_string level)
        true
        (Array.exists
           (function Ir.Call _ -> true | _ -> false)
           q.Ir.funcs.(0).Ir.blocks.(0).Ir.instrs))
    [ O.O1; O.O2; O.O3 ]

(* ------------------------------------------------------------------ *)
(* strip_dead                                                          *)
(* ------------------------------------------------------------------ *)

let strip_dead_program () =
  let mk_ret fid value refs_global =
    let b = B.func ~fid ~name:(Printf.sprintf "f%d" fid) ~n_args:0 () in
    if refs_global >= 0 then begin
      let r = B.fresh_reg b in
      B.emit b (Ir.Global (r, refs_global))
    end;
    B.emit b (Ir.Ret (Ir.Imm value));
    B.finish b
  in
  let main =
    let b = B.func ~fid:0 ~name:"main" ~n_args:0 () in
    let r = B.fresh_reg b in
    B.emit b (Ir.Call { fn = 2; args = []; dst = r });
    B.emit b (Ir.Ret (Ir.Reg r));
    B.finish b
  in
  let globals =
    [
      { Ir.gid = 0; gname = "dead_g"; gsize = 64 };
      { Ir.gid = 1; gname = "live_g"; gsize = 64 };
    ]
  in
  (* f1 is dead (references dead_g), f2 is live (references live_g). *)
  B.program ~funcs:[ main; mk_ret 1 11 0; mk_ret 2 22 1 ] ~globals ~entry:0

let strip_dead_removes () =
  let p = strip_dead_program () in
  let q = O.strip_dead p in
  check_int "one function stripped" 2 (Array.length q.Ir.funcs);
  check_int "one global stripped" 1 (Array.length q.Ir.globals);
  V.check_exn q;
  let v, _, _ = run_plain q [] in
  check_int "semantics preserved" 22 v

let strip_dead_renumbers () =
  let q = O.strip_dead (strip_dead_program ()) in
  Array.iteri (fun i f -> check_int "dense fid" i f.Ir.fid) q.Ir.funcs;
  Array.iteri (fun i (g : Ir.global) -> check_int "dense gid" i g.Ir.gid) q.Ir.globals

(* ------------------------------------------------------------------ *)
(* The optimizer against its old self                                  *)
(* ------------------------------------------------------------------ *)

(* The passes as they were before they rewrote programs in place: every
   pass copies the whole program, [const_fold] keeps a [Hashtbl] per
   block, [cse_local] scans its whole table on every definition, store
   and call, [dce] re-scans the function until nothing changes, and
   [inline_leaves] re-derives each callee's inlinability at every call
   site. Kept verbatim as the reference [Opt] must equal. *)
module Ref_opt = struct
  module Interp = Stz_vm.Interp
  module Validate = Stz_vm.Validate

  let map_funcs f p =
    let p = Ir.copy_program p in
    p.Ir.funcs <- Array.map f p.Ir.funcs;
    p

  (* ------------------------------------------------------------------ *)
  (* Constant folding                                                    *)
  (* ------------------------------------------------------------------ *)

  let fold_block blk =
    let known : (Ir.reg, int) Hashtbl.t = Hashtbl.create 16 in
    let subst = function
      | Ir.Reg r as op ->
          (match Hashtbl.find_opt known r with Some v -> Ir.Imm v | None -> op)
      | Ir.Imm _ as op -> op
    in
    let define d value =
      match value with
      | Some v -> Hashtbl.replace known d v
      | None -> Hashtbl.remove known d
    in
    let fold_instr instr =
      match instr with
      | Ir.Bin (op, d, a, b) -> (
          let a = subst a and b = subst b in
          match (a, b) with
          | Ir.Imm x, Ir.Imm y ->
              let v = Interp.eval_binop op x y in
              define d (Some v);
              Ir.Mov (d, Ir.Imm v)
          | _ ->
              define d None;
              Ir.Bin (op, d, a, b))
      | Ir.Cmp (op, d, a, b) -> (
          let a = subst a and b = subst b in
          match (a, b) with
          | Ir.Imm x, Ir.Imm y ->
              let v = Interp.eval_cmp op x y in
              define d (Some v);
              Ir.Mov (d, Ir.Imm v)
          | _ ->
              define d None;
              Ir.Cmp (op, d, a, b))
      | Ir.Mov (d, a) -> (
          let a = subst a in
          (match a with
          | Ir.Imm v -> define d (Some v)
          | Ir.Reg _ -> define d None);
          Ir.Mov (d, a))
      | Ir.Load (d, b, o) ->
          define d None;
          Ir.Load (d, b, o)
      | Ir.Store (b, o, v) -> Ir.Store (b, o, subst v)
      | Ir.Frame (d, o) ->
          define d None;
          Ir.Frame (d, o)
      | Ir.Global (d, g) ->
          define d None;
          Ir.Global (d, g)
      | Ir.Malloc (d, s) ->
          define d None;
          Ir.Malloc (d, subst s)
      | Ir.Free r -> Ir.Free r
      | Ir.Call { fn; args; dst } ->
          let args = List.map subst args in
          define dst None;
          Ir.Call { fn; args; dst }
      | Ir.Ret v -> Ir.Ret (subst v)
      | Ir.Br b -> Ir.Br b
      | Ir.Brc (c, t, e) -> (
          match subst c with
          | Ir.Imm v -> Ir.Br (if v <> 0 then t else e)
          | Ir.Reg _ as c -> Ir.Brc (c, t, e))
    in
    blk.Ir.instrs <- Array.map fold_instr blk.Ir.instrs

  let const_fold p =
    map_funcs
      (fun f ->
        Array.iter fold_block f.Ir.blocks;
        f)
      p

  (* ------------------------------------------------------------------ *)
  (* Algebraic simplification                                            *)
  (* ------------------------------------------------------------------ *)

  type planted = O.planted = Shift_clamp

  let planted_bug = O.planted_bug

  let simplify_instr instr =
    match instr with
    (* Test hook for the fuzzer's acceptance gauntlet: with Shift_clamp
       planted, shift-by-1 is "simplified" to a move — the observable
       symptom of the old [land 62] clamp, now expressed as a
       miscompile the differential oracles must catch. Listed before the
       legitimate identities so it wins the match when armed. *)
    | Ir.Bin ((Ir.Shl | Ir.Shr), d, x, Ir.Imm 1) when !planted_bug = Some Shift_clamp
      ->
        Ir.Mov (d, x)
    | Ir.Bin (op, d, a, b) -> (
        match (op, a, b) with
        | Ir.Add, x, Ir.Imm 0 | Ir.Add, Ir.Imm 0, x -> Ir.Mov (d, x)
        | Ir.Sub, x, Ir.Imm 0 -> Ir.Mov (d, x)
        | Ir.Mul, x, Ir.Imm 1 | Ir.Mul, Ir.Imm 1, x -> Ir.Mov (d, x)
        | Ir.Mul, _, Ir.Imm 0 | Ir.Mul, Ir.Imm 0, _ -> Ir.Mov (d, Ir.Imm 0)
        | Ir.Div, x, Ir.Imm 1 -> Ir.Mov (d, x)
        | Ir.And, _, Ir.Imm 0 | Ir.And, Ir.Imm 0, _ -> Ir.Mov (d, Ir.Imm 0)
        | Ir.Or, x, Ir.Imm 0 | Ir.Or, Ir.Imm 0, x -> Ir.Mov (d, x)
        | Ir.Xor, x, Ir.Imm 0 | Ir.Xor, Ir.Imm 0, x -> Ir.Mov (d, x)
        | (Ir.Shl | Ir.Shr), x, Ir.Imm 0 -> Ir.Mov (d, x)
        | _ -> instr)
    | _ -> instr

  let simplify p =
    map_funcs
      (fun f ->
        Array.iter
          (fun blk -> blk.Ir.instrs <- Array.map simplify_instr blk.Ir.instrs)
          f.Ir.blocks;
        f)
      p

  (* ------------------------------------------------------------------ *)
  (* Dead code elimination                                               *)
  (* ------------------------------------------------------------------ *)

  let reads_of instr =
    let of_operand = function Ir.Reg r -> [ r ] | Ir.Imm _ -> [] in
    match instr with
    | Ir.Bin (_, _, a, b) | Ir.Cmp (_, _, a, b) -> of_operand a @ of_operand b
    | Ir.Mov (_, a) -> of_operand a
    | Ir.Load (_, b, _) -> [ b ]
    | Ir.Store (b, _, v) -> b :: of_operand v
    | Ir.Frame _ | Ir.Global _ -> []
    | Ir.Malloc (_, s) -> of_operand s
    | Ir.Free r -> [ r ]
    | Ir.Call { args; _ } -> List.concat_map of_operand args
    | Ir.Ret v -> of_operand v
    | Ir.Br _ -> []
    | Ir.Brc (c, _, _) -> of_operand c

  (* The destination of a pure (removable-when-dead) instruction. Calls,
     stores, frees and terminators are never removed. Loads are pure:
     removing a dead load preserves values (it only changes timing, which
     is what optimization is supposed to do). *)
  let pure_dst = function
    | Ir.Bin (_, d, _, _)
    | Ir.Cmp (_, d, _, _)
    | Ir.Mov (d, _)
    | Ir.Load (d, _, _)
    | Ir.Frame (d, _)
    | Ir.Global (d, _) ->
        Some d
    | Ir.Store _ | Ir.Malloc _ | Ir.Free _ | Ir.Call _ | Ir.Ret _ | Ir.Br _
    | Ir.Brc _ ->
        None

  let dce_func f =
    let changed = ref true in
    while !changed do
      changed := false;
      let used = Array.make (Stdlib.max 1 f.Ir.n_regs) false in
      (* Arguments are observable at entry but only matter if read;
         reads are what we collect. *)
      Array.iter
        (fun blk ->
          Array.iter
            (fun i -> List.iter (fun r -> used.(r) <- true) (reads_of i))
            blk.Ir.instrs)
        f.Ir.blocks;
      Array.iter
        (fun blk ->
          let keep =
            Array.to_list blk.Ir.instrs
            |> List.filter (fun i ->
                   match pure_dst i with
                   | Some d when not used.(d) ->
                       changed := true;
                       false
                   | Some _ | None -> true)
          in
          blk.Ir.instrs <- Array.of_list keep)
        f.Ir.blocks
    done;
    f

  let dce p = map_funcs dce_func p

  (* ------------------------------------------------------------------ *)
  (* Local common subexpression elimination                              *)
  (* ------------------------------------------------------------------ *)

  type expr_key =
    | Kbin of Ir.binop * Ir.operand * Ir.operand
    | Kcmp of Ir.cmp * Ir.operand * Ir.operand
    | Kframe of int
    | Kglobal of int
    | Kload of Ir.reg * int

  let key_mentions r = function
    | Kbin (_, a, b) | Kcmp (_, a, b) -> a = Ir.Reg r || b = Ir.Reg r
    | Kload (base, _) -> base = r
    | Kframe _ | Kglobal _ -> false

  let cse_block blk =
    let avail : (expr_key, Ir.reg) Hashtbl.t = Hashtbl.create 16 in
    let invalidate_reg r =
      let dead =
        Hashtbl.fold
          (fun k holder acc ->
            if holder = r || key_mentions r k then k :: acc else acc)
          avail []
      in
      List.iter (Hashtbl.remove avail) dead
    in
    let invalidate_loads () =
      let dead =
        Hashtbl.fold
          (fun k _ acc -> match k with Kload _ -> k :: acc | _ -> acc)
          avail []
      in
      List.iter (Hashtbl.remove avail) dead
    in
    let rewrite instr =
      let try_reuse d key mk =
        match Hashtbl.find_opt avail key with
        | Some holder when holder <> d ->
            invalidate_reg d;
            Ir.Mov (d, Ir.Reg holder)
        | Some _ | None ->
            invalidate_reg d;
            (* A key mentioning its own destination refers to the value d
               held *before* this instruction; it must not be recorded. *)
            if not (key_mentions d key) then Hashtbl.replace avail key d;
            mk ()
      in
      match instr with
      | Ir.Bin (op, d, a, b) ->
          try_reuse d (Kbin (op, a, b)) (fun () -> Ir.Bin (op, d, a, b))
      | Ir.Cmp (op, d, a, b) ->
          try_reuse d (Kcmp (op, a, b)) (fun () -> Ir.Cmp (op, d, a, b))
      | Ir.Frame (d, o) -> try_reuse d (Kframe o) (fun () -> Ir.Frame (d, o))
      | Ir.Global (d, g) -> try_reuse d (Kglobal g) (fun () -> Ir.Global (d, g))
      | Ir.Load (d, b, o) -> try_reuse d (Kload (b, o)) (fun () -> Ir.Load (d, b, o))
      | Ir.Mov (d, a) ->
          invalidate_reg d;
          Ir.Mov (d, a)
      | Ir.Store (b, o, v) ->
          invalidate_loads ();
          Ir.Store (b, o, v)
      | Ir.Malloc (d, s) ->
          invalidate_reg d;
          invalidate_loads ();
          Ir.Malloc (d, s)
      | Ir.Free r ->
          invalidate_loads ();
          Ir.Free r
      | Ir.Call { fn; args; dst } ->
          invalidate_reg dst;
          invalidate_loads ();
          Ir.Call { fn; args; dst }
      | Ir.Ret _ | Ir.Br _ | Ir.Brc _ -> instr
    in
    blk.Ir.instrs <- Array.map rewrite blk.Ir.instrs

  let cse_local p =
    map_funcs
      (fun f ->
        Array.iter cse_block f.Ir.blocks;
        f)
      p

  (* ------------------------------------------------------------------ *)
  (* Inlining                                                            *)
  (* ------------------------------------------------------------------ *)

  let default_inline_threshold = 16

  (* A call gives its callee fresh zeroed registers past its arguments;
     an inlined body must not read one of them before writing it. *)
  let writes_before_reading g =
    let rec go written = function
      | [] -> true
      | instr :: rest ->
          List.for_all
            (fun r -> r < g.Ir.n_args || List.mem r written)
            (reads_of instr)
          &&
          let written =
            match instr with
            | Ir.Malloc (d, _) -> d :: written
            | _ -> Option.to_list (pure_dst instr) @ written
          in
          go written rest
    in
    go [] (Array.to_list g.Ir.blocks.(0).Ir.instrs)

  let inlinable p fid threshold =
    let g = p.Ir.funcs.(fid) in
    fid <> p.Ir.entry
    && Array.length g.Ir.blocks = 1
    && Ir.callees g = []
    && Ir.func_instr_count g <= threshold
    && g.Ir.n_args <= g.Ir.n_regs
    && writes_before_reading g

  let inline_leaves ?(threshold = default_inline_threshold) p =
    let p = Ir.copy_program p in
    let funcs =
      Array.map
        (fun f ->
          let extra_frame = ref 0 in
          let next_reg = ref f.Ir.n_regs in
          let expand instr =
            match instr with
            | Ir.Call { fn; args; dst }
              when List.length args = p.Ir.funcs.(fn).Ir.n_args
                   && inlinable p fn threshold ->
                let g = p.Ir.funcs.(fn) in
                let reg_base = !next_reg in
                next_reg := !next_reg + g.Ir.n_regs;
                extra_frame := Stdlib.max !extra_frame g.Ir.frame_size;
                let map_reg r = reg_base + r in
                let map_operand = function
                  | Ir.Reg r -> Ir.Reg (map_reg r)
                  | Ir.Imm _ as o -> o
                in
                let arg_moves =
                  List.mapi (fun i a -> Ir.Mov (map_reg i, a)) args
                in
                let body =
                  Array.to_list g.Ir.blocks.(0).Ir.instrs
                  |> List.map (fun gi ->
                         match gi with
                         | Ir.Bin (op, d, a, b) ->
                             Ir.Bin (op, map_reg d, map_operand a, map_operand b)
                         | Ir.Cmp (op, d, a, b) ->
                             Ir.Cmp (op, map_reg d, map_operand a, map_operand b)
                         | Ir.Mov (d, a) -> Ir.Mov (map_reg d, map_operand a)
                         | Ir.Load (d, b, o) -> Ir.Load (map_reg d, map_reg b, o)
                         | Ir.Store (b, o, v) ->
                             Ir.Store (map_reg b, o, map_operand v)
                         | Ir.Frame (d, o) ->
                             (* Callee frame slots live beyond the caller's
                                own frame region. *)
                             Ir.Frame (map_reg d, o + f.Ir.frame_size)
                         | Ir.Global (d, g) -> Ir.Global (map_reg d, g)
                         | Ir.Malloc (d, s) -> Ir.Malloc (map_reg d, map_operand s)
                         | Ir.Free r -> Ir.Free (map_reg r)
                         | Ir.Ret v -> Ir.Mov (dst, map_operand v)
                         | Ir.Call _ | Ir.Br _ | Ir.Brc _ ->
                             (* Excluded by [inlinable]. *)
                             assert false)
                in
                arg_moves @ body
            | other -> [ other ]
          in
          Array.iter
            (fun blk ->
              blk.Ir.instrs <-
                Array.of_list (List.concat_map expand (Array.to_list blk.Ir.instrs)))
            f.Ir.blocks;
          f.Ir.n_regs <- !next_reg;
          { f with Ir.frame_size = f.Ir.frame_size + !extra_frame })
        p.Ir.funcs
    in
    p.Ir.funcs <- funcs;
    p

  (* ------------------------------------------------------------------ *)
  (* Dead global / function elimination                                  *)
  (* ------------------------------------------------------------------ *)

  let strip_dead p =
    let p = Ir.copy_program p in
    let n = Array.length p.Ir.funcs in
    let reachable = Array.make n false in
    let rec visit fid =
      if not reachable.(fid) then begin
        reachable.(fid) <- true;
        List.iter visit (Ir.callees p.Ir.funcs.(fid))
      end
    in
    visit p.Ir.entry;
    let fid_map = Array.make n (-1) in
    let next = ref 0 in
    for fid = 0 to n - 1 do
      if reachable.(fid) then begin
        fid_map.(fid) <- !next;
        incr next
      end
    done;
    let live_globals = Hashtbl.create 16 in
    Array.iteri
      (fun fid f ->
        if reachable.(fid) then
          List.iter (fun g -> Hashtbl.replace live_globals g ()) (Ir.referenced_globals f))
      p.Ir.funcs;
    let gn = Array.length p.Ir.globals in
    let gid_map = Array.make gn (-1) in
    let gnext = ref 0 in
    for gid = 0 to gn - 1 do
      if Hashtbl.mem live_globals gid then begin
        gid_map.(gid) <- !gnext;
        incr gnext
      end
    done;
    let remap_instr = function
      | Ir.Call { fn; args; dst } -> Ir.Call { fn = fid_map.(fn); args; dst }
      | Ir.Global (d, g) -> Ir.Global (d, gid_map.(g))
      | other -> other
    in
    let funcs =
      Array.to_list p.Ir.funcs
      |> List.filteri (fun fid _ -> reachable.(fid))
      |> List.map (fun f ->
             Array.iter
               (fun blk -> blk.Ir.instrs <- Array.map remap_instr blk.Ir.instrs)
               f.Ir.blocks;
             { f with Ir.fid = fid_map.(f.Ir.fid) })
      |> Array.of_list
    in
    let globals =
      Array.to_list p.Ir.globals
      |> List.filteri (fun gid _ -> Hashtbl.mem live_globals gid)
      |> List.map (fun g -> { g with Ir.gid = gid_map.(g.Ir.gid) })
      |> Array.of_list
    in
    { Ir.funcs; globals; entry = fid_map.(p.Ir.entry) }
end

let outcome f = match f () with q -> Ok q | exception e -> Error (Printexc.to_string e)

(* Random valid programs over few registers, so that registers are
   redefined within a block and expressions recur: what the generators
   rarely produce. Single-block functions end in a return and are
   inlinable when small and call-free; other blocks end in any
   terminator. Only the optimizer sees them, so they need not run. *)
let random_program rng =
  let int n = Random.State.int rng n in
  let n_funcs = 1 + int 5 and n_globals = int 3 in
  let func fid =
    let n_regs = 1 + int 6 and frame_size = 16 * (1 + int 4) in
    let n_blocks = if int 2 = 0 then 1 else 1 + int 4 in
    let reg () = int n_regs in
    let operand () = if int 3 = 0 then Ir.Imm (int 5 - 1) else Ir.Reg (reg ()) in
    let body () =
      match int (if n_globals > 0 then 12 else 11) with
      | 0 | 1 | 2 ->
          let op = [| Ir.Add; Ir.Sub; Ir.Mul; Ir.Div; Ir.And; Ir.Or; Ir.Xor; Ir.Shl; Ir.Shr |] in
          Ir.Bin (op.(int 9), reg (), operand (), operand ())
      | 3 ->
          let op = [| Ir.Eq; Ir.Ne; Ir.Lt; Ir.Le; Ir.Gt; Ir.Ge |] in
          Ir.Cmp (op.(int 6), reg (), operand (), operand ())
      | 4 -> Ir.Mov (reg (), operand ())
      | 5 -> Ir.Load (reg (), reg (), 8 * int 3)
      | 6 -> Ir.Store (reg (), 8 * int 3, operand ())
      | 7 -> Ir.Frame (reg (), 8 * int (frame_size / 8))
      | 8 -> Ir.Malloc (reg (), operand ())
      | 9 -> if int 2 = 0 then Ir.Free (reg ()) else Ir.Mov (reg (), operand ())
      | 10 -> Ir.Call { fn = int n_funcs; args = List.init (int 3) (fun _ -> operand ()); dst = reg () }
      | _ -> Ir.Global (reg (), int n_globals)
    in
    let terminator () =
      if n_blocks = 1 then Ir.Ret (operand ())
      else
        match int 3 with
        | 0 -> Ir.Ret (operand ())
        | 1 -> Ir.Br (int n_blocks)
        | _ -> Ir.Brc (operand (), int n_blocks, int n_blocks)
    in
    let blocks =
      Array.init n_blocks (fun _ ->
          { Ir.instrs = Array.of_list (List.init (int 14) (fun _ -> body ()) @ [ terminator () ]) })
    in
    { Ir.fid; fname = Printf.sprintf "f%d" fid; blocks; n_args = int (n_regs + 1); n_regs; frame_size }
  in
  let p =
    {
      Ir.funcs = Array.init n_funcs func;
      globals = Array.init n_globals (fun gid -> { Ir.gid; gname = Printf.sprintf "g%d" gid; gsize = 64 });
      entry = int n_funcs;
    }
  in
  V.check_exn p;
  p

(* The inputs: fuzz plans of three seeds, the 18 SPEC clones at scale
   0.05, random programs and the hand-built CSE and inlining edge
   programs. *)
let reference_inputs () =
  let fuzz =
    List.concat_map
      (fun fuzz_seed ->
        List.init 24 (fun index ->
            let plan = Stz_workloads.Fuzz.plan ~fuzz_seed ~index in
            (Printf.sprintf "fuzz %Ld/%d" fuzz_seed index, Stz_workloads.Fuzz.build plan)))
      [ 1L; 2L; 3L ]
  in
  let spec =
    List.map
      (fun (prof : Stz_workloads.Profile.t) ->
        ( prof.Stz_workloads.Profile.name,
          Stz_workloads.Generate.program (Stz_workloads.Profile.scale 0.05 prof) ))
      Stz_workloads.Spec.all
  in
  let rng = Random.State.make [| 22 |] in
  let random = List.init 300 (fun i -> (Printf.sprintf "random %d" i, random_program rng)) in
  fuzz @ spec @ random
  @ [
      ("cse self-referential", cse_self_referential_program ());
      ("cse store", cse_store_program ());
      ("cse redefinition", cse_redefinition_program ());
      ("cse holder redefinition", cse_holder_program ());
      ("inline expanded callee", expanded_callee_program ());
    ]

let reference_passes =
  [
    ("const_fold", O.const_fold, Ref_opt.const_fold);
    ("simplify", O.simplify, Ref_opt.simplify);
    ("dce", O.dce, Ref_opt.dce);
    ("cse_local", O.cse_local, Ref_opt.cse_local);
    ("inline_leaves", (fun p -> O.inline_leaves p), fun p -> Ref_opt.inline_leaves p);
    ("inline_leaves 10", O.inline_leaves ~threshold:10, Ref_opt.inline_leaves ~threshold:10);
    ("inline_leaves 120", O.inline_leaves ~threshold:120, Ref_opt.inline_leaves ~threshold:120);
    ("strip_dead", O.strip_dead, Ref_opt.strip_dead);
  ]

(* The reference pass's outcome, once the new pass gave the same. *)
let same_pass ~where name p =
  let _, fresh, reference = List.find (fun (n, _, _) -> n = name) reference_passes in
  let before = Ir.copy_program p in
  let q = outcome (fun () -> reference p) in
  let q' = outcome (fun () -> fresh p) in
  if q' <> q then
    Alcotest.failf "%s: %s differs from the reference (%s, reference %s)" where name
      (match q' with Ok _ -> "a program" | Error e -> e)
      (match q with Ok _ -> "a program" | Error e -> e);
  if p <> before then Alcotest.failf "%s: %s mutated its input" where name;
  q

(* The O0-O3 pipelines as they were, run on the reference passes with
   every stage's input also fed to the new pass of the same name; then
   [apply] must give the pipeline's validated output. *)
let same_apply ~where level p =
  let stages =
    match level with
    | O.O0 -> []
    | O.O1 ->
        [ "const_fold"; "simplify"; "inline_leaves 10"; "const_fold"; "simplify"; "dce" ]
    | O.O2 ->
        [
          "const_fold"; "simplify"; "inline_leaves 10"; "cse_local"; "const_fold";
          "simplify"; "dce";
        ]
    | O.O3 ->
        [
          "const_fold"; "simplify"; "inline_leaves 120"; "cse_local"; "const_fold";
          "simplify"; "dce"; "strip_dead";
        ]
  in
  let where = where ^ " " ^ O.level_to_string level in
  let reference =
    List.fold_left
      (fun stage name -> Result.bind stage (same_pass ~where name))
      (Ok p) stages
  in
  (* The output must validate: a pass may not leave a register past
     [n_regs] or a frame slot past [frame_size]. *)
  let reference =
    match reference with
    | Ok q -> outcome (fun () -> V.check_exn q; q)
    | Error _ as e -> e
  in
  let before = Ir.copy_program p in
  if outcome (fun () -> O.apply level p) <> reference then
    Alcotest.failf "%s: apply differs from the reference" where;
  if p <> before then Alcotest.failf "%s: apply mutated its input" where

(* Every pass on every input, then [apply] at O0-O3 with each pipeline
   stage checked on the way, compared with [=] on the output program
   (or the exception). *)
let passes_match_reference () =
  List.iter
    (fun (where, p) ->
      List.iter (fun (name, _, _) -> ignore (same_pass ~where name p)) reference_passes;
      List.iter (fun level -> same_apply ~where level p) [ O.O0; O.O1; O.O2; O.O3 ])
    (reference_inputs ())

(* The planted shift clamp is part of [simplify]: armed, the new pass
   still miscompiles exactly as the reference does. *)
let planted_matches_reference () =
  O.planted_bug := Some O.Shift_clamp;
  Fun.protect
    ~finally:(fun () -> O.planted_bug := None)
    (fun () ->
      List.iter
        (fun index ->
          let p = Stz_workloads.Fuzz.build (Stz_workloads.Fuzz.plan ~fuzz_seed:7L ~index) in
          if O.simplify p <> Ref_opt.simplify p then
            Alcotest.failf "fuzz 7/%d: planted simplify differs" index;
          same_apply ~where:(Printf.sprintf "planted fuzz 7/%d" index) O.O3 p)
        (List.init 8 Fun.id))

(* ------------------------------------------------------------------ *)
(* Pipelines on generated workloads                                    *)
(* ------------------------------------------------------------------ *)

let small_profile seed =
  {
    Stz_workloads.Profile.default with
    Stz_workloads.Profile.name = "opt-test";
    functions = 6;
    hot_functions = 3;
    iterations = 4;
    inner_trips = 5;
    dead_functions = 2;
    seed;
  }

let pipelines_preserve_semantics =
  QCheck.Test.make ~name:"O0..O3 compute identical results" ~count:8
    QCheck.(int_bound 1000)
    (fun seed ->
      let p = Stz_workloads.Generate.program (small_profile (Int64.of_int (seed + 1))) in
      let reference, _, _ = run_plain (O.apply O.O0 p) [ 1 ] in
      List.for_all
        (fun level ->
          let v, _, _ = run_plain (O.apply level p) [ 1 ] in
          v = reference)
        [ O.O1; O.O2; O.O3 ])

let pipelines_validate =
  QCheck.Test.make ~name:"optimized programs validate" ~count:8
    QCheck.(int_bound 1000)
    (fun seed ->
      let p = Stz_workloads.Generate.program (small_profile (Int64.of_int (seed + 500))) in
      List.for_all
        (fun level -> V.check_program (O.apply level p) = [])
        [ O.O0; O.O1; O.O2; O.O3 ])

let levels_reduce_work () =
  let p = Stz_workloads.Generate.program (small_profile 7L) in
  let measure level =
    let _, cycles, instrs = run_plain (O.apply level p) [ 1 ] in
    (cycles, instrs)
  in
  let c0, i0 = measure O.O0 in
  let c1, i1 = measure O.O1 in
  let c2, _ = measure O.O2 in
  let c3, _ = measure O.O3 in
  check_bool "O1 executes fewer instructions than O0" true (i1 < i0);
  check_bool "O1 is faster than O0" true (c1 < c0);
  check_bool "O2 is no slower than O1" true (c2 <= c1);
  check_bool "O3 is within noise of O2" true
    (float_of_int c3 < float_of_int c2 *. 1.02)

let o3_strips_dead_functions () =
  let p = Stz_workloads.Generate.program (small_profile 9L) in
  let q = O.apply O.O3 p in
  check_bool "dead functions removed" true
    (Array.length q.Ir.funcs < Array.length p.Ir.funcs)

let level_strings () =
  List.iter
    (fun l ->
      Alcotest.(check (option string))
        "roundtrip"
        (Some (O.level_to_string l))
        (Option.map O.level_to_string (O.level_of_string (O.level_to_string l))))
    [ O.O0; O.O1; O.O2; O.O3 ]

let () =
  Alcotest.run "opt"
    [
      ( "const_fold",
        [
          Alcotest.test_case "collapses chain" `Quick fold_collapses_chain;
          Alcotest.test_case "constant branch" `Quick fold_resolves_constant_branch;
          Alcotest.test_case "block-local only" `Quick fold_does_not_cross_blocks;
        ] );
      ("simplify", [ Alcotest.test_case "identities" `Quick simplify_identities ]);
      ( "dce",
        [
          Alcotest.test_case "removes dead (fixpoint)" `Quick dce_removes_dead;
          Alcotest.test_case "keeps side effects" `Quick dce_keeps_side_effects;
        ] );
      ( "cse",
        [
          Alcotest.test_case "removes duplicate" `Quick cse_removes_duplicate;
          Alcotest.test_case "redefinition safe" `Quick cse_respects_redefinition;
          Alcotest.test_case "holder redefinition safe" `Quick cse_respects_holder_redefinition;
          Alcotest.test_case "self-referential" `Quick cse_self_referential_key;
          Alcotest.test_case "store invalidates load" `Quick cse_load_invalidated_by_store;
          Alcotest.test_case "reuses repeated load" `Quick cse_reuses_repeated_load;
        ] );
      ( "inline",
        [
          Alcotest.test_case "replaces calls" `Quick inline_replaces_calls;
          Alcotest.test_case "grows frame" `Quick inline_grows_frame;
          Alcotest.test_case "threshold" `Quick inline_respects_threshold;
          Alcotest.test_case "skips multi-block" `Quick inline_skips_multiblock;
          Alcotest.test_case "expanded callee" `Quick inline_expanded_callee;
          Alcotest.test_case "fresh callee registers" `Quick
            inline_keeps_fresh_registers;
          Alcotest.test_case "extra arguments dropped" `Quick
            inline_drops_extra_arguments;
          Alcotest.test_case "arguments past n_regs" `Quick
            inline_rejects_arguments_past_n_regs;
        ] );
      ( "strip_dead",
        [
          Alcotest.test_case "removes" `Quick strip_dead_removes;
          Alcotest.test_case "renumbers" `Quick strip_dead_renumbers;
        ] );
      ( "reference",
        [
          Alcotest.test_case "passes match reference" `Quick passes_match_reference;
          Alcotest.test_case "planted bug matches reference" `Quick planted_matches_reference;
        ] );
      ( "pipelines",
        [
          QCheck_alcotest.to_alcotest pipelines_preserve_semantics;
          QCheck_alcotest.to_alcotest pipelines_validate;
          Alcotest.test_case "levels reduce work" `Quick levels_reduce_work;
          Alcotest.test_case "O3 strips dead" `Quick o3_strips_dead_functions;
          Alcotest.test_case "level strings" `Quick level_strings;
        ] );
    ]
