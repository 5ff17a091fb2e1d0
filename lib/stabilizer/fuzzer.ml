(* Differential fuzzing of the VM/optimizer stack. One case = one
   program sampled by Stz_workloads.Fuzz from (fuzz_seed, index),
   pushed through three oracles (pipeline equivalence, layout
   invariance, counter sanity); a failing case is shrunk by greedy
   delta debugging against a predicate that re-checks only the oracle
   that fired. The campaign driver fans cases over the Parallel fork
   pool (crash isolation + watchdog hang-kill) and appends verdicts to
   the Fuzzlog container strictly in index order, so the ledger and
   reproducer bytes are independent of --jobs and resumable after a
   SIGKILL. *)

module Ir = Stz_vm.Ir
module Opt = Stz_vm.Opt
module Validate = Stz_vm.Validate
module Text = Stz_vm.Text
module Interp = Stz_vm.Interp
module F = Stz_workloads.Fuzz
module Fuzzlog = Stz_store.Fuzzlog

type outcome =
  | Clean of { result : int; cycles : int }
  | Trapped of { what : string }
  | Failed of {
      oracle : string;
      detail : string;
      result : int;
      repro_text : string;
      repro_instrs : int;
      shrink_steps : int;
    }

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let program_instrs p =
  Array.fold_left (fun acc f -> acc + Ir.func_instr_count f) 0 p.Ir.funcs

let trap_name = function
  | Interp.Fuel_exhausted -> "fuel-exhausted"
  | Interp.Call_depth_exceeded -> "call-depth-exceeded"
  | e -> Printexc.to_string e

let compile lvl p =
  match Opt.apply lvl p with
  | out -> Ok out
  | exception ((Stack_overflow | Out_of_memory | Assert_failure _) as e) ->
      raise e
  | exception e -> Error (Printexc.to_string e)

(* A run that cannot raise (for non-fatal traps): the Runtime already
   wraps every trap, we just turn it into a value. *)
let run_p ?limits ~config ~seed p ~args =
  match Runtime.run ?limits ~config ~seed p ~args with
  | r -> Ok r
  | exception Runtime.Trap { trap; _ } -> Error trap

(* Oracle (c): the machine model's own invariants. base_cycles is 1
   and every penalty is non-negative, so cycles >= instructions; L2 is
   accessed only on an L1 miss and L3 only on an L2 miss, so the miss
   counts are monotone down the hierarchy. *)
let counter_insanity (c : Stz_machine.Hierarchy.counters) =
  let neg =
    c.cycles < 0 || c.instructions < 0 || c.l1i_misses < 0
    || c.l1d_misses < 0 || c.l2_misses < 0 || c.l3_misses < 0
    || c.itlb_misses < 0 || c.dtlb_misses < 0 || c.branches < 0
    || c.branch_mispredictions < 0
  in
  if neg then Some "negative counter"
  else if c.instructions = 0 then Some "zero instructions on a completed run"
  else if c.cycles < c.instructions then
    Some (Printf.sprintf "cycles %d < instructions %d" c.cycles c.instructions)
  else if c.branch_mispredictions > c.branches then
    Some
      (Printf.sprintf "mispredictions %d > branches %d"
         c.branch_mispredictions c.branches)
  else if c.l2_misses > c.l1i_misses + c.l1d_misses then
    Some
      (Printf.sprintf "l2 misses %d > l1 misses %d" c.l2_misses
         (c.l1i_misses + c.l1d_misses))
  else if c.l3_misses > c.l2_misses then
    Some (Printf.sprintf "l3 misses %d > l2 misses %d" c.l3_misses c.l2_misses)
  else None

(* ------------------------------------------------------------------ *)
(* Shrinking: greedy delta debugging                                   *)
(* ------------------------------------------------------------------ *)

(* Remove one function: calls to it become [Mov (dst, Imm 1)] (a
   nonzero constant keeps downstream data flow alive more often than
   0 would), remaining fids renumber densely. *)
let remove_function p fid =
  if fid = p.Ir.entry then None
  else
    let remap f = if f < fid then f else f - 1 in
    let rewrite = function
      | Ir.Call { fn; args; dst } ->
          if fn = fid then Ir.Mov (dst, Ir.Imm 1)
          else Ir.Call { fn = remap fn; args; dst }
      | i -> i
    in
    let funcs =
      p.Ir.funcs |> Array.to_list
      |> List.filter_map (fun f ->
             if f.Ir.fid = fid then None
             else begin
               let f = Ir.copy_func f in
               Array.iter
                 (fun blk -> blk.Ir.instrs <- Array.map rewrite blk.Ir.instrs)
                 f.Ir.blocks;
               Some { f with Ir.fid = remap f.Ir.fid }
             end)
      |> Array.of_list
    in
    Some { p with Ir.funcs; entry = remap p.Ir.entry }

(* Gut a function to [ret 1]. The constant folder never tracks a call
   destination, so a call to the gutted function still feeds an
   unknown value to its users — which is what keeps optimizer bugs on
   non-constant operands reproducible at minimal size. *)
let truncate_function p fid =
  let funcs =
    Array.map
      (fun f ->
        let f = Ir.copy_func f in
        if f.Ir.fid = fid then
          f.Ir.blocks <- [| { Ir.instrs = [| Ir.Ret (Ir.Imm 1) |] } |];
        f)
      p.Ir.funcs
  in
  { p with Ir.funcs }

(* Replace one call with a small constant. [remove_function] rewrites
   every call site to a uniform [Imm 1], and when that particular
   value's divergence washes out downstream (masking [and]/[or]
   arithmetic collides the two sides), the whole removal is rejected
   and the callee's loops survive to the end. Trying a few different
   constants per site keeps the divergence alive far more often; once
   a function's last call is gone, pass 1 deletes its body. *)
let constantize_call_candidates p =
  let acc = ref [] in
  Array.iteri
    (fun fi f ->
      Array.iteri
        (fun bi blk ->
          Array.iteri
            (fun ii ins ->
              match ins with
              | Ir.Call { dst; _ } ->
                  List.iter
                    (fun k ->
                      let q = Ir.copy_program p in
                      q.Ir.funcs.(fi).Ir.blocks.(bi).Ir.instrs.(ii) <-
                        Ir.Mov (dst, Ir.Imm k);
                      acc := q :: !acc)
                    [ 3; 2; 17; 1 ]
              | _ -> ())
            blk.Ir.instrs)
        f.Ir.blocks)
    p.Ir.funcs;
  List.rev !acc

(* Control-flow reduction. Instruction ddmin never touches
   terminators, so a block holding only [Br]/[Brc] — an emptied loop
   skeleton — survives every other pass. These candidates collapse a
   conditional branch to one arm or thread away a forwarding block,
   then physically delete whatever became unreachable. *)

let retarget_block ~from ~target = function
  | Ir.Br t -> Ir.Br (if t = from then target else t)
  | Ir.Brc (v, a, b) ->
      Ir.Brc
        ( v,
          (if a = from then target else a),
          if b = from then target else b )
  | i -> i

(* Remove blocks unreachable from each function's block 0, renumbering
   branch targets. [None] when everything is reachable. *)
let drop_unreachable_blocks p =
  let changed = ref false in
  let funcs =
    Array.map
      (fun f ->
        let f = Ir.copy_func f in
        let n = Array.length f.Ir.blocks in
        let reach = Array.make n false in
        let rec go b =
          if b >= 0 && b < n && not reach.(b) then begin
            reach.(b) <- true;
            let instrs = f.Ir.blocks.(b).Ir.instrs in
            let m = Array.length instrs in
            if m > 0 then
              match instrs.(m - 1) with
              | Ir.Br t -> go t
              | Ir.Brc (_, a, b') ->
                  go a;
                  go b'
              | _ -> ()
          end
        in
        go 0;
        if Array.for_all Fun.id reach then f
        else begin
          changed := true;
          let map = Array.make n (-1) in
          let next = ref 0 in
          for b = 0 to n - 1 do
            if reach.(b) then begin
              map.(b) <- !next;
              incr next
            end
          done;
          let blocks =
            Array.to_list f.Ir.blocks
            |> List.filteri (fun b _ -> reach.(b))
            |> Array.of_list
          in
          Array.iter
            (fun blk ->
              blk.Ir.instrs <-
                Array.map
                  (function
                    | Ir.Br t -> Ir.Br map.(t)
                    | Ir.Brc (v, a, b') -> Ir.Brc (v, map.(a), map.(b'))
                    | i -> i)
                  blk.Ir.instrs)
            blocks;
          f.Ir.blocks <- blocks;
          f
        end)
      p.Ir.funcs
  in
  if !changed then Some { p with Ir.funcs } else None

let sweep_unreachable p =
  match drop_unreachable_blocks p with Some q -> q | None -> p

(* One candidate per conditional terminator per arm: [Brc _ a b]
   becomes [Br a] (resp. [Br b]), stranded blocks removed. *)
let collapse_brc_candidates p =
  let acc = ref [] in
  Array.iteri
    (fun fi f ->
      Array.iteri
        (fun bi blk ->
          let n = Array.length blk.Ir.instrs in
          if n > 0 then
            match blk.Ir.instrs.(n - 1) with
            | Ir.Brc (_, a, b) ->
                let mk t =
                  let q = Ir.copy_program p in
                  let blk' = q.Ir.funcs.(fi).Ir.blocks.(bi) in
                  blk'.Ir.instrs.(n - 1) <- Ir.Br t;
                  sweep_unreachable q
                in
                acc := mk b :: mk a :: !acc
            | _ -> ())
        f.Ir.blocks)
    p.Ir.funcs;
  List.rev !acc

(* One candidate per forwarding block (a non-entry block whose only
   instruction is [Br t]): redirect every reference to it at [t], then
   remove it as unreachable. *)
let thread_forward_candidates p =
  let acc = ref [] in
  Array.iteri
    (fun fi f ->
      Array.iteri
        (fun bi blk ->
          if bi > 0 && Array.length blk.Ir.instrs = 1 then
            match blk.Ir.instrs.(0) with
            | Ir.Br t when t <> bi ->
                let q = Ir.copy_program p in
                let f' = q.Ir.funcs.(fi) in
                Array.iter
                  (fun b ->
                    b.Ir.instrs <-
                      Array.map (retarget_block ~from:bi ~target:t) b.Ir.instrs)
                  f'.Ir.blocks;
                acc := sweep_unreachable q :: !acc
            | _ -> ())
        f.Ir.blocks)
    p.Ir.funcs;
  List.rev !acc

(* Every removable instruction position: (func idx, block idx, instr
   idx), excluding each block's terminator (always last). *)
let positions p =
  let acc = ref [] in
  Array.iteri
    (fun fi f ->
      Array.iteri
        (fun bi blk ->
          for ii = Array.length blk.Ir.instrs - 2 downto 0 do
            acc := (fi, bi, ii) :: !acc
          done)
        f.Ir.blocks)
    p.Ir.funcs;
  !acc

let drop_instrs p drop =
  let funcs =
    Array.mapi
      (fun fi f ->
        let f = Ir.copy_func f in
        Array.iteri
          (fun bi blk ->
            let n = Array.length blk.Ir.instrs in
            let kept = ref [] in
            Array.iteri
              (fun ii ins ->
                if ii = n - 1 || not (Hashtbl.mem drop (fi, bi, ii)) then
                  kept := ins :: !kept)
              blk.Ir.instrs;
            blk.Ir.instrs <- Array.of_list (List.rev !kept))
          f.Ir.blocks;
        f)
      p.Ir.funcs
  in
  { p with Ir.funcs }

(* Chunked greedy instruction removal (ddmin flavour): try dropping
   [chunk] consecutive removable positions; on success restart from
   the new program, on a full failed sweep halve the chunk. *)
let ddmin try_cand best0 =
  let best = ref best0 in
  let improved = ref false in
  let chunk = ref (max 1 (List.length (positions !best) / 2)) in
  let stop = ref false in
  while not !stop do
    let pos = Array.of_list (positions !best) in
    let n = Array.length pos in
    let found = ref None in
    let i = ref 0 in
    while !found = None && !i < n do
      let hi = min n (!i + !chunk) in
      let drop = Hashtbl.create 16 in
      for k = !i to hi - 1 do
        Hashtbl.replace drop pos.(k) ()
      done;
      (match try_cand (drop_instrs !best drop) with
      | Some b -> found := Some b
      | None -> ());
      i := hi
    done;
    match !found with
    | Some b ->
        best := b;
        improved := true
    | None -> if !chunk <= 1 then stop := true else chunk := !chunk / 2
  done;
  (!best, !improved)

(* [shrink ~budget ~pred p0]: minimize [p0] while [pred] (the oracle
   that fired) keeps holding. Budget counts predicate evaluations.
   Candidates must themselves validate — an invalid candidate is
   rejected before the predicate ever runs it. *)
let shrink ~budget ~pred p0 =
  let evals = ref 0 and steps = ref 0 in
  let budget_left () = !evals < budget in
  let try_cand cand =
    if not (budget_left ()) then None
    else begin
      incr evals;
      Parallel.beat ();
      if
        program_instrs cand < program_instrs p0 + 1
        && Validate.check_program cand = []
        && pred cand
      then begin
        incr steps;
        Some cand
      end
      else None
    end
  in
  let best = ref p0 in
  let improved = ref true in
  while !improved && budget_left () do
    improved := false;
    (* Pass 1: drop whole functions, highest fid first so lower fids
       keep their numbering across successful removals. *)
    for fid = Array.length !best.Ir.funcs - 1 downto 0 do
      if budget_left () then
        match remove_function !best fid with
        | Some cand -> (
            match try_cand cand with
            | Some b ->
                best := b;
                improved := true
            | None -> ())
        | None -> ()
    done;
    (* Pass 2: gut functions to [ret 1]. *)
    Array.iter
      (fun fid ->
        if budget_left () then
          let f = !best.Ir.funcs.(fid) in
          if Ir.func_instr_count f > 1 then
            match try_cand (truncate_function !best f.Ir.fid) with
            | Some b ->
                best := b;
                improved := true
            | None -> ())
      (Array.init (Array.length !best.Ir.funcs) Fun.id);
    (* Pass 3: constantize calls, one site at a time. *)
    let cc_improved = ref true in
    while !cc_improved && budget_left () do
      cc_improved := false;
      List.iter
        (fun cand ->
          if budget_left () && not !cc_improved then
            match try_cand cand with
            | Some b ->
                best := b;
                improved := true;
                cc_improved := true
            | None -> ())
        (constantize_call_candidates !best)
    done;
    (* Pass 4: control-flow reduction — collapse conditional branches
       to one arm and thread away forwarding blocks (dropping whatever
       becomes unreachable). A [Brc -> Br] collapse may keep the count
       flat, but it converts loop skeletons into unreachable blocks
       the same candidate then deletes; the pass terminates because
       each acceptance strictly reduces conditionals or blocks. *)
    let cf_improved = ref true in
    while !cf_improved && budget_left () do
      cf_improved := false;
      let cands =
        collapse_brc_candidates !best @ thread_forward_candidates !best
      in
      List.iter
        (fun cand ->
          if budget_left () && not !cf_improved then
            match try_cand cand with
            | Some b ->
                best := b;
                improved := true;
                cf_improved := true
            | None -> ())
        cands
    done;
    (* Pass 5: instruction-level ddmin. *)
    let b, ch = ddmin try_cand !best in
    best := b;
    if ch then improved := true
  done;
  (!best, !steps)

(* ------------------------------------------------------------------ *)
(* Case evaluation: the three oracles                                  *)
(* ------------------------------------------------------------------ *)

(* Which oracle fired, with just enough context to re-check it on a
   shrink candidate without re-running the other oracles. *)
type probe =
  | P_compile of Opt.level  (** pipeline raises or output fails validation *)
  | P_determinism  (** two identical O0 runs disagree *)
  | P_divergence of Opt.level  (** level's result differs from O0 (or traps) *)
  | P_seed_variance of Opt.level * int64  (** result moved under a layout seed *)
  | P_counter of Opt.level * Config.t * int64  (** insane counters on that run *)

let levels = [ Opt.O1; Opt.O2; Opt.O3 ]

let evaluate ?(rand_runs = 2) ?(shrink_budget = 2000) ~fuzz_seed ~index () =
  let plan = F.plan ~fuzz_seed ~index in
  let args = F.args plan in
  let p = F.build plan in
  let seed = plan.F.case_seed in
  (* First failure wins: evaluation stops at the first oracle
     violation and shrinks against exactly that violation. *)
  let exception Fire of probe * string * string * int in
  let fire probe oracle detail result =
    raise (Fire (probe, oracle, detail, result))
  in
  let sanity probe counters result =
    match counter_insanity counters with
    | None -> ()
    | Some what -> fire probe "counter-sanity" what result
  in
  let finish_failed (probe, oracle, detail, result) =
    (* Shrink-run fuel: generous enough that the original program (and
       its instrumented STABILIZER runs) still completes, tight enough
       that a shrink edit creating a runaway loop self-rejects fast. *)
    let shrink_limits = ref Interp.default_limits in
    let pred cand =
      let run ?(config = Config.baseline) ?(rseed = seed) prog =
        run_p ~limits:!shrink_limits ~config ~seed:rseed prog ~args
      in
      match probe with
      | P_compile lvl -> Result.is_error (compile lvl cand)
      | P_determinism -> (
          match compile Opt.O0 cand with
          | Error _ -> false
          | Ok o0 -> (
              match (run o0, run o0) with
              | Ok a, Ok b ->
                  a.Runtime.return_value <> b.Runtime.return_value
                  || a.Runtime.counters <> b.Runtime.counters
              | _ -> false))
      | P_divergence lvl -> (
          match (compile Opt.O0 cand, compile lvl cand) with
          | Ok o0, Ok ol -> (
              match run o0 with
              | Error _ -> false
              | Ok r0 -> (
                  match run ol with
                  | Error _ -> true
                  | Ok r -> r.Runtime.return_value <> r0.Runtime.return_value))
          | _ -> false)
      | P_seed_variance (lvl, s) -> (
          match (compile Opt.O0 cand, compile lvl cand) with
          | Ok o0, Ok ol -> (
              match run o0 with
              | Error _ -> false
              | Ok r0 -> (
                  match run ~config:Config.stabilizer ~rseed:s ol with
                  | Error _ -> true
                  | Ok r -> r.Runtime.return_value <> r0.Runtime.return_value))
          | _ -> false)
      | P_counter (lvl, config, s) -> (
          match compile lvl cand with
          | Error _ -> false
          | Ok ol -> (
              match run ~config ~rseed:s ol with
              | Error _ -> false
              | Ok r -> counter_insanity r.Runtime.counters <> None))
    in
    let pred cand =
      match pred cand with
      | b -> b
      | exception ((Stack_overflow | Out_of_memory | Assert_failure _) as e)
        ->
          raise e
      | exception _ -> false
    in
    (* Size the fuel to the original failing run when we have one. *)
    (match run_p ~config:Config.baseline ~seed p ~args with
    | Ok r0 ->
        shrink_limits :=
          Interp.limits
            ~max_instructions:
              (max 1_000_000 (4 * r0.Runtime.counters.instructions))
            ()
    | Error _ -> ());
    let shrunk, shrink_steps = shrink ~budget:shrink_budget ~pred p in
    let repro_instrs = program_instrs shrunk in
    let header =
      String.concat "\n"
        [
          "# szc fuzz reproducer";
          Printf.sprintf "# fuzz_seed=%Ld index=%d case_seed=%Ld" fuzz_seed
            index seed;
          Printf.sprintf "# oracle=%s" oracle;
          Printf.sprintf "# detail=%s" detail;
          Printf.sprintf "# plan: %s" (F.describe plan);
          Printf.sprintf "# instructions=%d (shrunk from %d in %d steps)"
            repro_instrs (program_instrs p) shrink_steps;
          "";
        ]
    in
    Failed
      {
        oracle;
        detail;
        result;
        repro_text = header ^ Text.to_string shrunk;
        repro_instrs;
        shrink_steps;
      }
  in
  match
    match compile Opt.O0 p with
    | Error msg -> fire (P_compile Opt.O0) "compile" ("O0: " ^ msg) 0
    | Ok o0 -> (
        (* Classification run: the only run under the plan's (possibly
           deliberately tight) limits. A trap here censors the case. *)
        match run_p ~limits:(F.limits plan) ~config:Config.baseline ~seed o0 ~args with
        | Error trap -> Trapped { what = trap_name trap }
        | Ok r0 ->
            let result0 = r0.Runtime.return_value in
            sanity (P_counter (Opt.O0, Config.baseline, seed)) r0.Runtime.counters
              result0;
            (* O0 determinism: bit-identical counters on a re-run. *)
            (match
               run_p ~limits:(F.limits plan) ~config:Config.baseline ~seed o0
                 ~args
             with
            | Error trap ->
                fire P_determinism "determinism"
                  ("O0 re-run trapped: " ^ trap_name trap)
                  result0
            | Ok r0' ->
                if
                  r0'.Runtime.return_value <> result0
                  || r0'.Runtime.counters <> r0.Runtime.counters
                then
                  fire P_determinism "determinism"
                    "O0 re-run disagrees (result or counters)" result0);
            (* Oracle (a): pipeline equivalence at every level. *)
            let compiled =
              List.map
                (fun lvl ->
                  let name = Opt.level_to_string lvl in
                  match compile lvl p with
                  | Error msg ->
                      fire (P_compile lvl) "compile" (name ^ ": " ^ msg) result0
                  | Ok ol ->
                      (match run_p ~config:Config.baseline ~seed ol ~args with
                      | Error trap ->
                          fire (P_divergence lvl) "divergence"
                            (Printf.sprintf "%s trapped (%s), O0 completed" name
                               (trap_name trap))
                            result0
                      | Ok r ->
                          if r.Runtime.return_value <> result0 then
                            fire (P_divergence lvl) "divergence"
                              (Printf.sprintf "%s returned %d, O0 returned %d"
                                 name r.Runtime.return_value result0)
                              result0;
                          sanity
                            (P_counter (lvl, Config.baseline, seed))
                            r.Runtime.counters result0);
                      (lvl, ol))
                levels
            in
            (* Oracle (b): the return value must not move under layout/
               heap randomization, at O0 and at O3 (the O3 program oracle
               (a) compiled and ran). *)
            let o3 = List.assoc Opt.O3 compiled in
            let sm = Stz_prng.Splitmix.create seed in
            for k = 1 to rand_runs do
              let s = Stz_prng.Splitmix.split sm in
              List.iter
                (fun (lvl, prog) ->
                  let name = Opt.level_to_string lvl in
                  match
                    run_p ~config:Config.stabilizer ~seed:s prog ~args
                  with
                  | Error trap ->
                      fire
                        (P_seed_variance (lvl, s))
                        "seed-variance"
                        (Printf.sprintf
                           "%s trapped (%s) under randomization seed %d/%Ld"
                           name (trap_name trap) k s)
                        result0
                  | Ok r ->
                      if r.Runtime.return_value <> result0 then
                        fire
                          (P_seed_variance (lvl, s))
                          "seed-variance"
                          (Printf.sprintf
                             "%s returned %d under randomization seed %d/%Ld, \
                              baseline returned %d"
                             name r.Runtime.return_value k s result0)
                          result0;
                      sanity
                        (P_counter (lvl, Config.stabilizer, s))
                        r.Runtime.counters result0)
                [ (Opt.O0, o0); (Opt.O3, o3) ]
            done;
            Clean { result = result0; cycles = r0.Runtime.cycles })
  with
  | outcome -> outcome
  | exception Fire (probe, oracle, detail, result) ->
      finish_failed (probe, oracle, detail, result)

(* ------------------------------------------------------------------ *)
(* Campaign driver                                                     *)
(* ------------------------------------------------------------------ *)

type config = {
  fuzz_seed : int64;
  count : int;
  jobs : int;
  out_dir : string;
  resume : bool;
  rand_runs : int;
  shrink_budget : int;
  plant : Opt.planted option;
  watchdog : float option;
  log : string -> unit;
}

type summary = {
  total : int;
  clean : int;
  trapped : int;
  failed : int;
  crashed : int;
  hung : int;
  reproducers : string list;
}

let ledger_name = "fuzz.log"
let repro_name index = Printf.sprintf "repro-%06d.szt" index

let plant_to_string = function
  | None -> "none"
  | Some Opt.Shift_clamp -> "shift-clamp"

let summarize cases =
  let z =
    {
      total = 0;
      clean = 0;
      trapped = 0;
      failed = 0;
      crashed = 0;
      hung = 0;
      reproducers = [];
    }
  in
  let s =
    List.fold_left
      (fun s (c : Fuzzlog.case) ->
        let s = { s with total = s.total + 1 } in
        match c.Fuzzlog.verdict with
        | Fuzzlog.Clean -> { s with clean = s.clean + 1 }
        | Fuzzlog.Trapped -> { s with trapped = s.trapped + 1 }
        | Fuzzlog.Fail ->
            {
              s with
              failed = s.failed + 1;
              reproducers = c.Fuzzlog.repro :: s.reproducers;
            }
        | Fuzzlog.Crashed -> { s with crashed = s.crashed + 1 }
        | Fuzzlog.Hung -> { s with hung = s.hung + 1 })
      z cases
  in
  { s with reproducers = List.rev s.reproducers }

let blank_case index case_seed verdict detail =
  {
    Fuzzlog.index;
    case_seed;
    verdict;
    oracle = "";
    detail;
    repro = "";
    repro_instrs = 0;
    shrink_steps = 0;
    result = 0;
    cycles = 0;
  }

let run_campaign cfg =
  (* Armed before the pool forks so workers inherit it; restored on
     every exit path so a library caller never leaks an armed bug into
     later work. *)
  let saved_plant = !Opt.planted_bug in
  Opt.planted_bug := cfg.plant;
  Fun.protect ~finally:(fun () -> Opt.planted_bug := saved_plant) @@ fun () ->
  let meta =
    {
      Fuzzlog.version = 1;
      fuzz_seed = cfg.fuzz_seed;
      count = cfg.count;
      rand_runs = cfg.rand_runs;
      plant = plant_to_string cfg.plant;
    }
  in
  let case_seed index = (F.plan ~fuzz_seed:cfg.fuzz_seed ~index).F.case_seed in
  (* Worker body: returns plain data (the ledger record plus the
     reproducer bytes) so it marshals over the pool pipe. *)
  let eval index =
    let cs = case_seed index in
    match
      evaluate ~rand_runs:cfg.rand_runs ~shrink_budget:cfg.shrink_budget
        ~fuzz_seed:cfg.fuzz_seed ~index ()
    with
    | Clean { result; cycles } ->
        ( {
            (blank_case index cs Fuzzlog.Clean "") with
            Fuzzlog.result;
            cycles;
          },
          None )
    | Trapped { what } -> (blank_case index cs Fuzzlog.Trapped what, None)
    | Failed { oracle; detail; result; repro_text; repro_instrs; shrink_steps }
      ->
        let name = repro_name index in
        ( {
            (blank_case index cs Fuzzlog.Fail detail) with
            Fuzzlog.oracle;
            repro = name;
            repro_instrs;
            shrink_steps;
            result;
          },
          Some (name, repro_text) )
  in
  let censor index ~hung detail =
    blank_case index (case_seed index)
      (if hung then Fuzzlog.Hung else Fuzzlog.Crashed)
      detail
  in
  let report (case : Fuzzlog.case) =
    (match case.Fuzzlog.verdict with
    | Fuzzlog.Fail ->
        cfg.log
          (Printf.sprintf
             "FAIL case %d (%s): %s -> %s [%d instrs, %d shrink steps]"
             case.Fuzzlog.index case.Fuzzlog.oracle case.Fuzzlog.detail
             case.Fuzzlog.repro case.Fuzzlog.repro_instrs
             case.Fuzzlog.shrink_steps)
    | _ -> ());
    if
      (case.Fuzzlog.index + 1) mod 100 = 0
      || case.Fuzzlog.index + 1 = cfg.count
    then
      cfg.log
        (Printf.sprintf "fuzzed %d/%d" (case.Fuzzlog.index + 1) cfg.count)
  in
  Result.map summarize
    (Indexed_job.run
       (module Fuzzlog)
       ~out_dir:cfg.out_dir ~ledger:ledger_name ~meta ~resume:cfg.resume
       ~count:cfg.count ~jobs:cfg.jobs ~watchdog:cfg.watchdog ~log:cfg.log
       ~eval ~censor ~report)
