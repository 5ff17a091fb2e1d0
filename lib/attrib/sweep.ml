module F = Stz_workloads.Fuzz
module Sweeplog = Stz_store.Sweeplog
module Text = Stz_vm.Text
module Ir = Stz_vm.Ir
module B = Stz_vm.Builder
module Interp = Stz_vm.Interp
module Parallel = Stabilizer.Parallel
module Fuzzer = Stabilizer.Fuzzer

type config = {
  fuzz_seed : int64;
  count : int;
  jobs : int;
  out_dir : string;
  resume : bool;
  layout_seeds : int;
  variants : int;
  threshold : float;
  shrink_budget : int;
  watchdog : float option;
  log : string -> unit;
}

type summary = {
  total : int;
  measured : int;
  trapped : int;
  crashed : int;
  hung : int;
  max_eta2 : float;
  offenders : Sweeplog.case list;
  reproducers : string list;
}

let ledger_name = "sweep.log"
let repro_name index = Printf.sprintf "repro-%06d.szt" index

let blank_case index case_seed verdict detail =
  {
    Sweeplog.index;
    case_seed;
    verdict;
    eta2 = 0.;
    partial_eta2 = 0.;
    workload_share = 0.;
    residual_share = 0.;
    mean_cycles = 0;
    instrs = 0;
    structure = "";
    victim = -1;
    evictor = -1;
    conflict_events = 0;
    conflict_cycles = 0;
    repro = "";
    repro_instrs = 0;
    shrink_steps = 0;
    detail;
  }

(* Fuzz programs are built for oracle checks, not workload scaling:
   most run the same cycle count whatever their argument, which would
   zero the ANOVA's workload stratum and saturate classic η² at 1 for
   any layout jitter at all. The sweep therefore wraps each case in a
   harness entry that repeats the original program [iters] times, with
   the plan's own arguments baked in as immediates — the repeat count
   becomes a workload factor every program responds to, linearly. *)
let harness_iters_base = 2

let harnessed plan (p : Ir.program) =
  let n = Array.length p.Ir.funcs in
  let b = B.func ~fid:n ~name:"sweep_harness" ~n_args:1 ~frame_size:32 () in
  let total = B.fresh_reg b in
  let i = B.fresh_reg b in
  B.emit b (Ir.Mov (total, Ir.Imm 0));
  B.emit b (Ir.Mov (i, Ir.Imm 0));
  let head = B.new_block b in
  let body = B.new_block b in
  let exit = B.new_block b in
  B.emit b (Ir.Br head);
  B.set_block b head;
  let c = B.fresh_reg b in
  B.emit b (Ir.Cmp (Ir.Lt, c, Ir.Reg i, Ir.Reg 0));
  B.emit b (Ir.Brc (Ir.Reg c, body, exit));
  B.set_block b body;
  let r = B.fresh_reg b in
  B.emit b
    (Ir.Call
       {
         fn = p.Ir.entry;
         args = List.map (fun a -> Ir.Imm a) (F.args plan);
         dst = r;
       });
  B.emit b (Ir.Bin (Ir.Add, total, Ir.Reg total, Ir.Reg r));
  B.emit b (Ir.Bin (Ir.Add, i, Ir.Reg i, Ir.Imm 1));
  B.emit b (Ir.Br head);
  B.set_block b exit;
  B.emit b (Ir.Ret (Ir.Reg total));
  { p with Ir.funcs = Array.append p.Ir.funcs [| B.finish b |]; entry = n }

(* The case's Explain matrix: W repeat-count variants (the workload
   factor), K layout seeds split from the case seed (the layout
   factor). Pure in (fuzz_seed, index, K, W). *)
let case_matrix ~layout_seeds ~variants plan p =
  let arg_variants =
    List.init variants (fun v -> [ harness_iters_base + v ])
  in
  let lim = F.limits plan in
  let lim =
    {
      Interp.max_instructions =
        lim.Interp.max_instructions * (harness_iters_base + variants);
      max_call_depth = lim.Interp.max_call_depth + 1;
    }
  in
  Explain.run ~jobs:1 ~limits:lim ~base_seed:plan.F.case_seed
    ~seeds:layout_seeds ~variants:arg_variants (harnessed plan p)

let eta2_of (report : Explain.report) =
  match report.Explain.decomposition with
  | Some d -> Some d
  | None -> None

let mean_cycles_of (report : Explain.report) =
  let sum = ref 0 and n = ref 0 in
  Array.iter
    (Array.iter (fun c ->
         if c >= 0 then begin
           sum := !sum + c;
           incr n
         end))
    report.Explain.cycles;
  if !n = 0 then 0 else !sum / !n

let evaluate ~layout_seeds ~variants ~threshold ~shrink_budget ~fuzz_seed
    ~index () =
  let plan = F.plan ~fuzz_seed ~index in
  let cs = plan.F.case_seed in
  let p = F.build plan in
  let instrs = Fuzzer.program_instrs p in
  match case_matrix ~layout_seeds ~variants plan p with
  | Error e -> (blank_case index cs Sweeplog.Trapped e, None)
  | Ok report -> (
      match eta2_of report with
      | None -> (blank_case index cs Sweeplog.Trapped report.Explain.note, None)
      | Some d ->
          let top = match report.Explain.pairs with [] -> None | p :: _ -> Some p in
          let base =
            {
              (blank_case index cs Sweeplog.Measured (F.describe plan)) with
              Sweeplog.eta2 = d.Explain.layout_eta2;
              partial_eta2 = d.Explain.partial_eta2;
              workload_share = d.Explain.workload_share;
              residual_share = d.Explain.residual_share;
              mean_cycles = mean_cycles_of report;
              instrs;
              structure =
                (match top with
                | None -> ""
                | Some t -> Conflict.structure_name t.Conflict.structure);
              victim = (match top with None -> -1 | Some t -> t.Conflict.f1);
              evictor = (match top with None -> -1 | Some t -> t.Conflict.f2);
              conflict_events =
                (match top with None -> 0 | Some t -> t.Conflict.events);
              conflict_cycles =
                (match top with None -> 0 | Some t -> t.Conflict.est_cycles);
            }
          in
          if d.Explain.layout_eta2 < threshold || shrink_budget <= 0 then
            (base, None)
          else begin
            (* Worst offender: minimize while the layout effect stays
               at or above the threshold. Every predicate evaluation is
               a full K x W matrix, so budgets are kept small. *)
            let pred cand =
              Parallel.beat ();
              match case_matrix ~layout_seeds ~variants plan cand with
              | Ok r -> (
                  match eta2_of r with
                  | Some d' -> d'.Explain.layout_eta2 >= threshold
                  | None -> false)
              | Error _ | (exception _) -> false
            in
            let shrunk, shrink_steps =
              Fuzzer.shrink ~budget:shrink_budget ~pred p
            in
            let repro_instrs = Fuzzer.program_instrs shrunk in
            let name = repro_name index in
            let header =
              String.concat "\n"
                [
                  "# szc layout sweep reproducer";
                  Printf.sprintf "# fuzz_seed=%Ld index=%d case_seed=%Ld"
                    fuzz_seed index cs;
                  Printf.sprintf
                    "# layout_eta2=%.6f (threshold %.6f, K=%d seeds, W=%d \
                     variants)"
                    d.Explain.layout_eta2 threshold layout_seeds variants;
                  Printf.sprintf "# plan: %s" (F.describe plan);
                  Printf.sprintf "# instructions=%d (shrunk from %d in %d steps)"
                    repro_instrs instrs shrink_steps;
                  "";
                ]
            in
            ( {
                base with
                Sweeplog.repro = name;
                repro_instrs;
                shrink_steps;
              },
              Some (name, header ^ Text.to_string shrunk) )
          end)

let summarize ~threshold cases =
  let z =
    {
      total = 0;
      measured = 0;
      trapped = 0;
      crashed = 0;
      hung = 0;
      max_eta2 = 0.;
      offenders = [];
      reproducers = [];
    }
  in
  let s =
    List.fold_left
      (fun s (c : Sweeplog.case) ->
        let s = { s with total = s.total + 1 } in
        match c.Sweeplog.verdict with
        | Sweeplog.Measured ->
            let s =
              {
                s with
                measured = s.measured + 1;
                max_eta2 = Float.max s.max_eta2 c.Sweeplog.eta2;
              }
            in
            let s =
              if c.Sweeplog.eta2 >= threshold then
                { s with offenders = c :: s.offenders }
              else s
            in
            if c.Sweeplog.repro <> "" then
              { s with reproducers = c.Sweeplog.repro :: s.reproducers }
            else s
        | Sweeplog.Trapped -> { s with trapped = s.trapped + 1 }
        | Sweeplog.Crashed -> { s with crashed = s.crashed + 1 }
        | Sweeplog.Hung -> { s with hung = s.hung + 1 })
      z cases
  in
  {
    s with
    offenders =
      List.stable_sort
        (fun (a : Sweeplog.case) (b : Sweeplog.case) ->
          let c = compare b.Sweeplog.eta2 a.Sweeplog.eta2 in
          if c <> 0 then c else compare a.Sweeplog.index b.Sweeplog.index)
        (List.rev s.offenders);
    reproducers = List.rev s.reproducers;
  }

let run_campaign cfg =
  let ( let* ) = Result.bind in
  let* () =
    if cfg.layout_seeds < 2 then Error "sweep: need at least 2 layout seeds"
    else if cfg.variants < 2 then Error "sweep: need at least 2 variants"
    else Ok ()
  in
  let meta =
    {
      Sweeplog.version = 1;
      fuzz_seed = cfg.fuzz_seed;
      count = cfg.count;
      layout_seeds = cfg.layout_seeds;
      variants = cfg.variants;
      threshold = cfg.threshold;
      shrink_budget = cfg.shrink_budget;
    }
  in
  let eval index =
    evaluate ~layout_seeds:cfg.layout_seeds ~variants:cfg.variants
      ~threshold:cfg.threshold ~shrink_budget:cfg.shrink_budget
      ~fuzz_seed:cfg.fuzz_seed ~index ()
  in
  let censor index ~hung detail =
    blank_case index
      (F.plan ~fuzz_seed:cfg.fuzz_seed ~index).F.case_seed
      (if hung then Sweeplog.Hung else Sweeplog.Crashed)
      detail
  in
  let report (case : Sweeplog.case) =
    (match case.Sweeplog.verdict with
    | Sweeplog.Measured when case.Sweeplog.repro <> "" ->
        cfg.log
          (Printf.sprintf
             "OFFENDER case %d: eta2=%.3f %s %d<->%d -> %s [%d instrs, %d \
              shrink steps]"
             case.Sweeplog.index case.Sweeplog.eta2 case.Sweeplog.structure
             case.Sweeplog.victim case.Sweeplog.evictor case.Sweeplog.repro
             case.Sweeplog.repro_instrs case.Sweeplog.shrink_steps)
    | _ -> ());
    if
      (case.Sweeplog.index + 1) mod 20 = 0
      || case.Sweeplog.index + 1 = cfg.count
    then
      cfg.log
        (Printf.sprintf "swept %d/%d" (case.Sweeplog.index + 1) cfg.count)
  in
  Result.map
    (summarize ~threshold:cfg.threshold)
    (Stabilizer.Indexed_job.run
       (module Sweeplog)
       ~out_dir:cfg.out_dir ~ledger:ledger_name ~meta ~resume:cfg.resume
       ~count:cfg.count ~jobs:cfg.jobs ~watchdog:cfg.watchdog ~log:cfg.log
       ~eval ~censor ~report)
