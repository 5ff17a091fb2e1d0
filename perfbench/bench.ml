(* How main.exe and the benchmark's test measure a workload.

   Untraced (--trace 0): run passes of the workload's real entry point
   until the time budget is spent, setting up again between passes and
   checking every pass's outputs; report the median set-up and the
   median pass.

   Traced (--trace 1): one real pass anchors the expected outputs; the
   layer-by-layer recomposition then runs untraced, traced, traced,
   untraced (the wall-time ratio is the tracing overhead), and the first
   traced run's spans give the per-layer metrics and the Chrome trace. *)

module Hierarchy = Stz_machine.Hierarchy

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : Workloads.size;
  plant : bool;  (** perturb the expected outputs: every unit must fail *)
  out_dir : string;  (** scratch files and the trace land here *)
}

let defaults =
  {
    workload = "";
    seed = 1;
    seconds = 10.0;
    trace = false;
    size = Workloads.full;
    plant = false;
    out_dir = ".perfbench";
  }

let end_to_end =
  [
    ("setup_s", "s");
    ("units_per_s", "1/s");
    ("cpu_ms_per_unit", "ms");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("workloads.generate_s", "s");
    ("vm.opt_s", "s");
    ("vm.validate_s", "s");
    ("vm.exec_self_s", "s");
    ("vm.ns_per_instr", "ns");
    ("vm.instructions", "count");
    ("vm.sim_mips", "instr/us");
    ("machine.replay_ns", "ns");
    ("machine.create_ms", "ms");
    ("machine.l1i_mpki", "1/kinstr");
    ("machine.l1d_mpki", "1/kinstr");
    ("machine.l2_mpki", "1/kinstr");
    ("machine.l3_mpki", "1/kinstr");
    ("machine.itlb_mpki", "1/kinstr");
    ("machine.dtlb_mpki", "1/kinstr");
    ("machine.mispredict_rate", "frac");
    ("layout.enter_s", "s");
    ("layout.enter_calls", "count");
    ("layout.relocations", "count");
    ("layout.epochs", "count");
    ("layout.frame_s", "s");
    ("layout.call_s", "s");
    ("layout.global_s", "s");
    ("alloc.self_s", "s");
    ("alloc.calls", "count");
    ("attrib.armed_ratio", "x");
    ("parallel.tasks", "count");
    ("parallel.busy_frac", "frac");
    ("parallel.result_bytes", "bytes");
    ("parallel.straggle_s", "s");
    ("store.write_ms", "ms");
    ("store.writes", "count");
    ("store.bytes_written", "bytes");
    ("gc.minor_words_per_unit", "words");
    ("gc.major_collections", "count");
    ("trace.overhead_frac", "frac");
    ("trace.coverage", "frac");
  ]

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  trace_file : string option;
}

let now = Spans.now

(* Fewest set-ups before the first pass, and fewest passes, whatever
   the time budget. *)
let setup_reps = 5
let min_passes = 3

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let time f =
  let t0 = now () in
  f ();
  now () -. t0

(* User+system CPU of this process and of every child it has reaped. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* VmHWM: peak resident set of this process only. Forked pool workers
   are separate processes and are not included. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | text ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.0)
          | _ -> None)
        (String.split_on_char '\n' text)
      |> Option.value ~default:nan
  | exception Sys_error _ -> nan

(* Units that failed their own check or differ from the expected
   fingerprints. *)
let count_failed ~expected (p : Workloads.pass) =
  let n = ref 0 in
  Array.iteri
    (fun i s ->
      if Workloads.failed_print s || i >= Array.length expected || expected.(i) <> s
      then incr n)
    p.Workloads.prints;
  !n + Stdlib.max 0 (Array.length expected - Array.length p.Workloads.prints)

let expected_of ~plant (p : Workloads.pass) =
  if plant then Array.map (fun s -> s ^ "?") p.Workloads.prints else p.Workloads.prints

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ------------------------------------------------------------------ *)
(* Untraced: end-to-end metrics                                        *)
(* ------------------------------------------------------------------ *)

let measure_end_to_end o (w : Workloads.t) =
  (* Set-ups are sampled across the whole run, as passes are: a round
     before the first pass and one after every pass, each at least one
     set-up and about a twentieth of the time around it. *)
  let setups = ref [] in
  let setup_round ~reps ~budget =
    let spent = ref 0.0 and n = ref 0 in
    while !n < reps || (!spent < budget && !n < 100) do
      let t = time w.Workloads.setup in
      setups := t :: !setups;
      spent := !spent +. t;
      incr n
    done
  in
  setup_round ~reps:setup_reps ~budget:(o.seconds /. 40.0);
  let attempted = ref 0 and failed = ref 0 in
  (* Expected fingerprints per input set, from its first pass. *)
  let expected = Hashtbl.create 8 and repeated = ref false in
  let check ~input p =
    let exp =
      match Hashtbl.find_opt expected input with
      | Some e ->
          repeated := true;
          e
      | None ->
          let e = expected_of ~plant:o.plant p in
          Hashtbl.add expected input e;
          e
    in
    attempted := !attempted + Array.length p.Workloads.prints;
    failed := !failed + count_failed ~expected:exp p
  in
  let rates = ref [] and cpu_ms = ref [] and walls = ref [] in
  let start = now () in
  let more () =
    List.length !walls < min_passes
    || now () -. start +. median !walls <= o.seconds
  in
  while more () do
    let wall = ref nan and cpu_s = ref nan in
    let timed f =
      let t0 = now () and c0 = cpu () in
      f ();
      wall := now () -. t0;
      cpu_s := cpu () -. c0
    in
    let input = w.Workloads.inputs (List.length !walls) in
    let p = w.Workloads.real ~input ~timed in
    check ~input p;
    let units = Array.length p.Workloads.prints in
    let u = float_of_int (Stdlib.max 1 units) in
    walls := !wall :: !walls;
    rates := (u /. !wall) :: !rates;
    cpu_ms := (1000.0 *. !cpu_s /. u) :: !cpu_ms;
    setup_round ~reps:1 ~budget:(!wall /. 20.0)
  done;
  (* Outputs must repeat: when no input set ran twice, rerun the first
     one, untimed. *)
  if not !repeated then begin
    let input = w.Workloads.inputs 0 in
    check ~input (w.Workloads.real ~input ~timed:(fun f -> f ()))
  end;
  Printf.eprintf "perfbench: %s: %d %ss checked, pass walls %s\n%!" o.workload
    !attempted w.Workloads.unit_name
    (String.concat " " (List.rev_map (Printf.sprintf "%.3fs") !walls));
  let metrics =
    [
      ("setup_s", median !setups, "s");
      ("units_per_s", median !rates, "1/s");
      ("cpu_ms_per_unit", median !cpu_ms, "ms");
      ("peak_rss_mb", peak_rss_mb (), "MB");
    ]
  in
  (!attempted, !failed, metrics)

(* ------------------------------------------------------------------ *)
(* Traced: per-layer metrics                                           *)
(* ------------------------------------------------------------------ *)

(* ns per Hierarchy.fetch/data/branch call over a fixed seeded stream
   whose data addresses span 32 KiB: four times the default L1D, inside
   L2. The stream is built before the clock starts. *)
let replay_ns () =
  let n = 100_000 in
  let g = Stz_prng.Splitmix.create 0x5EEDL in
  let next () = Int64.to_int (Stz_prng.Splitmix.next g) in
  let addrs = Array.init n (fun _ -> next () land 0x7FF8) in
  let pcs = Array.init n (fun i -> 0x400000 + ((i * 4) land 0x3FFF)) in
  let taken = Array.init n (fun _ -> next () land 1 = 0) in
  let once () =
    let m = Hierarchy.create () in
    time (fun () ->
        for i = 0 to n - 1 do
          ignore (Hierarchy.fetch m pcs.(i));
          ignore (Hierarchy.data m addrs.(i));
          ignore (Hierarchy.branch m ~pc:pcs.(i) ~taken:taken.(i))
        done)
  in
  1e9 *. median (List.init 7 (fun _ -> once ())) /. float_of_int (3 * n)

(* Host time of the same unit on an attribution-armed machine over a
   dark one, alternating: at least three pairs, for at least a
   twentieth of the time budget. *)
let armed_ratio ~seconds (w : Workloads.t) =
  let dark = ref 0.0 and armed = ref 0.0 and pairs = ref 0 in
  while !pairs < 3 || (!pairs < 10_000 && !dark +. !armed < seconds /. 20.0) do
    dark := !dark +. time (fun () -> w.Workloads.probe ~armed:false);
    armed := !armed +. time (fun () -> w.Workloads.probe ~armed:true);
    incr pairs
  done;
  !armed /. !dark

(* One recomposed pass and what the layers recorded during it. *)
type recorded = {
  pass : Workloads.pass;
  t0 : float;
  t1 : float;
  minor : float;  (** GC words of this process *)
  major : int;
  spans : Spans.span list;
  totals : Workloads.totals;
  stats : Workloads.stats;
}

(* Self time, its share of all self time (every lane), the span or
   call count, and the mean duration of one span or call. *)
let print_layers ~name table =
  let total = List.fold_left (fun acc (_, s, _, _) -> acc +. s) 0.0 table in
  Printf.eprintf "perfbench: %s: self time by layer, all lanes (%.3fs)\n" name total;
  Printf.eprintf "  %-22s %11s %7s %9s %11s\n" "span" "self" "share" "count" "mean";
  List.iter
    (fun (n, s, c, d) ->
      Printf.eprintf "  %-22s %10.4fs %6.2f%% %9d %9.4fms\n" n s
        (100.0 *. s /. Float.max total 1e-12)
        c
        (1000.0 *. d /. float_of_int (Stdlib.max 1 c)))
    (List.sort (fun (_, a, _, _) (_, b, _, _) -> compare b a) table);
  flush stderr

let measure_traced o (w : Workloads.t) =
  let attempted = ref 0 and failed = ref 0 in
  let check ~expected p =
    attempted := !attempted + Array.length p.Workloads.prints;
    failed := !failed + count_failed ~expected p
  in
  let real = w.Workloads.real ~input:(w.Workloads.inputs 0) ~timed:(fun f -> f ()) in
  let expected = expected_of ~plant:o.plant real in
  check ~expected real;
  (* The recomposition runs untraced, traced, traced, untraced, so a
     linear drift in machine speed cancels from the overhead ratio.
     The first traced pass is the one reported. *)
  let recompose ~traced =
    Spans.reset ();
    Workloads.reset_layers ();
    Spans.enabled := traced;
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let p = Fun.protect ~finally:(fun () -> Spans.enabled := false) w.Workloads.recompose in
    let t1 = now () in
    let g1 = Gc.quick_stat () in
    check ~expected p;
    {
      pass = p;
      t0;
      t1;
      minor = g1.Gc.minor_words -. g0.Gc.minor_words;
      major = g1.Gc.major_collections - g0.Gc.major_collections;
      spans = !Spans.spans;
      totals = !Workloads.run_totals;
      stats = !Workloads.stats;
    }
  in
  let u1 = recompose ~traced:false in
  let tr = recompose ~traced:true in
  let tr2 = recompose ~traced:true in
  let u2 = recompose ~traced:false in
  let wall r = r.t1 -. r.t0 in
  let untraced_s = wall u1 +. wall u2 in
  let sim_mips =
    float_of_int (u1.pass.Workloads.instructions + u2.pass.Workloads.instructions)
    /. (untraced_s *. 1e6)
  in
  let { pass = traced; t0; t1; spans; totals = tot; stats; _ } = tr in
  let table = Spans.self_times spans in
  let secs name = fst (Spans.lookup table name) in
  let calls name = snd (Spans.lookup table name) in
  let units = float_of_int (Stdlib.max 1 (Array.length traced.Workloads.prints)) in
  let instr = float_of_int (Stdlib.max 1 tot.Workloads.instr) in
  let c = tot.Workloads.counters in
  let mpki x = 1000.0 *. float_of_int x /. instr in
  let per n x = if n > 0 then x /. float_of_int n else 0.0 in
  let store_s = secs "store.checkpoint" +. secs "store.append" +. secs "store.write" in
  let straggle =
    match List.sort compare stats.Workloads.done_at with
    | [] -> 0.0
    | first :: _ as l -> List.nth l (List.length l - 1) -. first
  in
  let metrics =
    [
      ("workloads.generate_s", secs "workloads.generate");
      ("vm.opt_s", secs "vm.opt");
      ("vm.validate_s", secs "vm.validate");
      ("vm.exec_self_s", secs "vm.run");
      ("vm.ns_per_instr", 1e9 *. secs "vm.run" /. instr);
      ("vm.instructions", float_of_int tot.Workloads.instr);
      ("vm.sim_mips", sim_mips);
      ("machine.replay_ns", replay_ns ());
      ("machine.create_ms", 1000.0 *. per (calls "machine.create") (secs "machine.create"));
      ("machine.l1i_mpki", mpki c.Hierarchy.l1i_misses);
      ("machine.l1d_mpki", mpki c.Hierarchy.l1d_misses);
      ("machine.l2_mpki", mpki c.Hierarchy.l2_misses);
      ("machine.l3_mpki", mpki c.Hierarchy.l3_misses);
      ("machine.itlb_mpki", mpki c.Hierarchy.itlb_misses);
      ("machine.dtlb_mpki", mpki c.Hierarchy.dtlb_misses);
      ( "machine.mispredict_rate",
        per c.Hierarchy.branches (float_of_int c.Hierarchy.branch_mispredictions) );
      ("layout.enter_s", secs "layout.enter");
      ("layout.enter_calls", float_of_int (calls "layout.enter"));
      ("layout.relocations", float_of_int tot.Workloads.relocations);
      ("layout.epochs", float_of_int tot.Workloads.epochs);
      ("layout.frame_s", secs "layout.frame");
      ("layout.call_s", secs "layout.call");
      ("layout.global_s", secs "layout.global");
      ("alloc.self_s", secs "alloc.malloc" +. secs "alloc.free");
      ("alloc.calls", float_of_int (calls "alloc.malloc" + calls "alloc.free"));
      ("attrib.armed_ratio", armed_ratio ~seconds:o.seconds w);
      ("parallel.tasks", float_of_int stats.Workloads.tasks);
      ( "parallel.busy_frac",
        stats.Workloads.busy_s /. (float_of_int Workloads.jobs *. stats.Workloads.map_s) );
      ("parallel.result_bytes", float_of_int stats.Workloads.result_bytes);
      ("parallel.straggle_s", straggle);
      ("store.write_ms", 1000.0 *. per stats.Workloads.store_writes store_s);
      ("store.writes", float_of_int stats.Workloads.store_writes);
      ("store.bytes_written", float_of_int stats.Workloads.store_bytes);
      ("gc.minor_words_per_unit", (tr.minor +. stats.Workloads.minor_words) /. units);
      ("gc.major_collections", float_of_int (tr.major + stats.Workloads.major));
      ("trace.overhead_frac", ((wall tr +. wall tr2) /. untraced_s) -. 1.0);
      ("trace.coverage", Spans.coverage spans ~t0 ~t1);
    ]
  in
  let unit_of name = List.assoc name per_layer in
  let metrics = List.map (fun (n, v) -> (n, v, unit_of n)) metrics in
  print_layers ~name:o.workload table;
  List.iter
    (fun (n, v, u) -> Printf.eprintf "perfbench: %s: %s = %.6g %s\n" o.workload n v u)
    (w.Workloads.extras ());
  (* Spans stay in memory until here; written once, through the repo's
     own Chrome exporter, and validated the way szc check-trace does. *)
  let trace = Spans.chrome ~process_name:("perfbench " ^ o.workload) ~origin:t0 spans in
  let path =
    Filename.concat o.out_dir (Printf.sprintf "trace-%s-%d.json" o.workload o.seed)
  in
  let trace_ok =
    match Stz_telemetry.Export.validate_chrome_string trace with
    | Ok _ ->
        Stz_store.Artifact.write_with_sum path trace;
        Printf.eprintf "perfbench: %s: trace written to %s\n%!" o.workload path;
        true
    | Error e ->
        Printf.eprintf "perfbench: %s: invalid trace: %s\n%!" o.workload e;
        false
  in
  (!attempted, !failed, metrics, trace_ok, path)

let run o =
  match List.assoc_opt o.workload Workloads.all with
  | None -> Error ("unknown workload " ^ o.workload)
  | Some make ->
      Workloads.mkdir_p o.out_dir;
      let tmp = Filename.concat o.out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
      Workloads.mkdir_p tmp;
      Fun.protect ~finally:(fun () -> rm_rf tmp) @@ fun () ->
      let w = make ~size:o.size ~seed:o.seed ~tmp ~plant:o.plant in
      if o.trace then
        let attempted, failed, metrics, trace_ok, path = measure_traced o w in
        Ok
          {
            correct = failed = 0 && trace_ok;
            attempted;
            failed;
            metrics;
            trace_file = Some path;
          }
      else
        let attempted, failed, metrics = measure_end_to_end o w in
        Ok { correct = failed = 0; attempted; failed; metrics; trace_file = None }

(* The result line: one JSON object, every value with all its digits. *)
let to_json r =
  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u)
          r.metrics))
