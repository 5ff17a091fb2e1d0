module Hierarchy = Stz_machine.Hierarchy
module Cost = Stz_machine.Cost
module Ir = Stz_vm.Ir
module Interp = Stz_vm.Interp
module Address_space = Stz_layout.Address_space
module Static_layout = Stz_layout.Static_layout
module Stack = Stz_layout.Stack
module Code_rand = Stz_layout.Code_rand
module Source = Stz_prng.Source
module Splitmix = Stz_prng.Splitmix
module Event = Stz_telemetry.Event
module Runlog = Stz_telemetry.Runlog

type result = {
  cycles : int;
  virtual_seconds : float;
  return_value : int;
  counters : Hierarchy.counters;
  relocations : int;
  epochs : int;
  adaptive_triggers : int;
  heap_stats : Stz_alloc.Allocator.stats;
  profile : Profiler.entry list option;
      (** hottest-first per-function attribution when profiling is on *)
  events : Event.t list;
      (** run-local telemetry (empty unless [events] was requested) *)
}

type partial = {
  p_cycles : int;
  p_counters : Hierarchy.counters;
  p_epochs : int;
  p_relocations : int;
  p_adaptive_triggers : int;
}

exception
  Trap of {
    trap : exn;
    partial : partial;
    events : Event.t list;
  }

let partial_of_result r =
  {
    p_cycles = r.cycles;
    p_counters = r.counters;
    p_epochs = r.epochs;
    p_relocations = r.relocations;
    p_adaptive_triggers = r.adaptive_triggers;
  }

let malloc_cycles = 30
let free_cycles = 15

let static_views p static =
  Array.map
    (fun f ->
      let offsets = Ir.block_offsets f in
      {
        Interp.block_addrs =
          Array.map (fun o -> static.Static_layout.code_addrs.(f.Ir.fid) + o) offsets;
        branch_flips = Array.make (Array.length f.Ir.blocks) false;
      })
    p.Ir.funcs

(* Pad tables are placed directly after the last global, matching the
   compiler pass emitting them as additional globals. *)
let globals_end space p =
  Array.fold_left
    (fun acc (g : Ir.global) -> acc + ((g.Ir.gsize + 15) land lnot 15))
    space.Address_space.globals_base p.Ir.globals

let execute ?limits ~profile ~events ~env_wrap ~config ~seed p ~args machine =
  let profiler = if profile then Some (Profiler.create p) else None in
  let rlog = if events then Some (Runlog.create ()) else None in
  let seeds = Splitmix.create seed in
  let link_seed = Splitmix.split seeds in
  let heap_seed = Splitmix.split seeds in
  let code_seed = Splitmix.split seeds in
  let stack_seed = Splitmix.split seeds in
  let space =
    Address_space.with_env_bytes Address_space.default config.Config.env_bytes
  in
  let order =
    match config.Config.link_order with
    | Config.Declaration -> None
    | Config.Random_link ->
        Some (Static_layout.random_order ~source:(Source.xorshift ~seed:link_seed) p)
  in
  let static = Static_layout.place ?order space p in
  let heap_arena = Address_space.heap_arena space in
  let heap =
    if config.Config.heap then
      Stz_alloc.Factory.randomized ~n:config.Config.shuffle_n
        ~source:(Source.marsaglia ~seed:heap_seed)
        config.Config.base_allocator heap_arena
    else Stz_alloc.Factory.base config.Config.base_allocator heap_arena
  in
  let frame_sizes = Array.map (fun f -> f.Ir.frame_size) p.Ir.funcs in
  let stack =
    if config.Config.stack then
      Stack.randomized ~machine
        ~source:(Source.marsaglia ~seed:stack_seed)
        ~base:(Address_space.stack_base space)
        ~table_base:(globals_end space p) ~frame_sizes
    else
      Stack.plain ~machine ~base:(Address_space.stack_base space) ~frame_sizes
  in
  let code_rand =
    if config.Config.code then
      let code_heap =
        Stz_alloc.Factory.randomized ~n:config.Config.shuffle_n
          ~source:(Source.marsaglia ~seed:code_seed)
          Stz_alloc.Allocator.Segregated
          (Address_space.code_heap_arena space)
      in
      Some
        (Code_rand.create ~machine ~code_heap
           ~source:(Source.xorshift ~seed:code_seed)
           ~granularity:config.Config.granularity
           ~reloc_style:config.Config.reloc_style p)
    else None
  in
  let views = if config.Config.code then [||] else static_views p static in
  let epoch_start = ref 0 in
  let epochs = ref 1 in
  let adaptive_triggers = ref 0 in
  let penalties_at_epoch_start = ref 0 in
  let rerandomizing =
    config.Config.rerandomize && (config.Config.code || config.Config.stack)
  in
  (* Penalty events for the §8 adaptive trigger: an unlucky layout shows
     up as an elevated miss + misprediction rate. *)
  let penalties () =
    let c = Hierarchy.counters machine in
    c.Hierarchy.l1i_misses + c.Hierarchy.l1d_misses
    + c.Hierarchy.branch_mispredictions
  in
  let adaptive_fire () =
    if not config.Config.adaptive then false
    else begin
      let now = Hierarchy.cycles machine in
      let elapsed = now - !epoch_start in
      (* Only consider firing once the epoch has enough signal. *)
      elapsed >= config.Config.interval_cycles / 4
      && now > 0
      &&
      let epoch_rate =
        float_of_int (penalties () - !penalties_at_epoch_start)
        /. float_of_int (max 1 elapsed)
      in
      let run_rate = float_of_int (penalties ()) /. float_of_int now in
      epoch_rate > config.Config.adaptive_threshold *. run_rate
    end
  in
  let maybe_rerandomize () =
    if rerandomizing then begin
      let timer_fired =
        Hierarchy.cycles machine - !epoch_start >= config.Config.interval_cycles
      in
      let adaptive_fired = (not timer_fired) && adaptive_fire () in
      if timer_fired || adaptive_fired then begin
        epoch_start := Hierarchy.cycles machine;
        penalties_at_epoch_start := penalties ();
        incr epochs;
        if adaptive_fired then incr adaptive_triggers;
        (match rlog with
        | Some l ->
            Runlog.instant l ~cat:"runtime" "rerandomize"
              ~args:
                [
                  ("epoch", Stz_telemetry.Json.Int !epochs);
                  ( "trigger",
                    Stz_telemetry.Json.String
                      (if adaptive_fired then "adaptive" else "timer") );
                ]
              ~now:(Hierarchy.cycles machine)
        | None -> ());
        (match code_rand with Some cr -> Code_rand.rerandomize cr | None -> ());
        let rewritten = Stack.rerandomize stack in
        (* Refilling the pad tables streams over them once. *)
        Hierarchy.charge machine (rewritten / 8)
      end
    end
  in
  (* Attribution owner tracking: only when the factory handed us an
     armed machine (szc explain / layout sweep); campaigns on dark
     machines skip both branches entirely. *)
  let attrib_on = Hierarchy.attrib_armed machine in
  let owner_stack = ref [] in
  let enter_function ~fid =
    maybe_rerandomize ();
    (match profiler with
    | Some pr -> Profiler.on_enter pr ~fid ~at:(Hierarchy.counters machine)
    | None -> ());
    if attrib_on then begin
      owner_stack := fid :: !owner_stack;
      Hierarchy.set_attrib_owner machine fid
    end;
    match code_rand with
    | Some cr -> Code_rand.enter cr ~fid
    | None -> views.(fid)
  in
  let frame_pop ~fid =
    Stack.pop stack ~fid;
    (match profiler with
    | Some pr -> Profiler.on_leave pr ~fid ~at:(Hierarchy.counters machine)
    | None -> ());
    if attrib_on then begin
      (match !owner_stack with [] -> () | _ :: rest -> owner_stack := rest);
      Hierarchy.set_attrib_owner machine
        (match !owner_stack with [] -> -1 | caller :: _ -> caller)
    end;
    match code_rand with Some cr -> Code_rand.leave cr ~fid | None -> ()
  in
  let global_addr ~caller ~gid =
    (match code_rand with
    | Some cr -> (
        (* Indirect through the caller's relocation table (no
           indirection under the fixed-table ABI, §3.5). *)
        match Code_rand.global_entry_addr cr ~caller ~gid with
        | Some entry -> ignore (Hierarchy.data machine entry)
        | None -> ())
    | None -> ());
    static.Static_layout.global_addrs.(gid)
  in
  let call_prologue ~caller ~callee =
    Hierarchy.charge machine 2;
    match code_rand with
    | Some cr ->
        ignore (Hierarchy.data machine (Code_rand.call_entry_addr cr ~caller ~callee))
    | None -> ()
  in
  let malloc ~size =
    Hierarchy.charge machine malloc_cycles;
    let addr = heap.Stz_alloc.Allocator.malloc size in
    ignore (Hierarchy.data machine addr);
    addr
  in
  let free ~addr =
    Hierarchy.charge machine free_cycles;
    heap.Stz_alloc.Allocator.free addr
  in
  let env =
    {
      Interp.machine;
      enter_function;
      frame_push = (fun ~fid -> Stack.push stack ~fid);
      frame_pop;
      global_addr;
      malloc;
      free;
      call_prologue;
    }
  in
  (match rlog with
  | Some l -> Runlog.begin_span l ~cat:"runtime" "execute" ~now:0
  | None -> ());
  let relocations () =
    match code_rand with Some cr -> Code_rand.relocations cr | None -> 0
  in
  match Interp.run ?limits (env_wrap env) p ~args with
  | return_value ->
      let cycles = Hierarchy.cycles machine in
      (match profiler with
      | Some pr -> Profiler.finish pr ~at:(Hierarchy.counters machine)
      | None -> ());
      let run_events =
        match rlog with
        | None -> []
        | Some l ->
            Runlog.end_span l ~now:cycles;
            Runlog.events l
      in
      {
        cycles;
        virtual_seconds = float_of_int cycles /. 3.2e9;
        return_value;
        counters = Hierarchy.counters machine;
        relocations = relocations ();
        epochs = !epochs;
        adaptive_triggers = !adaptive_triggers;
        heap_stats = heap.Stz_alloc.Allocator.stats ();
        profile = Option.map Profiler.hottest profiler;
        events = run_events;
      }
  | exception ((Stack_overflow | Assert_failure _) as fatal) -> raise fatal
  | exception trap ->
      (* The run died mid-flight (fuel starvation, injected OOM, depth
         blowout, …). Don't lose what the machine measured up to the
         trap: wrap the exception together with the partial counters and
         a closed, well-formed event stream. *)
      let cycles = Hierarchy.cycles machine in
      let trap_events =
        match rlog with
        | None -> []
        | Some l ->
            Runlog.instant l ~cat:"runtime" "trap"
              ~args:[ ("exn", Stz_telemetry.Json.String (Printexc.to_string trap)) ]
              ~now:cycles;
            Runlog.close l ~now:cycles;
            Runlog.events l
      in
      let partial =
        {
          p_cycles = cycles;
          p_counters = Hierarchy.counters machine;
          p_epochs = !epochs;
          p_relocations = relocations ();
          p_adaptive_triggers = !adaptive_triggers;
        }
      in
      raise (Trap { trap; partial; events = trap_events })

(* The process's spare default machine. A run without a factory takes
   it and resets it, which is cheaper than building one and allocates
   nothing, and puts it back when it returns or traps. A run that finds
   the slot empty (one nested in another run's callbacks) builds its
   own. Forked workers inherit the slot. *)
let spare : Hierarchy.t option Atomic.t = Atomic.make None

let run ?limits ?(profile = false) ?(events = false) ?machine_factory
    ?(env_wrap = Fun.id) ~config ~seed p ~args =
  match machine_factory with
  | Some factory ->
      execute ?limits ~profile ~events ~env_wrap ~config ~seed p ~args (factory ())
  | None ->
      let machine =
        match Atomic.exchange spare None with
        | Some m ->
            Hierarchy.reset m;
            m
        | None -> Hierarchy.create ()
      in
      Fun.protect
        ~finally:(fun () -> Atomic.set spare (Some machine))
        (fun () -> execute ?limits ~profile ~events ~env_wrap ~config ~seed p ~args machine)
