module Hierarchy = Stz_machine.Hierarchy

type code_view = { block_addrs : int array; branch_flips : bool array }

type env = {
  machine : Hierarchy.t;
  enter_function : fid:int -> code_view;
  frame_push : fid:int -> int;
  frame_pop : fid:int -> unit;
  global_addr : caller:int -> gid:int -> int;
  malloc : size:int -> int;
  free : addr:int -> unit;
  call_prologue : caller:int -> callee:int -> unit;
}

type limits = { max_instructions : int; max_call_depth : int }

let default_limits = { max_instructions = 200_000_000; max_call_depth = 10_000 }

let limits ?(max_instructions = default_limits.max_instructions)
    ?(max_call_depth = default_limits.max_call_depth) () =
  { max_instructions; max_call_depth }

exception Fuel_exhausted
exception Call_depth_exceeded

type state = { mutable fuel : int; limits : limits }

let eval_binop op a b =
  match op with
  | Ir.Add -> a + b
  | Ir.Sub -> a - b
  | Ir.Mul -> a * b
  | Ir.Div -> if b = 0 then 0 else a / b
  | Ir.And -> a land b
  | Ir.Or -> a lor b
  | Ir.Xor -> a lxor b
  (* Shift amounts clamp into [0, 62]: [land 63] keeps the encodable
     range (negative amounts wrap like hardware shifters), then 63
     clamps to 62 so [lsl]/[asr] stay in OCaml's defined range. The
     clamp must not drop low bits — an earlier [land 62] silently
     turned every odd shift (x lsl 1!) into the next-lower even one. *)
  | Ir.Shl -> a lsl (Stdlib.min (b land 63) 62)
  | Ir.Shr -> a asr (Stdlib.min (b land 63) 62)

let eval_cmp op a b =
  let r =
    match op with
    | Ir.Eq -> a = b
    | Ir.Ne -> a <> b
    | Ir.Lt -> a < b
    | Ir.Le -> a <= b
    | Ir.Gt -> a > b
    | Ir.Ge -> a >= b
  in
  if r then 1 else 0

(* Pre-decoded instruction forms: operand shapes ([Reg] vs [Imm]) are
   resolved once per function per run instead of re-matched on every
   executed instruction, mul/div surcharge cycles are baked in at
   decode time, and all-immediate ALU ops are folded to their constant
   result (the cycle charge stays — the simulated machine still
   executes them). Decoding is purely shape-driven: it never looks at
   addresses, so one decode per function is valid across mid-run
   re-randomizations, which only move code and flip branches. *)
type dinstr =
  | DBinRR of Ir.binop * int * int * int * int  (* op, d, ra, rb, extra *)
  | DBinRI of Ir.binop * int * int * int * int  (* op, d, ra, imm, extra *)
  | DBinIR of Ir.binop * int * int * int * int  (* op, d, imm, rb, extra *)
  | DBinK of int * int * int (* d, folded result, extra cycles *)
  | DCmpRR of Ir.cmp * int * int * int
  | DCmpRI of Ir.cmp * int * int * int
  | DCmpIR of Ir.cmp * int * int * int
  | DCmpK of int * int (* d, folded result *)
  | DMovR of int * int
  | DMovI of int * int
  | DLoad of int * int * int
  | DStoreR of int * int * int
  | DStoreI of int * int * int
  | DFrame of int * int
  | DGlobal of int * int
  | DMallocR of int * int
  | DMallocK of int * int (* d, clamped size *)
  | DFree of int
  | DCall of int * Ir.operand array * int
  | DRetR of int
  | DRetI of int
  | DBr of int
  | DBrcR of int * int * int
  | DBrcK of bool * int * int (* constant condition; predictor still runs *)

let decode_instr cost instr =
  match instr with
  | Ir.Bin (op, d, a, b) ->
      let extra =
        match op with
        | Ir.Mul -> cost.Stz_machine.Cost.mul
        | Ir.Div -> cost.Stz_machine.Cost.div
        | _ -> 0
      in
      (match (a, b) with
      | Ir.Reg ra, Ir.Reg rb -> DBinRR (op, d, ra, rb, extra)
      | Ir.Reg ra, Ir.Imm ib -> DBinRI (op, d, ra, ib, extra)
      | Ir.Imm ia, Ir.Reg rb -> DBinIR (op, d, ia, rb, extra)
      | Ir.Imm ia, Ir.Imm ib -> DBinK (d, eval_binop op ia ib, extra))
  | Ir.Cmp (op, d, a, b) -> (
      match (a, b) with
      | Ir.Reg ra, Ir.Reg rb -> DCmpRR (op, d, ra, rb)
      | Ir.Reg ra, Ir.Imm ib -> DCmpRI (op, d, ra, ib)
      | Ir.Imm ia, Ir.Reg rb -> DCmpIR (op, d, ia, rb)
      | Ir.Imm ia, Ir.Imm ib -> DCmpK (d, eval_cmp op ia ib))
  | Ir.Mov (d, Ir.Reg r) -> DMovR (d, r)
  | Ir.Mov (d, Ir.Imm i) -> DMovI (d, i)
  | Ir.Load (d, b, o) -> DLoad (d, b, o)
  | Ir.Store (b, o, Ir.Reg r) -> DStoreR (b, o, r)
  | Ir.Store (b, o, Ir.Imm i) -> DStoreI (b, o, i)
  | Ir.Frame (d, o) -> DFrame (d, o)
  | Ir.Global (d, g) -> DGlobal (d, g)
  | Ir.Malloc (d, Ir.Reg r) -> DMallocR (d, r)
  | Ir.Malloc (d, Ir.Imm i) -> DMallocK (d, Stdlib.max 1 (i land 0xFFFFFF))
  | Ir.Free r -> DFree r
  | Ir.Call { fn; args; dst } -> DCall (fn, Array.of_list args, dst)
  | Ir.Ret (Ir.Reg r) -> DRetR r
  | Ir.Ret (Ir.Imm i) -> DRetI i
  | Ir.Br b -> DBr b
  | Ir.Brc (Ir.Reg c, t, e) -> DBrcR (c, t, e)
  | Ir.Brc (Ir.Imm c, t, e) -> DBrcK (c <> 0, t, e)

(* Simulated memory, word-granular ([addr lsr 3], exactly the key the
   former hashtable used, so negative addresses land on the same
   words). A paged flat store replaces per-access hashing: loads see
   exactly what stores put there (0 when untouched), so program
   *values* are identical across layouts — layout affects timing only,
   the paper's premise. Pages live in an int-keyed table; a small
   direct-mapped memo in front of it keeps the handful of pages a loop
   alternates between (its stack frame, a heap object, a global) from
   evicting one another. *)
let page_word_bits = 12
let page_words = 1 lsl page_word_bits
let page_mask = page_words - 1
let memo_slots = 16

(* Page indices are [word lsr page_word_bits] of a logical shift, so
   never negative: the identity is a fine hash and -1 an empty slot. *)
module Pages = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (i : int) = i
end)

type mem = {
  pages : int array Pages.t;
  memo_idx : int array;  (** page index cached in each slot, -1 = empty *)
  memo_page : int array array;
}

let mem_create () =
  {
    pages = Pages.create 64;
    memo_idx = Array.make memo_slots (-1);
    memo_page = Array.make memo_slots [||];
  }

let mem_page m word =
  let idx = word lsr page_word_bits in
  let slot = idx land (memo_slots - 1) in
  if m.memo_idx.(slot) = idx then m.memo_page.(slot)
  else begin
    let page =
      match Pages.find_opt m.pages idx with
      | Some pg -> pg
      | None ->
          let pg = Array.make page_words 0 in
          Pages.add m.pages idx pg;
          pg
    in
    m.memo_idx.(slot) <- idx;
    m.memo_page.(slot) <- page;
    page
  end

let run ?(limits = default_limits) env p ~args =
  let state = { fuel = limits.max_instructions; limits } in
  let machine = env.machine in
  let cost = Hierarchy.cost machine in
  let base_cycles = cost.Stz_machine.Cost.base_cycles in
  let fetch_shift = Hierarchy.fetch_shift machine in
  let fetch_line = Hierarchy.fetch_line_memo machine in
  (* Retired instructions and their base/surcharge cycles accumulate
     here and are committed in one [charge_batch] per basic block (or
     earlier). The flush discipline is what keeps counters bit-exact:
     pending work is flushed before every [env] callback (they may read
     cycles — re-randomization, profiling — or raise — injected OOM)
     and before [Fuel_exhausted], so every external observation of the
     machine sees exactly the totals per-instruction charging would
     have produced. Cache/TLB/branch penalties still post immediately;
     order within a block commutes because counters are pure sums. *)
  let pending_instrs = ref 0 in
  let pending_cycles = ref 0 in
  let flush_pending () =
    if !pending_instrs <> 0 then begin
      Hierarchy.charge_batch machine ~instructions:!pending_instrs
        ~cycles:!pending_cycles;
      pending_instrs := 0;
      pending_cycles := 0
    end
  in
  let memory = mem_create () in
  let decoded = Array.make (Array.length p.Ir.funcs) [||] in
  let decode fid =
    let db = decoded.(fid) in
    if Array.length db > 0 then db
    else begin
      let f = p.Ir.funcs.(fid) in
      let db =
        Array.map (fun b -> Array.map (decode_instr cost) b.Ir.instrs) f.Ir.blocks
      in
      decoded.(fid) <- db;
      db
    end
  in
  let rec exec_func depth fid args =
    if depth > state.limits.max_call_depth then begin
      flush_pending ();
      raise Call_depth_exceeded
    end;
    let view = env.enter_function ~fid in
    let f = p.Ir.funcs.(fid) in
    let dblocks = decode fid in
    let regs = Array.make (Stdlib.max 1 f.Ir.n_regs) 0 in
    List.iteri (fun i a -> if i < f.Ir.n_args then regs.(i) <- a) args;
    let frame = env.frame_push ~fid in
    let rec run_block bid =
      let base = view.block_addrs.(bid) in
      let flip = view.branch_flips.(bid) in
      let dinstrs = dblocks.(bid) in
      let rec step ii =
        if state.fuel <= 0 then begin
          flush_pending ();
          raise Fuel_exhausted
        end;
        state.fuel <- state.fuel - 1;
        let pc = base + (ii * Ir.instr_bytes) in
        if pc lsr fetch_shift <> !fetch_line then
          Hierarchy.fetch_cross machine pc;
        pending_instrs := !pending_instrs + 1;
        pending_cycles := !pending_cycles + base_cycles;
        match dinstrs.(ii) with
        | DBinRR (op, d, ra, rb, extra) ->
            pending_cycles := !pending_cycles + extra;
            regs.(d) <- eval_binop op regs.(ra) regs.(rb);
            step (ii + 1)
        | DBinRI (op, d, ra, ib, extra) ->
            pending_cycles := !pending_cycles + extra;
            regs.(d) <- eval_binop op regs.(ra) ib;
            step (ii + 1)
        | DBinIR (op, d, ia, rb, extra) ->
            pending_cycles := !pending_cycles + extra;
            regs.(d) <- eval_binop op ia regs.(rb);
            step (ii + 1)
        | DBinK (d, v, extra) ->
            pending_cycles := !pending_cycles + extra;
            regs.(d) <- v;
            step (ii + 1)
        | DCmpRR (op, d, ra, rb) ->
            regs.(d) <- eval_cmp op regs.(ra) regs.(rb);
            step (ii + 1)
        | DCmpRI (op, d, ra, ib) ->
            regs.(d) <- eval_cmp op regs.(ra) ib;
            step (ii + 1)
        | DCmpIR (op, d, ia, rb) ->
            regs.(d) <- eval_cmp op ia regs.(rb);
            step (ii + 1)
        | DCmpK (d, v) ->
            regs.(d) <- v;
            step (ii + 1)
        | DMovR (d, r) ->
            regs.(d) <- regs.(r);
            step (ii + 1)
        | DMovI (d, i) ->
            regs.(d) <- i;
            step (ii + 1)
        | DLoad (d, b, o) ->
            let addr = regs.(b) + o in
            ignore (Hierarchy.data machine addr);
            let word = addr lsr 3 in
            regs.(d) <- (mem_page memory word).(word land page_mask);
            step (ii + 1)
        | DStoreR (b, o, r) ->
            let addr = regs.(b) + o in
            ignore (Hierarchy.data machine addr);
            let word = addr lsr 3 in
            (mem_page memory word).(word land page_mask) <- regs.(r);
            step (ii + 1)
        | DStoreI (b, o, i) ->
            let addr = regs.(b) + o in
            ignore (Hierarchy.data machine addr);
            let word = addr lsr 3 in
            (mem_page memory word).(word land page_mask) <- i;
            step (ii + 1)
        | DFrame (d, o) ->
            regs.(d) <- frame + o;
            step (ii + 1)
        | DGlobal (d, g) ->
            flush_pending ();
            regs.(d) <- env.global_addr ~caller:fid ~gid:g;
            step (ii + 1)
        | DMallocR (d, r) ->
            let size = Stdlib.max 1 (regs.(r) land 0xFFFFFF) in
            flush_pending ();
            regs.(d) <- env.malloc ~size;
            step (ii + 1)
        | DMallocK (d, size) ->
            flush_pending ();
            regs.(d) <- env.malloc ~size;
            step (ii + 1)
        | DFree r ->
            flush_pending ();
            env.free ~addr:regs.(r);
            step (ii + 1)
        | DCall (fn, dargs, dst) ->
            let argvals =
              Array.fold_right
                (fun a acc ->
                  (match a with Ir.Reg r -> regs.(r) | Ir.Imm i -> i) :: acc)
                dargs []
            in
            flush_pending ();
            env.call_prologue ~caller:fid ~callee:fn;
            regs.(dst) <- exec_func (depth + 1) fn argvals;
            step (ii + 1)
        | DRetR r -> regs.(r)
        | DRetI i -> i
        | DBr b -> run_block b
        | DBrcR (c, t, e) ->
            let taken = regs.(c) <> 0 in
            let outcome = if flip then not taken else taken in
            ignore (Hierarchy.branch machine ~pc ~taken:outcome);
            run_block (if taken then t else e)
        | DBrcK (taken, t, e) ->
            let outcome = if flip then not taken else taken in
            ignore (Hierarchy.branch machine ~pc ~taken:outcome);
            run_block (if taken then t else e)
      in
      step 0
    in
    let result = run_block 0 in
    flush_pending ();
    env.frame_pop ~fid;
    result
  in
  let result = exec_func 0 p.Ir.entry args in
  flush_pending ();
  result

let plain_env ~machine ~code_addrs ~global_addrs ~stack_base ~malloc ~free p =
  let views =
    Array.mapi
      (fun fid f ->
        let offsets = Ir.block_offsets f in
        {
          block_addrs = Array.map (fun o -> code_addrs.(fid) + o) offsets;
          branch_flips = Array.make (Array.length f.Ir.blocks) false;
        })
      p.Ir.funcs
  in
  let sp = ref stack_base in
  {
    machine;
    enter_function = (fun ~fid -> views.(fid));
    frame_push =
      (fun ~fid ->
        let f = p.Ir.funcs.(fid) in
        sp := !sp - f.Ir.frame_size;
        ignore (Hierarchy.data machine !sp);
        !sp);
    frame_pop =
      (fun ~fid ->
        let f = p.Ir.funcs.(fid) in
        sp := !sp + f.Ir.frame_size);
    global_addr = (fun ~caller:_ ~gid -> global_addrs.(gid));
    malloc = (fun ~size -> malloc size);
    free = (fun ~addr -> free addr);
    call_prologue = (fun ~caller:_ ~callee:_ -> Hierarchy.charge machine 2);
  }
