(* The interpreter's block loop is one top-level recursive function,
   [step], over a per-run record ([run_state]) and a per-invocation
   record ([invocation]); nothing is allocated per block. It carries
   the fuel left and the index of the next fetch-line crossing as
   arguments, so a register ALU instruction costs one dispatch and no
   memory traffic for bookkeeping. *)

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

(* Shift amounts clamp into [0, 62]: [land 63] keeps the encodable
   range (negative amounts wrap like hardware shifters), then 63 clamps
   to 62 so [lsl]/[asr] stay in OCaml's defined range. The clamp must
   not drop low bits — an earlier [land 62] silently turned every odd
   shift (x lsl 1!) into the next-lower even one. *)
let shift_amount (b : int) =
  let s = b land 63 in
  if s > 62 then 62 else s

(* Operands are annotated [int] here and below so every compare is an
   integer compare; an unannotated one compiles to a C call into the
   polymorphic compare (scripts/check_hotpath.sh rejects those). *)
let eval_binop op (a : int) (b : int) =
  match op with
  | Ir.Add -> a + b
  | Ir.Sub -> a - b
  | Ir.Mul -> a * b
  | Ir.Div -> if b = 0 then 0 else a / b
  | Ir.And -> a land b
  | Ir.Or -> a lor b
  | Ir.Xor -> a lxor b
  | Ir.Shl -> a lsl shift_amount b
  | Ir.Shr -> a asr shift_amount b

let eval_cmp op (a : int) (b : int) =
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

let malloc_size (v : int) =
  let s = v land 0xFFFFFF in
  if s < 1 then 1 else s

(* Pre-decoded instruction forms: operand shapes ([Reg] vs [Imm]) are
   resolved once per function per run instead of re-matched on every
   executed instruction. Add, Sub, Mul, And, Or and Xor with a register
   or an immediate second operand — most of what programs execute — get
   forms of their own, so each costs one dispatch; Mul carries its
   surcharge cycles. Div, Shl, Shr, the immediate-register shape and
   all-immediate ops keep [eval_binop] (all-immediate ones folded to
   their constant result at decode; the cycle charge stays — the
   simulated machine still executes them). Decoding is purely
   shape-driven: it never looks at addresses, so one decode per
   function is valid across mid-run re-randomizations, which only move
   code and flip branches. *)
type dinstr =
  | DAddRR of int * int * int (* d, ra, rb *)
  | DAddRI of int * int * int (* d, ra, imm *)
  | DSubRR of int * int * int
  | DSubRI of int * int * int
  | DMulRR of int * int * int * int (* d, ra, rb, surcharge *)
  | DMulRI of int * int * int * int (* d, ra, imm, surcharge *)
  | DAndRR of int * int * int
  | DAndRI of int * int * int
  | DOrRR of int * int * int
  | DOrRI of int * int * int
  | DXorRR of int * int * int
  | DXorRI of int * int * int
  | DBinRR of Ir.binop * int * int * int * int (* op, d, ra, rb, surcharge *)
  | DBinRI of Ir.binop * int * int * int * int (* op, d, ra, imm, surcharge *)
  | DBinIR of Ir.binop * int * int * int * int (* op, d, imm, rb, surcharge *)
  | DBinK of int * int * int (* d, folded result, surcharge *)
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

let surcharge cost = function
  | Ir.Mul -> cost.Stz_machine.Cost.mul
  | Ir.Div -> cost.Stz_machine.Cost.div
  | _ -> 0

let decode_instr cost instr =
  match instr with
  | Ir.Bin (op, d, Ir.Reg ra, Ir.Reg rb) -> (
      match op with
      | Ir.Add -> DAddRR (d, ra, rb)
      | Ir.Sub -> DSubRR (d, ra, rb)
      | Ir.Mul -> DMulRR (d, ra, rb, surcharge cost op)
      | Ir.And -> DAndRR (d, ra, rb)
      | Ir.Or -> DOrRR (d, ra, rb)
      | Ir.Xor -> DXorRR (d, ra, rb)
      | Ir.Div | Ir.Shl | Ir.Shr -> DBinRR (op, d, ra, rb, surcharge cost op))
  | Ir.Bin (op, d, Ir.Reg ra, Ir.Imm ib) -> (
      match op with
      | Ir.Add -> DAddRI (d, ra, ib)
      | Ir.Sub -> DSubRI (d, ra, ib)
      | Ir.Mul -> DMulRI (d, ra, ib, surcharge cost op)
      | Ir.And -> DAndRI (d, ra, ib)
      | Ir.Or -> DOrRI (d, ra, ib)
      | Ir.Xor -> DXorRI (d, ra, ib)
      | Ir.Div | Ir.Shl | Ir.Shr -> DBinRI (op, d, ra, ib, surcharge cost op))
  | Ir.Bin (op, d, Ir.Imm ia, Ir.Reg rb) -> DBinIR (op, d, ia, rb, surcharge cost op)
  | Ir.Bin (op, d, Ir.Imm ia, Ir.Imm ib) ->
      DBinK (d, eval_binop op ia ib, surcharge cost op)
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
  | Ir.Malloc (d, Ir.Imm i) -> DMallocK (d, malloc_size i)
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

(* Instructions are [Ir.instr_bytes] = [1 lsl instr_shift] bytes. *)
let instr_shift = 2
let () = assert (1 lsl instr_shift = Ir.instr_bytes)

(* The state of one [run]. [fuel] is the fuel left as of the last
   write-back: the block loop carries the live value as an argument and
   stores it here before every [env] callback, at calls and returns,
   and before a trap. The instructions retired since the last
   [charge_batch] are exactly the fuel spent since then
   ([flushed - fuel]), so only the mul/div surcharges accumulate per
   instruction. *)
type run_state = {
  env : env;
  machine : Hierarchy.t;
  prog : Ir.program;
  cost : Stz_machine.Cost.t;
  decoded : dinstr array array array;  (** per function; [||] until first entry *)
  memory : mem;
  max_call_depth : int;
  base_cycles : int;
  fetch_shift : int;
  fetch_line : int ref;  (** the machine's fetch-line memo *)
  mutable fuel : int;
  mutable flushed : int;  (** [fuel] at the last [charge_batch] *)
  mutable surcharge : int;  (** mul/div cycles retired since then *)
}

(* One function invocation: its registers, frame and code placement,
   and the block it is executing. *)
type invocation = {
  fid : int;
  depth : int;
  regs : int array;
  frame_base : int;
  view : code_view;
  blocks : dinstr array array;
  mutable base : int;  (** address of the current block's first instruction *)
  mutable flip : bool;  (** the current block's branch-sense flip *)
}

(* Commit the retired instructions and their cycles in one
   [charge_batch]. Called at exactly these points: before every [env]
   callback (they may read cycles — re-randomization, profiling — or
   raise — injected OOM), at function exit, and before
   [Fuel_exhausted] or [Call_depth_exceeded]; so every external
   observation of the machine sees exactly the totals per-instruction
   charging would have produced. Cache/TLB/branch penalties still post
   immediately; order within a block commutes because counters are
   pure sums. *)
let flush rs =
  let n = rs.flushed - rs.fuel in
  if n <> 0 then begin
    Hierarchy.charge_batch rs.machine ~instructions:n
      ~cycles:((n * rs.base_cycles) + rs.surcharge);
    rs.flushed <- rs.fuel;
    rs.surcharge <- 0
  end

let commit rs fuel =
  rs.fuel <- fuel;
  flush rs

let out_of_fuel rs fuel =
  commit rs fuel;
  raise Fuel_exhausted

(* The I-side access of instruction [ii] of the current block, whose
   fetch line may differ from the memo. Returns the index of the first
   instruction past that line: the instructions before it share the
   line the memo now holds, so they skip the check until something else
   can move the memo (a callback or a call). The distance to the next
   line boundary is taken modulo the word size, so it lies in
   [1, 1 lsl fetch_shift] for any [pc]. *)
let fetch_check rs inv ii =
  let pc = inv.base + (ii lsl instr_shift) in
  let line = pc lsr rs.fetch_shift in
  if line <> !(rs.fetch_line) then Hierarchy.fetch_cross rs.machine pc;
  let to_boundary = ((line + 1) lsl rs.fetch_shift) - pc in
  ii + 1 + ((to_boundary - 1) lsr instr_shift)

let decode rs fid =
  let db = rs.decoded.(fid) in
  if Array.length db > 0 then db
  else begin
    let f = rs.prog.Ir.funcs.(fid) in
    let db =
      Array.map (fun b -> Array.map (decode_instr rs.cost) b.Ir.instrs) f.Ir.blocks
    in
    rs.decoded.(fid) <- db;
    db
  end

(* The block loop: [ii] indexes [code], the current block; [fuel] is
   the fuel left and [cross] the index of the next instruction whose
   fetch line can differ from the memo — 0 at block entry, [ii + 1]
   after every callback or call. Each instruction checks the fuel,
   makes its I-side access when [ii] reaches [cross], then executes. *)
let rec step rs inv code ii fuel cross =
  if fuel <= 0 then out_of_fuel rs fuel
  else
    let cross = if ii < cross then cross else fetch_check rs inv ii in
    let fuel = fuel - 1 in
    let regs = inv.regs in
    match code.(ii) with
    | DAddRR (d, a, b) ->
        regs.(d) <- regs.(a) + regs.(b);
        step rs inv code (ii + 1) fuel cross
    | DAddRI (d, a, k) ->
        regs.(d) <- regs.(a) + k;
        step rs inv code (ii + 1) fuel cross
    | DSubRR (d, a, b) ->
        regs.(d) <- regs.(a) - regs.(b);
        step rs inv code (ii + 1) fuel cross
    | DSubRI (d, a, k) ->
        regs.(d) <- regs.(a) - k;
        step rs inv code (ii + 1) fuel cross
    | DMulRR (d, a, b, extra) ->
        rs.surcharge <- rs.surcharge + extra;
        regs.(d) <- regs.(a) * regs.(b);
        step rs inv code (ii + 1) fuel cross
    | DMulRI (d, a, k, extra) ->
        rs.surcharge <- rs.surcharge + extra;
        regs.(d) <- regs.(a) * k;
        step rs inv code (ii + 1) fuel cross
    | DAndRR (d, a, b) ->
        regs.(d) <- regs.(a) land regs.(b);
        step rs inv code (ii + 1) fuel cross
    | DAndRI (d, a, k) ->
        regs.(d) <- regs.(a) land k;
        step rs inv code (ii + 1) fuel cross
    | DOrRR (d, a, b) ->
        regs.(d) <- regs.(a) lor regs.(b);
        step rs inv code (ii + 1) fuel cross
    | DOrRI (d, a, k) ->
        regs.(d) <- regs.(a) lor k;
        step rs inv code (ii + 1) fuel cross
    | DXorRR (d, a, b) ->
        regs.(d) <- regs.(a) lxor regs.(b);
        step rs inv code (ii + 1) fuel cross
    | DXorRI (d, a, k) ->
        regs.(d) <- regs.(a) lxor k;
        step rs inv code (ii + 1) fuel cross
    | DBinRR (op, d, a, b, extra) ->
        rs.surcharge <- rs.surcharge + extra;
        regs.(d) <- eval_binop op regs.(a) regs.(b);
        step rs inv code (ii + 1) fuel cross
    | DBinRI (op, d, a, k, extra) ->
        rs.surcharge <- rs.surcharge + extra;
        regs.(d) <- eval_binop op regs.(a) k;
        step rs inv code (ii + 1) fuel cross
    | DBinIR (op, d, k, b, extra) ->
        rs.surcharge <- rs.surcharge + extra;
        regs.(d) <- eval_binop op k regs.(b);
        step rs inv code (ii + 1) fuel cross
    | DBinK (d, v, extra) ->
        rs.surcharge <- rs.surcharge + extra;
        regs.(d) <- v;
        step rs inv code (ii + 1) fuel cross
    | DCmpRR (op, d, a, b) ->
        regs.(d) <- eval_cmp op regs.(a) regs.(b);
        step rs inv code (ii + 1) fuel cross
    | DCmpRI (op, d, a, k) ->
        regs.(d) <- eval_cmp op regs.(a) k;
        step rs inv code (ii + 1) fuel cross
    | DCmpIR (op, d, k, b) ->
        regs.(d) <- eval_cmp op k regs.(b);
        step rs inv code (ii + 1) fuel cross
    | DCmpK (d, v) ->
        regs.(d) <- v;
        step rs inv code (ii + 1) fuel cross
    | DMovR (d, r) ->
        regs.(d) <- regs.(r);
        step rs inv code (ii + 1) fuel cross
    | DMovI (d, i) ->
        regs.(d) <- i;
        step rs inv code (ii + 1) fuel cross
    | DLoad (d, b, o) ->
        let addr = regs.(b) + o in
        ignore (Hierarchy.data rs.machine addr);
        let word = addr lsr 3 in
        regs.(d) <- (mem_page rs.memory word).(word land page_mask);
        step rs inv code (ii + 1) fuel cross
    | DStoreR (b, o, r) ->
        let addr = regs.(b) + o in
        ignore (Hierarchy.data rs.machine addr);
        let word = addr lsr 3 in
        (mem_page rs.memory word).(word land page_mask) <- regs.(r);
        step rs inv code (ii + 1) fuel cross
    | DStoreI (b, o, i) ->
        let addr = regs.(b) + o in
        ignore (Hierarchy.data rs.machine addr);
        let word = addr lsr 3 in
        (mem_page rs.memory word).(word land page_mask) <- i;
        step rs inv code (ii + 1) fuel cross
    | DFrame (d, o) ->
        regs.(d) <- inv.frame_base + o;
        step rs inv code (ii + 1) fuel cross
    | DGlobal (d, g) ->
        commit rs fuel;
        regs.(d) <- rs.env.global_addr ~caller:inv.fid ~gid:g;
        step rs inv code (ii + 1) fuel (ii + 1)
    | DMallocR (d, r) ->
        let size = malloc_size regs.(r) in
        commit rs fuel;
        regs.(d) <- rs.env.malloc ~size;
        step rs inv code (ii + 1) fuel (ii + 1)
    | DMallocK (d, size) ->
        commit rs fuel;
        regs.(d) <- rs.env.malloc ~size;
        step rs inv code (ii + 1) fuel (ii + 1)
    | DFree r ->
        commit rs fuel;
        rs.env.free ~addr:regs.(r);
        step rs inv code (ii + 1) fuel (ii + 1)
    | DCall (fn, args, dst) ->
        commit rs fuel;
        rs.env.call_prologue ~caller:inv.fid ~callee:fn;
        regs.(dst) <- exec_func rs (inv.depth + 1) fn regs args;
        step rs inv code (ii + 1) rs.fuel (ii + 1)
    | DRetR r ->
        rs.fuel <- fuel;
        regs.(r)
    | DRetI i ->
        rs.fuel <- fuel;
        i
    | DBr b -> enter_block rs inv b fuel
    | DBrcR (c, t, e) ->
        let taken = regs.(c) <> 0 in
        branch rs inv ii taken;
        enter_block rs inv (if taken then t else e) fuel
    | DBrcK (taken, t, e) ->
        branch rs inv ii taken;
        enter_block rs inv (if taken then t else e) fuel

and branch rs inv ii taken =
  let outcome = if inv.flip then not taken else taken in
  ignore
    (Hierarchy.branch rs.machine ~pc:(inv.base + (ii lsl instr_shift)) ~taken:outcome)

and enter_block rs inv bid fuel =
  inv.base <- inv.view.block_addrs.(bid);
  inv.flip <- inv.view.branch_flips.(bid);
  step rs inv inv.blocks.(bid) 0 fuel 0

(* Runs [fid] with its arguments read from [args] against the caller's
   registers [caller_regs], straight into its own. [rs.fuel] is current
   on entry and on return. *)
and exec_func rs depth fid caller_regs args =
  if depth > rs.max_call_depth then begin
    flush rs;
    raise Call_depth_exceeded
  end;
  let view = rs.env.enter_function ~fid in
  let f = rs.prog.Ir.funcs.(fid) in
  let blocks = decode rs fid in
  let regs = Array.make (if f.Ir.n_regs > 1 then f.Ir.n_regs else 1) 0 in
  let n_args = Array.length args in
  let n = if n_args < f.Ir.n_args then n_args else f.Ir.n_args in
  for i = 0 to n - 1 do
    regs.(i) <- (match args.(i) with Ir.Reg r -> caller_regs.(r) | Ir.Imm k -> k)
  done;
  let frame_base = rs.env.frame_push ~fid in
  let inv =
    { fid; depth; regs; frame_base; view; blocks; base = 0; flip = false }
  in
  let result = enter_block rs inv 0 rs.fuel in
  flush rs;
  rs.env.frame_pop ~fid;
  result

let run ?(limits = default_limits) (env : env) p ~args =
  let machine = env.machine in
  let cost = Hierarchy.cost machine in
  let rs =
    {
      env;
      machine;
      prog = p;
      cost;
      decoded = Array.make (Array.length p.Ir.funcs) [||];
      memory = mem_create ();
      max_call_depth = limits.max_call_depth;
      base_cycles = cost.Stz_machine.Cost.base_cycles;
      fetch_shift = Hierarchy.fetch_shift machine;
      fetch_line = Hierarchy.fetch_line_memo machine;
      fuel = limits.max_instructions;
      flushed = limits.max_instructions;
      surcharge = 0;
    }
  in
  let args = Array.of_list (List.map (fun a -> Ir.Imm a) args) in
  exec_func rs 0 p.Ir.entry [||] args
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
