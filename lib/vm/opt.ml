type level = O0 | O1 | O2 | O3

let level_to_string = function O0 -> "O0" | O1 -> "O1" | O2 -> "O2" | O3 -> "O3"

let level_of_string = function
  | "O0" | "o0" -> Some O0
  | "O1" | "o1" -> Some O1
  | "O2" | "o2" -> Some O2
  | "O3" | "o3" -> Some O3
  | _ -> None

(* Every pass below rewrites a program it owns, in place: [apply] copies
   its input once and threads that copy through its pipeline, and each
   exposed pass copies its own input. A pass writes an instruction slot
   only where the instruction changes; an unchanged instruction (an
   immutable value) is kept as it is. Function-local passes keep their
   state in arrays indexed by register and compare ints only: the
   optimizer runs once per IR instruction per compile, and a fuzz case
   compiles four times. *)

let imax (a : int) (b : int) = if a > b then a else b
let operand_max m = function Ir.Reg r -> imax m r | Ir.Imm _ -> m

(* One more than the highest register a function names. *)
let regs_named f =
  let m = ref (-1) in
  Array.iter
    (fun blk ->
      let instrs = blk.Ir.instrs in
      for i = 0 to Array.length instrs - 1 do
        m :=
          match instrs.(i) with
          | Ir.Bin (_, d, a, b) | Ir.Cmp (_, d, a, b) ->
              operand_max (operand_max (imax !m d) a) b
          | Ir.Mov (d, a) | Ir.Malloc (d, a) -> operand_max (imax !m d) a
          | Ir.Load (d, b, _) -> imax (imax !m d) b
          | Ir.Store (b, _, v) -> operand_max (imax !m b) v
          | Ir.Frame (d, _) | Ir.Global (d, _) | Ir.Free d -> imax !m d
          | Ir.Call { args; dst; _ } -> List.fold_left operand_max (imax !m dst) args
          | Ir.Ret v | Ir.Brc (v, _, _) -> operand_max !m v
          | Ir.Br _ -> !m
      done)
    f.Ir.blocks;
  !m + 1

(* Rewrite every instruction of [f] through [rewrite], block by block;
   [enter bi] runs before block [bi]. *)
let rewrite_blocks f ~enter rewrite =
  Array.iteri
    (fun bi blk ->
      enter bi;
      let instrs = blk.Ir.instrs in
      for i = 0 to Array.length instrs - 1 do
        let x = instrs.(i) in
        let y = rewrite x in
        if y != x then instrs.(i) <- y
      done)
    f.Ir.blocks

let no_enter (_ : int) = ()

let on_funcs pass p =
  Array.iter pass p.Ir.funcs;
  p

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)
(* ------------------------------------------------------------------ *)

(* Block-local: register [r] holds the constant [value.(r)] while
   [known.(r)] is the current block's index. *)
type consts = { value : int array; known : int array; mutable blk : int }

let subst c op =
  match op with
  | Ir.Reg r when c.known.(r) = c.blk -> Ir.Imm c.value.(r)
  | Ir.Reg _ | Ir.Imm _ -> op

let rec subst_args c args =
  match args with
  | [] -> args
  | a :: rest ->
      let a' = subst c a and rest' = subst_args c rest in
      if a' == a && rest' == rest then args else a' :: rest'

let define c d v =
  c.known.(d) <- c.blk;
  c.value.(d) <- v

let forget c d = c.known.(d) <- -1

let fold_instr c instr =
  match instr with
  | Ir.Bin (op, d, a, b) -> (
      let a' = subst c a and b' = subst c b in
      match (a', b') with
      | Ir.Imm x, Ir.Imm y ->
          let v = Interp.eval_binop op x y in
          define c d v;
          Ir.Mov (d, Ir.Imm v)
      | _ ->
          forget c d;
          if a' == a && b' == b then instr else Ir.Bin (op, d, a', b'))
  | Ir.Cmp (op, d, a, b) -> (
      let a' = subst c a and b' = subst c b in
      match (a', b') with
      | Ir.Imm x, Ir.Imm y ->
          let v = Interp.eval_cmp op x y in
          define c d v;
          Ir.Mov (d, Ir.Imm v)
      | _ ->
          forget c d;
          if a' == a && b' == b then instr else Ir.Cmp (op, d, a', b'))
  | Ir.Mov (d, a) ->
      let a' = subst c a in
      (match a' with Ir.Imm v -> define c d v | Ir.Reg _ -> forget c d);
      if a' == a then instr else Ir.Mov (d, a')
  | Ir.Load (d, _, _) | Ir.Frame (d, _) | Ir.Global (d, _) ->
      forget c d;
      instr
  | Ir.Store (b, o, v) ->
      let v' = subst c v in
      if v' == v then instr else Ir.Store (b, o, v')
  | Ir.Malloc (d, s) ->
      (* [d] is forgotten before the size is read, so a size naming the
         destination stays a register. *)
      forget c d;
      let s' = subst c s in
      if s' == s then instr else Ir.Malloc (d, s')
  | Ir.Free _ | Ir.Br _ -> instr
  | Ir.Call { fn; args; dst } ->
      let args' = subst_args c args in
      forget c dst;
      if args' == args then instr else Ir.Call { fn; args = args'; dst }
  | Ir.Ret v ->
      let v' = subst c v in
      if v' == v then instr else Ir.Ret v'
  | Ir.Brc (v, t, e) -> (
      match subst c v with
      | Ir.Imm k -> Ir.Br (if k <> 0 then t else e)
      | Ir.Reg _ -> instr)

let fold_func f =
  let n = regs_named f in
  let c = { value = Array.make n 0; known = Array.make n (-1); blk = 0 } in
  rewrite_blocks f ~enter:(fun bi -> c.blk <- bi) (fold_instr c)

let const_fold p = on_funcs fold_func (Ir.copy_program p)

(* ------------------------------------------------------------------ *)
(* Algebraic simplification                                            *)
(* ------------------------------------------------------------------ *)

type planted = Shift_clamp

let planted_bug : planted option ref = ref None
let shift_clamp_planted () = match !planted_bug with Some Shift_clamp -> true | None -> false

let simplify_instr instr =
  match instr with
  (* Test hook for the fuzzer's acceptance gauntlet: with Shift_clamp
     planted, shift-by-1 is "simplified" to a move — the observable
     symptom of the pre-PR-7 [land 62] clamp, now expressed as a
     miscompile the differential oracles must catch. Listed before the
     legitimate identities so it wins the match when armed. *)
  | Ir.Bin ((Ir.Shl | Ir.Shr), d, x, Ir.Imm 1) when shift_clamp_planted () ->
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

let simplify_func f = rewrite_blocks f ~enter:no_enter simplify_instr
let simplify p = on_funcs simplify_func (Ir.copy_program p)

(* ------------------------------------------------------------------ *)
(* Dead code elimination                                               *)
(* ------------------------------------------------------------------ *)

(* [f r] once per register read (an instruction reading [r] twice
   calls it twice). *)
let iter_operand f = function Ir.Reg r -> f r | Ir.Imm _ -> ()

let rec iter_args f = function
  | [] -> ()
  | a :: rest ->
      iter_operand f a;
      iter_args f rest

let iter_reads f = function
  | Ir.Bin (_, _, a, b) | Ir.Cmp (_, _, a, b) ->
      iter_operand f a;
      iter_operand f b
  | Ir.Mov (_, a) | Ir.Malloc (_, a) | Ir.Ret a | Ir.Brc (a, _, _) -> iter_operand f a
  | Ir.Load (_, b, _) | Ir.Free b -> f b
  | Ir.Store (b, _, v) ->
      f b;
      iter_operand f v
  | Ir.Call { args; _ } -> iter_args f args
  | Ir.Frame _ | Ir.Global _ | Ir.Br _ -> ()

(* The destination of a pure (removable-when-dead) instruction, or -1.
   Calls, stores, frees and terminators are never removed. Loads are
   pure: removing a dead load preserves values (it only changes timing,
   which is what optimization is supposed to do). *)
let pure_dst = function
  | Ir.Bin (_, d, _, _)
  | Ir.Cmp (_, d, _, _)
  | Ir.Mov (d, _)
  | Ir.Load (d, _, _)
  | Ir.Frame (d, _)
  | Ir.Global (d, _) ->
      d
  | Ir.Store _ | Ir.Malloc _ | Ir.Free _ | Ir.Call _ | Ir.Ret _ | Ir.Br _
  | Ir.Brc _ ->
      -1

(* Function-level fixpoint by read counts: a register nothing live
   reads kills every pure instruction defining it, and each death
   releases the reads of the dead instruction. The survivors are the
   largest set in which every pure instruction's destination is read by
   a survivor — what re-scanning until nothing changes also reaches. *)
let dce_func f =
  let blocks = f.Ir.blocks in
  let total = Array.fold_left (fun acc b -> acc + Array.length b.Ir.instrs) 0 blocks in
  let flat = Array.make total (Ir.Br 0) in
  ignore
    (Array.fold_left
       (fun pos b ->
         let len = Array.length b.Ir.instrs in
         Array.blit b.Ir.instrs 0 flat pos len;
         pos + len)
       0 blocks);
  (* Sized by [n_regs], not [regs_named]: a valid function names no
     register past it, and neither does the inliner's output, since it
     inlines only calls passing exactly the callee's [n_args] arguments,
     and only callees with [n_args <= n_regs]. *)
  let n = imax 1 f.Ir.n_regs in
  let reads = Array.make n 0 in
  (* [defs.(r)]: the first pure instruction defining [r], chained
     through [next_def]. *)
  let defs = Array.make n (-1) and next_def = Array.make total (-1) in
  let count r = reads.(r) <- reads.(r) + 1 in
  for i = total - 1 downto 0 do
    iter_reads count flat.(i);
    let d = pure_dst flat.(i) in
    if d >= 0 then begin
      next_def.(i) <- defs.(d);
      defs.(d) <- i
    end
  done;
  (* Registers whose read count reached 0; each enters at most once. *)
  let unread = Array.make n 0 and top = ref 0 in
  let push r =
    unread.(!top) <- r;
    incr top
  in
  for r = 0 to n - 1 do
    if reads.(r) = 0 && defs.(r) >= 0 then push r
  done;
  let release r =
    let c = reads.(r) - 1 in
    reads.(r) <- c;
    if c = 0 && defs.(r) >= 0 then push r
  in
  let dead = Bytes.make total '\000' in
  while !top > 0 do
    decr top;
    let i = ref defs.(unread.(!top)) in
    while !i >= 0 do
      Bytes.set dead !i '\001';
      iter_reads release flat.(!i);
      i := next_def.(!i)
    done
  done;
  ignore
    (Array.fold_left
       (fun pos b ->
         let len = Array.length b.Ir.instrs in
         let kept = ref 0 in
         for i = pos to pos + len - 1 do
           if Bytes.get dead i = '\000' then incr kept
         done;
         if !kept < len then begin
           let out = Array.make !kept (Ir.Br 0) in
           let k = ref 0 in
           for i = pos to pos + len - 1 do
             if Bytes.get dead i = '\000' then begin
               out.(!k) <- flat.(i);
               incr k
             end
           done;
           b.Ir.instrs <- out
         end;
         pos + len)
       0 blocks)

let dce p = on_funcs dce_func (Ir.copy_program p)

(* ------------------------------------------------------------------ *)
(* Local common subexpression elimination                              *)
(* ------------------------------------------------------------------ *)

type expr_key =
  | Kbin of Ir.binop * Ir.operand * Ir.operand
  | Kcmp of Ir.cmp * Ir.operand * Ir.operand
  | Kframe of int
  | Kglobal of int
  | Kload of Ir.reg * int

let operand_is r = function Ir.Reg x -> x = r | Ir.Imm _ -> false

let key_mentions r = function
  | Kbin (_, a, b) | Kcmp (_, a, b) -> operand_is r a || operand_is r b
  | Kload (base, _) -> base = r
  | Kframe _ | Kglobal _ -> false

module Key = struct
  type t = expr_key

  let binop_code = function
    | Ir.Add -> 0 | Ir.Sub -> 1 | Ir.Mul -> 2 | Ir.Div -> 3 | Ir.And -> 4
    | Ir.Or -> 5 | Ir.Xor -> 6 | Ir.Shl -> 7 | Ir.Shr -> 8

  let cmp_code = function
    | Ir.Eq -> 9 | Ir.Ne -> 10 | Ir.Lt -> 11 | Ir.Le -> 12 | Ir.Gt -> 13
    | Ir.Ge -> 14

  let operand_equal a b =
    match (a, b) with
    | Ir.Reg x, Ir.Reg y | Ir.Imm x, Ir.Imm y -> x = y
    | Ir.Reg _, Ir.Imm _ | Ir.Imm _, Ir.Reg _ -> false

  let equal a b =
    match (a, b) with
    | Kbin (o, a1, b1), Kbin (o', a2, b2) ->
        binop_code o = binop_code o' && operand_equal a1 a2 && operand_equal b1 b2
    | Kcmp (o, a1, b1), Kcmp (o', a2, b2) ->
        cmp_code o = cmp_code o' && operand_equal a1 a2 && operand_equal b1 b2
    | Kframe x, Kframe y | Kglobal x, Kglobal y -> x = y
    | Kload (r, o), Kload (r', o') -> r = r' && o = o'
    | _ -> false

  let operand_hash = function Ir.Reg r -> 2 * r | Ir.Imm i -> (2 * i) + 1
  let mix h x = (h * 65599) + x

  let hash k =
    (match k with
    | Kbin (o, a, b) -> mix (mix (binop_code o) (operand_hash a)) (operand_hash b)
    | Kcmp (o, a, b) -> mix (mix (cmp_code o) (operand_hash a)) (operand_hash b)
    | Kframe o -> mix 15 o
    | Kglobal g -> mix 16 g
    | Kload (r, o) -> mix (mix 17 r) o)
    land max_int
end

module Avail = Hashtbl.Make (Key)

let cse_func f =
  let n = regs_named f in
  let avail = Avail.create 16 in
  let cur = ref 0 in
  (* [watch.(r)], valid while [wstamp.(r)] is the current block: every
     key recorded since [r] was last invalidated that [r] holds or
     mentions (and maybe keys dropped since), so invalidating [r]
     visits no other key. *)
  let watch = Array.make n [] and wstamp = Array.make n (-1) in
  (* Kload keys recorded since the last store, malloc, free or call. *)
  let loads = ref [] in
  let watch_reg r k =
    if wstamp.(r) = !cur then watch.(r) <- k :: watch.(r)
    else begin
      wstamp.(r) <- !cur;
      watch.(r) <- [ k ]
    end
  in
  let record key d =
    Avail.replace avail key d;
    watch_reg d key;
    match key with
    | Kbin (_, a, b) | Kcmp (_, a, b) ->
        (match a with Ir.Reg r -> watch_reg r key | Ir.Imm _ -> ());
        (match b with Ir.Reg r -> watch_reg r key | Ir.Imm _ -> ())
    | Kload (base, _) ->
        watch_reg base key;
        loads := key :: !loads
    | Kframe _ | Kglobal _ -> ()
  in
  let invalidate_reg r =
    if wstamp.(r) = !cur then begin
      List.iter
        (fun k ->
          match Avail.find_opt avail k with
          | Some holder when holder = r || key_mentions r k -> Avail.remove avail k
          | Some _ | None -> ())
        watch.(r);
      watch.(r) <- []
    end
  in
  let invalidate_loads () =
    List.iter (Avail.remove avail) !loads;
    loads := []
  in
  let try_reuse instr d key =
    match Avail.find_opt avail key with
    | Some holder when holder <> d ->
        invalidate_reg d;
        Ir.Mov (d, Ir.Reg holder)
    | Some _ | None ->
        invalidate_reg d;
        (* A key mentioning its own destination refers to the value d
           held *before* this instruction; it must not be recorded. *)
        if not (key_mentions d key) then record key d;
        instr
  in
  let rewrite instr =
    match instr with
    | Ir.Bin (op, d, a, b) -> try_reuse instr d (Kbin (op, a, b))
    | Ir.Cmp (op, d, a, b) -> try_reuse instr d (Kcmp (op, a, b))
    | Ir.Frame (d, o) -> try_reuse instr d (Kframe o)
    | Ir.Global (d, g) -> try_reuse instr d (Kglobal g)
    | Ir.Load (d, b, o) -> try_reuse instr d (Kload (b, o))
    | Ir.Mov (d, _) ->
        invalidate_reg d;
        instr
    | Ir.Store _ | Ir.Free _ ->
        invalidate_loads ();
        instr
    | Ir.Malloc (d, _) | Ir.Call { dst = d; _ } ->
        invalidate_reg d;
        invalidate_loads ();
        instr
    | Ir.Ret _ | Ir.Br _ | Ir.Brc _ -> instr
  in
  let enter bi =
    cur := bi;
    if Avail.length avail > 0 then Avail.reset avail;
    loads := []
  in
  rewrite_blocks f ~enter rewrite

let cse_local p = on_funcs cse_func (Ir.copy_program p)

(* ------------------------------------------------------------------ *)
(* Inlining                                                            *)
(* ------------------------------------------------------------------ *)

let default_inline_threshold = 16
let o1_inline_threshold = 10
let o3_inline_threshold = 120

(* A callee's body with its registers moved to [reg_base] and up, its
   frame slots past the caller's [frame] bytes, and its return a move
   to the call's [ret]. *)
let inline_instr ~reg_base ~frame ~ret instr =
  let reg r = reg_base + r in
  let operand = function Ir.Reg r -> Ir.Reg (reg_base + r) | Ir.Imm _ as o -> o in
  match instr with
  | Ir.Bin (op, d, a, b) -> Ir.Bin (op, reg d, operand a, operand b)
  | Ir.Cmp (op, d, a, b) -> Ir.Cmp (op, reg d, operand a, operand b)
  | Ir.Mov (d, a) -> Ir.Mov (reg d, operand a)
  | Ir.Load (d, b, o) -> Ir.Load (reg d, reg b, o)
  | Ir.Store (b, o, v) -> Ir.Store (reg b, o, operand v)
  | Ir.Frame (d, o) -> Ir.Frame (reg d, o + frame)
  | Ir.Global (d, g) -> Ir.Global (reg d, g)
  | Ir.Malloc (d, s) -> Ir.Malloc (reg d, operand s)
  | Ir.Free r -> Ir.Free (reg r)
  | Ir.Ret v -> Ir.Mov (ret, operand v)
  | Ir.Call _ | Ir.Br _ | Ir.Brc _ ->
      (* [inlinable] excludes calls. A one-block callee ending in a
         branch loops on itself; inlining one is unsupported and fails
         here. *)
      assert false

(* Whether a body reads a register at or past [n_args] before writing
   it. A call starts its callee's other registers at zero, but an
   inlined copy would read whatever the caller's registers hold, such
   as the previous iteration's value or an extra argument. *)
let reads_non_arg_first ~n_args ~n_regs body =
  let written = Bytes.make (imax 1 n_regs) '\000' in
  let bad = ref false in
  let read r = if r >= n_args && Bytes.get written r = '\000' then bad := true in
  Array.iter
    (fun instr ->
      iter_reads read instr;
      let d = match instr with Ir.Malloc (d, _) -> d | i -> pure_dst i in
      if d >= 0 then Bytes.set written d '\001')
    body;
  !bad

(* Functions are expanded in fid order, each in place, so a callee
   expanded earlier is inlined with its expanded body and register
   count (but its original frame size), and one expanded later with its
   original body. Whether a callee is inlinable is decided once for
   each of those two bodies; a call is inlined only when it also passes
   exactly the callee's [n_args] arguments (a real call drops extra
   ones and zeroes missing ones). *)
let inline_owned ~threshold p =
  let funcs = p.Ir.funcs in
  let n = Array.length funcs in
  (* 0 = undecided, 1 = inlinable, 2 = not. *)
  let verdict = Array.make n 0 in
  let decide g =
    let h = funcs.(g) in
    g <> p.Ir.entry
    && Array.length h.Ir.blocks = 1
    &&
    let body = h.Ir.blocks.(0).Ir.instrs in
    Array.length body <= threshold
    && not (Array.exists (function Ir.Call _ -> true | _ -> false) body)
    && h.Ir.n_args <= h.Ir.n_regs
    && not (reads_non_arg_first ~n_args:h.Ir.n_args ~n_regs:h.Ir.n_regs body)
  in
  let inlinable caller g args =
    g <> caller
    && List.compare_length_with args funcs.(g).Ir.n_args = 0
    &&
    match verdict.(g) with
    | 1 -> true
    | 2 -> false
    | _ ->
        let v = decide g in
        verdict.(g) <- (if v then 1 else 2);
        v
  in
  let out = Array.copy funcs in
  for j = 0 to n - 1 do
    let f = funcs.(j) in
    let frame = f.Ir.frame_size in
    let extra_frame = ref 0 and next_reg = ref f.Ir.n_regs in
    Array.iter
      (fun blk ->
        let src = blk.Ir.instrs in
        let len = ref 0 and expands = ref false in
        Array.iter
          (function
            | Ir.Call { fn; args; _ } when inlinable j fn args ->
                expands := true;
                len :=
                  !len + List.length args
                  + Array.length funcs.(fn).Ir.blocks.(0).Ir.instrs
            | _ -> incr len)
          src;
        if !expands then begin
          let dst = Array.make !len (Ir.Br 0) in
          let pos = ref 0 in
          let emit i =
            dst.(!pos) <- i;
            incr pos
          in
          Array.iter
            (fun instr ->
              match instr with
              | Ir.Call { fn; args; dst = ret } when inlinable j fn args ->
                  let g = funcs.(fn) in
                  let reg_base = !next_reg in
                  next_reg := reg_base + g.Ir.n_regs;
                  extra_frame := imax !extra_frame g.Ir.frame_size;
                  List.iteri (fun i a -> emit (Ir.Mov (reg_base + i, a))) args;
                  Array.iter
                    (fun gi -> emit (inline_instr ~reg_base ~frame ~ret gi))
                    g.Ir.blocks.(0).Ir.instrs
              | _ -> emit instr)
            src;
          blk.Ir.instrs <- dst
        end)
      f.Ir.blocks;
    f.Ir.n_regs <- !next_reg;
    if !extra_frame <> 0 then
      out.(j) <- { f with Ir.frame_size = frame + !extra_frame };
    verdict.(j) <- 0
  done;
  p.Ir.funcs <- out;
  p

let inline_leaves ?(threshold = default_inline_threshold) p =
  inline_owned ~threshold (Ir.copy_program p)

(* ------------------------------------------------------------------ *)
(* Dead global / function elimination                                  *)
(* ------------------------------------------------------------------ *)

let iter_instrs f func =
  Array.iter (fun blk -> Array.iter f blk.Ir.instrs) func.Ir.blocks

let strip_dead_owned p =
  let funcs = p.Ir.funcs in
  let n = Array.length funcs in
  let reachable = Array.make n false in
  let rec visit fid =
    if not reachable.(fid) then begin
      reachable.(fid) <- true;
      iter_instrs (function Ir.Call { fn; _ } -> visit fn | _ -> ()) funcs.(fid)
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
  let gn = Array.length p.Ir.globals in
  let live_global = Array.make gn false in
  Array.iteri
    (fun fid f ->
      if reachable.(fid) then
        iter_instrs
          (function Ir.Global (_, g) -> live_global.(g) <- true | _ -> ())
          f)
    funcs;
  let gid_map = Array.make gn (-1) in
  let gnext = ref 0 in
  for gid = 0 to gn - 1 do
    if live_global.(gid) then begin
      gid_map.(gid) <- !gnext;
      incr gnext
    end
  done;
  let remap instr =
    match instr with
    | Ir.Call { fn; args; dst } ->
        let fn' = fid_map.(fn) in
        if fn' = fn then instr else Ir.Call { fn = fn'; args; dst }
    | Ir.Global (d, g) ->
        let g' = gid_map.(g) in
        if g' = g then instr else Ir.Global (d, g')
    | _ -> instr
  in
  let funcs =
    Array.to_list funcs
    |> List.filteri (fun fid _ -> reachable.(fid))
    |> List.map (fun f ->
           rewrite_blocks f ~enter:no_enter remap;
           let fid = fid_map.(f.Ir.fid) in
           if fid = f.Ir.fid then f else { f with Ir.fid })
    |> Array.of_list
  in
  let globals =
    Array.to_list p.Ir.globals
    |> List.filteri (fun gid _ -> live_global.(gid))
    |> List.map (fun g -> { g with Ir.gid = gid_map.(g.Ir.gid) })
    |> Array.of_list
  in
  { Ir.funcs; globals; entry = fid_map.(p.Ir.entry) }

let strip_dead p = strip_dead_owned (Ir.copy_program p)

(* ------------------------------------------------------------------ *)
(* Pipelines                                                           *)
(* ------------------------------------------------------------------ *)

let apply level p =
  let fold = on_funcs fold_func
  and simp = on_funcs simplify_func
  and dce = on_funcs dce_func
  and cse = on_funcs cse_func in
  let passes =
    match level with
    | O0 -> []
    (* Like LLVM, the basic inliner already runs at O1 (tiny callees
       only); O2 adds common subexpression elimination; O3 "increases
       the amount of inlining" and strips dead globals (paper §6). *)
    | O1 ->
        [
          fold; simp;
          inline_owned ~threshold:o1_inline_threshold;
          fold; simp; dce;
        ]
    | O2 ->
        [
          fold; simp;
          inline_owned ~threshold:o1_inline_threshold;
          cse; fold; simp; dce;
        ]
    | O3 ->
        [
          fold; simp;
          inline_owned ~threshold:o3_inline_threshold;
          cse; fold; simp; dce;
          strip_dead_owned;
        ]
  in
  let out = List.fold_left (fun acc pass -> pass acc) (Ir.copy_program p) passes in
  Validate.check_exn out;
  out
