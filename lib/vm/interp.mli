(** The IR interpreter. It executes a program against a machine model
    through an {!env} of layout callbacks, so the same interpreter
    serves unrandomized runs, STABILIZER runs, and every configuration
    in between — the interpreter itself knows nothing about layout
    policy.

    Semantics notes: memory is a word-granular store private to each
    [run] (loads of untouched words read 0; the word of an address is
    [addr lsr 3], so negative addresses are ordinary words). It is held
    in 32 KiB pages in an int-keyed table behind a 16-slot
    direct-mapped page memo, which changes host speed only: a load
    always sees the last value stored to its word. Integer division by
    zero yields 0, and shift amounts are clamped into [0, 62] — wrapped
    through [land 63] like a hardware shifter, then capped at 62 —
    keeping generated programs total. The clamp preserves odd amounts:
    an earlier [land 62] mask silently simulated [x lsl 1] as
    [x lsl 0]. *)

(** Per-invocation view of a function's code placement, captured at
    function entry. If the runtime re-randomizes while the invocation
    is live, the invocation keeps executing at its old addresses — the
    same behaviour as the paper's on-stack functions, which are only
    reclaimed once no return address points into them. *)
type code_view = {
  block_addrs : int array;  (** address of each block's first instruction *)
  branch_flips : bool array;
      (** per-block branch-sense flip (basic-block randomization mode);
          all false at function granularity *)
}

type env = {
  machine : Stz_machine.Hierarchy.t;
  enter_function : fid:int -> code_view;
      (** called on every function entry; the trap point where the
          runtime relocates ped functions and re-randomizes *)
  frame_push : fid:int -> int;  (** returns the new frame's base address *)
  frame_pop : fid:int -> unit;
  global_addr : caller:int -> gid:int -> int;
      (** resolve a global's address; charged through the caller's
          relocation table when code randomization is on *)
  malloc : size:int -> int;
  free : addr:int -> unit;
  call_prologue : caller:int -> callee:int -> unit;
      (** per-call instrumentation cost (stack pad logic, relocation
          table indirection) *)
}

type limits = { max_instructions : int; max_call_depth : int }

val default_limits : limits

(** [limits ()] is {!default_limits} with the given overrides — the
    constructor the fault injector and campaign supervisor use to
    tighten budgets without restating the defaults. *)
val limits : ?max_instructions:int -> ?max_call_depth:int -> unit -> limits

exception Fuel_exhausted
exception Call_depth_exceeded

(** [run env p ~args] executes [p.entry] and returns its return value.
    Cycle counts accumulate in [env.machine]. *)
val run : ?limits:limits -> env -> Ir.program -> args:int list -> int

(** Pure arithmetic semantics, shared with the constant folder. *)
val eval_binop : Ir.binop -> int -> int -> int

val eval_cmp : Ir.cmp -> int -> int -> int

(** A plain environment with no randomization: code laid out by
    [code_addrs] (one base per function, blocks consecutive), stack
    frames contiguous from [stack_base] growing down, globals at
    [global_addrs], and the given allocator. Useful for tests; the
    layout library builds richer environments. *)
val plain_env :
  machine:Stz_machine.Hierarchy.t ->
  code_addrs:int array ->
  global_addrs:int array ->
  stack_base:int ->
  malloc:(int -> int) ->
  free:(int -> unit) ->
  Ir.program ->
  env
