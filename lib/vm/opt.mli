(** Optimization passes and the -O0/-O1/-O2/-O3 pipelines, standing in
    for LLVM's optimization levels in the paper's §6 evaluation:

    - O1: block-local constant folding, algebraic simplification, dead
      code elimination.
    - O2: O1 plus block-level common subexpression elimination (the
      paper: "-O2 optimizations include basic-block level common
      subexpression elimination") and inlining of small leaf functions.
    - O3: O2 with a higher inlining threshold plus dead global/function
      elimination (the paper: "-O3 adds argument promotion, global dead
      code elimination, increases the amount of inlining..."). Because
      O2 already captured the hot small callees, O3's *true* effect is
      modest — while its layout perturbation (stripped functions, fatter
      hot code) remains large, which is exactly the confound the paper's
      evaluation untangles.

    All passes return fresh programs; inputs are never mutated (an
    unchanged instruction, an immutable value, may be shared between
    input and output), and the output of every pipeline revalidates.

    Cost: {!apply} copies its input once and runs its pipeline in place
    on that copy. Each pass is linear in the IR instructions it visits,
    with a few array operations per instruction and no polymorphic hash
    or compare: {!const_fold}, {!dce} and {!cse_local} index their state
    by register; {!cse_local} invalidates through a per-register index
    of the expressions a register holds or feeds, and its table of
    available expressions hashes them by hand; {!dce} reaches its
    fixpoint with read counts and a worklist, not by re-scanning;
    {!inline_leaves} decides whether a callee is inlinable once per
    function. A pass rewrites only the instructions it changes. Each
    exposed pass copies its input once. *)

type level = O0 | O1 | O2 | O3

val level_to_string : level -> string
val level_of_string : string -> level option

(** Apply the pipeline for a level. *)
val apply : level -> Ir.program -> Ir.program

(** Individual passes, exposed for tests and ablations. Each returns a
    structurally fresh program. *)

val const_fold : Ir.program -> Ir.program

(** Algebraic identities: x+0, x*1, x*0, x|0, x^0, shifts by 0, x/1. *)
val simplify : Ir.program -> Ir.program

(** Plantable optimizer bugs, used by [szc fuzz --plant] and the fuzzer
    acceptance tests to prove the differential oracles catch a real
    historical failure class. [Shift_clamp] re-introduces the pre-PR-7
    shift-clamp symptom inside {!simplify}: shift-by-1 collapses to a
    move ([land 62] dropped the low bit of the amount). Off ([None]) in
    every normal build; forked fuzz workers inherit the setting. *)
type planted = Shift_clamp

val planted_bug : planted option ref

(** Remove pure instructions whose destination is never read
    (function-level fixpoint). *)
val dce : Ir.program -> Ir.program

(** Block-local common subexpression elimination, including redundant
    loads (invalidated by stores and calls). *)
val cse_local : Ir.program -> Ir.program

(** Inline single-block leaf callees up to [threshold] instructions
    (default 16). *)
val inline_leaves : ?threshold:int -> Ir.program -> Ir.program

(** Remove functions unreachable from the entry point and globals no
    remaining function references, renumbering densely. *)
val strip_dead : Ir.program -> Ir.program
