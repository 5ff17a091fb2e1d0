module M = Stz_machine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let small_cache () =
  M.Cache.create { M.Cache.sets = 4; ways = 2; line_bits = 6 }

let cache_hit_after_fill () =
  let c = small_cache () in
  check_bool "first is miss" false (M.Cache.access c 0x1000);
  check_bool "second is hit" true (M.Cache.access c 0x1000);
  check_bool "same line hit" true (M.Cache.access c 0x103F);
  check_bool "next line miss" false (M.Cache.access c 0x1040)

let cache_lru_eviction () =
  let c = small_cache () in
  (* Three lines mapping to set 0 in a 2-way cache: 256-byte set span. *)
  let a = 0x0000 and b = 0x0100 and d = 0x0200 in
  ignore (M.Cache.access c a);
  ignore (M.Cache.access c b);
  ignore (M.Cache.access c d);
  (* a was least recently used: evicted. *)
  check_bool "a evicted" false (M.Cache.probe c a);
  check_bool "b resident" true (M.Cache.probe c b);
  check_bool "d resident" true (M.Cache.probe c d);
  (* Touch b, then insert a new line: d should now be the victim. *)
  ignore (M.Cache.access c b);
  ignore (M.Cache.access c 0x0300);
  check_bool "b kept (recently used)" true (M.Cache.probe c b);
  check_bool "d evicted" false (M.Cache.probe c d)

let cache_sets_disjoint () =
  let c = small_cache () in
  (* Lines in different sets never evict each other. *)
  for s = 0 to 3 do
    ignore (M.Cache.access c (s * 64));
    ignore (M.Cache.access c ((s * 64) + 0x100))
  done;
  for s = 0 to 3 do
    check_bool "still resident" true (M.Cache.probe c (s * 64))
  done

let cache_counters () =
  let c = small_cache () in
  ignore (M.Cache.access c 0);
  ignore (M.Cache.access c 0);
  ignore (M.Cache.access c 64);
  check_int "misses" 2 (M.Cache.misses c)

let cache_probe_no_state_change () =
  let c = small_cache () in
  check_bool "probe empty" false (M.Cache.probe c 0);
  check_int "no miss recorded" 0 (M.Cache.misses c);
  check_bool "still miss" false (M.Cache.access c 0)

let cache_flush_and_reset () =
  let c = small_cache () in
  ignore (M.Cache.access c 0);
  M.Cache.flush c;
  check_bool "flushed" false (M.Cache.probe c 0);
  check_int "stats kept" 1 (M.Cache.misses c);
  M.Cache.reset c;
  check_int "stats cleared" 0 (M.Cache.misses c);
  (* A reset cache is a fresh one: old LRU stamps must not outrank the
     restarted clock, or new lines look older than invalid ways and
     are evicted first. *)
  let geometry = { M.Cache.sets = 1; ways = 2; line_bits = 6 } in
  let misses_on c =
    List.iter (fun line -> ignore (M.Cache.access c (line * 64))) [ 0; 1; 0; 2; 0 ];
    M.Cache.misses c
  in
  let used = M.Cache.create geometry in
  for i = 1 to 10 do
    ignore (M.Cache.access used (i * 64))
  done;
  M.Cache.reset used;
  check_int "reset cache misses like a fresh one"
    (misses_on (M.Cache.create geometry))
    (misses_on used);
  (* The same for the whole machine, on a stream that evicts in L1D. *)
  let stream h =
    for i = 0 to 39 do
      ignore (M.Hierarchy.fetch h (0x400000 + (4 * i)));
      ignore (M.Hierarchy.data h (0x10000000 + (4096 * (i mod 3)) + (8 * (i mod 5))));
      ignore (M.Hierarchy.branch h ~pc:(0x400000 + (4 * i)) ~taken:(i mod 3 = 0))
    done;
    M.Hierarchy.counters_fields (M.Hierarchy.counters h)
  in
  (* The used machine takes ITLB and DTLB misses over 200 pages, then
     ends on the stream's own lines and pages, and trains the predictor
     at the stream's branch addresses against the stream's bias: any
     state a reset left behind would change the stream's counters. *)
  let h = M.Hierarchy.create () in
  for i = 0 to 199 do
    ignore (M.Hierarchy.data h (0x10000000 + (4096 * i)));
    ignore (M.Hierarchy.fetch h (0x400000 + (4096 * i) + (64 * (i mod 64))))
  done;
  for i = 0 to 39 do
    ignore (M.Hierarchy.fetch h (0x400000 + (4 * i)));
    ignore (M.Hierarchy.data h (0x10000000 + (4096 * (i mod 3)) + (8 * (i mod 5))));
    for _ = 1 to 3 do
      ignore (M.Hierarchy.branch h ~pc:(0x400000 + (4 * i)) ~taken:(i mod 3 <> 0))
    done
  done;
  let used = M.Hierarchy.counters h in
  List.iter
    (fun (what, n) -> check_bool ("used machine " ^ what) true (n > 0))
    [
      ("took ITLB misses", used.M.Hierarchy.itlb_misses);
      ("took DTLB misses", used.M.Hierarchy.dtlb_misses);
      ("trained the predictor", used.M.Hierarchy.branches);
    ];
  M.Hierarchy.reset h;
  List.iter2
    (fun (k, fresh) (_, reset) -> check_int ("reset machine: " ^ k) fresh reset)
    (stream (M.Hierarchy.create ()))
    (stream h)

let cache_index_bits () =
  let c = M.Cache.create { M.Cache.sets = 64; ways = 2; line_bits = 6 } in
  Alcotest.(check (pair int int)) "bits 6..11" (6, 11) (M.Cache.index_bits c)

let cache_bad_config () =
  let cache sets ways line_bits () =
    ignore (M.Cache.create { M.Cache.sets; ways; line_bits })
  in
  let tlb entries ways page_bits () =
    ignore (M.Tlb.create { M.Tlb.entries; ways; page_bits })
  in
  List.iter
    (fun (msg, f) -> Alcotest.check_raises msg (Invalid_argument msg) f)
    [
      ("Cache.create: sets must be a positive power of two", cache 3 1 6);
      ("Cache.create: sets must be a positive power of two", cache 0 1 6);
      ("Cache.create: ways must be positive", cache 4 0 6);
      ("Cache.create: line_bits must be in [0, 62]", cache 4 1 (-1));
      ("Cache.create: line_bits must be in [0, 62]", cache 4 1 63);
      ("Tlb.create: ways must be positive", tlb 32 0 12);
      ("Tlb.create: entries must be a positive multiple of ways", tlb 30 4 12);
      ("Tlb.create: entries must be a positive multiple of ways", tlb 0 4 12);
      ("Tlb.create: entries / ways must be a power of two", tlb 24 4 12);
      ("Tlb.create: page_bits must be in [0, 62]", tlb 32 4 (-1));
      ("Tlb.create: page_bits must be in [0, 62]", tlb 32 4 63);
    ];
  (* The edges of the accepted range still build. *)
  cache 1 1 0 ();
  cache 4 2 62 ();
  tlb 1 1 0 ()

(* The access rule before the same-line path and the early-exit scan:
   every access scans the whole set for the tag and for the LRU victim
   (the first way with the smallest stamp), with the conflict recorder
   always lit. [reset] is a fresh model. *)
module Ref_cache = struct
  type t = {
    sets : int;
    ways : int;
    line_bits : int;
    funcs : int;
    tags : int array;
    stamps : int array;
    line_owner : int array;
    evictions : int array;
    mutable clock : int;
    mutable misses : int;
    mutable owner : int;
  }

  let create ~sets ~ways ~line_bits ~funcs =
    {
      sets;
      ways;
      line_bits;
      funcs;
      tags = Array.make (sets * ways) (-1);
      stamps = Array.make (sets * ways) 0;
      line_owner = Array.make (sets * ways) (-1);
      evictions = Array.make (funcs * funcs) 0;
      clock = 0;
      misses = 0;
      owner = -1;
    }

  let access r addr =
    r.clock <- r.clock + 1;
    let tag = addr lsr r.line_bits in
    let base = (tag land (r.sets - 1)) * r.ways in
    let hit = ref (-1) and victim = ref base in
    for w = base to base + r.ways - 1 do
      if !hit < 0 && r.tags.(w) = tag then hit := w;
      if r.stamps.(w) < r.stamps.(!victim) then victim := w
    done;
    if !hit >= 0 then r.stamps.(!hit) <- r.clock
    else begin
      let v = !victim and o = r.line_owner.(!victim) in
      r.misses <- r.misses + 1;
      if r.tags.(v) <> -1 && o >= 0 && r.owner >= 0 && o <> r.owner then
        r.evictions.((o * r.funcs) + r.owner) <- r.evictions.((o * r.funcs) + r.owner) + 1;
      r.line_owner.(v) <- r.owner;
      r.tags.(v) <- tag;
      r.stamps.(v) <- r.clock
    end;
    !hit >= 0

  let flush r =
    Array.fill r.tags 0 (Array.length r.tags) (-1);
    Array.fill r.line_owner 0 (Array.length r.line_owner) (-1)
end

(* The same-line path and the early-exit scan against [Ref_cache]:
   seeded streams of same-line runs, strides and random (also
   negative) addresses, with owner switches, flushes and resets, over
   geometries from 1 to 1024 sets, 1 to 16 ways and 4 to 12 line bits,
   dark and armed. A flush or reset is always followed by the line the
   cache saw last, so a memo that survives either one shows up. Every
   tenth geometry has 1-byte lines, where address -1 is line -1, the
   invalid tag itself. *)
let cache_fast_path_matches_reference () =
  let funcs = 3 in
  let rng = Stz_prng.Xorshift.create ~seed:20261017L in
  let pick n = Stz_prng.Xorshift.next_int rng n in
  for case = 0 to 59 do
    let sets = 1 lsl pick 11 and ways = 1 + pick 16 in
    let line_bits = if case mod 10 = 9 then 0 else 4 + pick 9 in
    let armed = case land 1 = 1 in
    let geometry = Printf.sprintf "case %d: %d sets, %d ways, line_bits %d, %s" case
        sets ways line_bits (if armed then "armed" else "dark") in
    let c = M.Cache.create { M.Cache.sets; ways; line_bits } in
    if armed then M.Cache.arm_attrib c ~funcs;
    let r = ref (Ref_cache.create ~sets ~ways ~line_bits ~funcs) in
    (* Checked silently: a logged assertion per access would write
       megabytes of test output. *)
    let agree what =
      let differs name = Alcotest.failf "%s%s: %s differs from the reference" geometry what name in
      if M.Cache.misses c <> !r.misses then differs "misses";
      match M.Cache.attrib_view c with
      | None -> if armed then differs "attrib_view"
      | Some v ->
          if v.M.Cache.evictions <> !r.evictions then differs "evictions"
    in
    let footprint = 3 * sets * ways lsl line_bits in
    let addr = ref 0 in
    for i = 0 to 2999 do
      (match pick 100 with
      | k when k < 2 ->
          agree " before flush";
          M.Cache.flush c;
          Ref_cache.flush !r
      | k when k < 3 ->
          agree " before reset";
          M.Cache.reset c;
          r := Ref_cache.create ~sets ~ways ~line_bits ~funcs
      | k when k < 6 ->
          let fid = pick (funcs + 1) - 1 in
          M.Cache.set_attrib_owner c fid;
          !r.owner <- fid
      | k when k < 45 -> addr := !addr + pick (1 lsl line_bits)
      | k when k < 70 -> addr := !addr + (sets lsl line_bits) + (8 * pick 4)
      | k when k < 95 -> addr := pick footprint
      | k when k < 97 -> addr := -1 - pick footprint
      | _ -> addr := -1);
      let expect = Ref_cache.access !r !addr in
      if M.Cache.access c !addr <> expect then
        Alcotest.failf "%s: access %d at %#x should %s" geometry i !addr
          (if expect then "hit" else "miss")
    done;
    agree " at the end"
  done

(* Reference model: a cache as a list of (set, tag) with exact LRU,
   checked against the array implementation on random address streams. *)
let cache_matches_reference_model =
  QCheck.Test.make ~name:"cache agrees with reference LRU model" ~count:50
    QCheck.(pair small_int (list (int_bound 0xFFFF)))
    (fun (seed, addrs) ->
      let sets = 4 and ways = 2 and line_bits = 4 in
      let c = M.Cache.create { M.Cache.sets; ways; line_bits } in
      (* reference: per set, most-recent-first list of tags *)
      let model = Array.make sets [] in
      let ok = ref true in
      let rng = Stz_prng.Xorshift.create ~seed:(Int64.of_int (seed + 1)) in
      let stream =
        addrs @ List.init 200 (fun _ -> Stz_prng.Xorshift.next_int rng 0x10000)
      in
      List.iter
        (fun addr ->
          let set = (addr lsr line_bits) land (sets - 1) in
          let tag = addr lsr line_bits in
          let hit_model = List.mem tag model.(set) in
          let hit_impl = M.Cache.access c addr in
          if hit_model <> hit_impl then ok := false;
          let without = List.filter (fun t -> t <> tag) model.(set) in
          let updated = tag :: without in
          model.(set) <-
            (if List.length updated > ways then
               List.filteri (fun i _ -> i < ways) updated
             else updated))
        stream;
      !ok)

(* ------------------------------------------------------------------ *)
(* TLB                                                                 *)
(* ------------------------------------------------------------------ *)

let tlb_page_granularity () =
  let t = M.Tlb.create { M.Tlb.entries = 8; ways = 2; page_bits = 12 } in
  check_bool "first access misses" false (M.Tlb.access t 0x5000);
  check_bool "same page hits" true (M.Tlb.access t 0x5FFF);
  check_bool "next page misses" false (M.Tlb.access t 0x6000);
  check_int "misses" 2 (M.Tlb.misses t)

let tlb_capacity () =
  let t = M.Tlb.create { M.Tlb.entries = 4; ways = 4; page_bits = 12 } in
  (* Touch 5 pages in the same set (fully associative here): one must go. *)
  for p = 0 to 4 do
    ignore (M.Tlb.access t (p * 4096))
  done;
  check_bool "first page evicted" false (M.Tlb.access t 0)

(* ------------------------------------------------------------------ *)
(* Branch predictor                                                    *)
(* ------------------------------------------------------------------ *)

let branch_learns_bias () =
  let b = M.Branch.create ~entries:16 () in
  (* Always-taken branch: after warmup, always predicted. *)
  for _ = 1 to 4 do
    ignore (M.Branch.predict_and_update b ~pc:0x40 ~taken:true)
  done;
  let before = M.Branch.mispredictions b in
  for _ = 1 to 100 do
    ignore (M.Branch.predict_and_update b ~pc:0x40 ~taken:true)
  done;
  check_int "no further mispredictions" before (M.Branch.mispredictions b)

let branch_aliasing_interferes () =
  let b = M.Branch.create ~entries:16 () in
  (* Two branches 16 entries apart alias: (pc >> 2) mod 16 equal. *)
  let pc1 = 0x100 and pc2 = 0x100 + (16 * 4) in
  check_int "alias confirmed" (M.Branch.index_of b pc1) (M.Branch.index_of b pc2);
  (* Opposite-biased aliasing branches destroy each other's state. *)
  for _ = 1 to 200 do
    ignore (M.Branch.predict_and_update b ~pc:pc1 ~taken:true);
    ignore (M.Branch.predict_and_update b ~pc:pc2 ~taken:false)
  done;
  let aliased = M.Branch.mispredictions b in
  (* Same workload without aliasing barely mispredicts. *)
  let b2 = M.Branch.create ~entries:16 () in
  for _ = 1 to 200 do
    ignore (M.Branch.predict_and_update b2 ~pc:0x100 ~taken:true);
    ignore (M.Branch.predict_and_update b2 ~pc:0x104 ~taken:false)
  done;
  let clean = M.Branch.mispredictions b2 in
  check_bool
    (Printf.sprintf "aliasing hurts (%d vs %d)" aliased clean)
    true
    (aliased > 10 * Stdlib.max 1 clean)

let gshare_learns_alternating () =
  (* A strictly alternating branch defeats a bimodal 2-bit counter but
     is perfectly predictable once history indexes the table. *)
  let run kind =
    let b = M.Branch.create ~entries:256 ~kind () in
    for i = 1 to 400 do
      ignore (M.Branch.predict_and_update b ~pc:0x80 ~taken:(i land 1 = 0))
    done;
    M.Branch.mispredictions b
  in
  let bimodal = run M.Branch.Bimodal in
  let gshare = run (M.Branch.Gshare 8) in
  check_bool
    (Printf.sprintf "gshare (%d) beats bimodal (%d) on alternation" gshare bimodal)
    true
    (gshare < bimodal / 4)

let gshare_history_moves_index () =
  let b = M.Branch.create ~entries:256 ~kind:(M.Branch.Gshare 8) () in
  let i0 = M.Branch.index_of b 0x80 in
  ignore (M.Branch.predict_and_update b ~pc:0x80 ~taken:true);
  let i1 = M.Branch.index_of b 0x80 in
  check_bool "history changes the slot" true (i0 <> i1)

(* The slot-introspection surface the attribution plane keys on: the
   documented index functions, exactly. *)
let bimodal_index_formula () =
  let b = M.Branch.create ~entries:16 () in
  List.iter
    (fun pc -> check_int "(pc lsr 2) land mask" ((pc lsr 2) land 15) (M.Branch.index_of b pc))
    [ 0x0; 0x40; 0x44; 0x7c; 0x1004; 0xdeadbeef ];
  (* Instruction words 4 bytes apart get distinct slots until the table
     wraps: entries * 4 bytes of code per alias-free window. *)
  check_int "wraps at entries*4" (M.Branch.index_of b 0x40)
    (M.Branch.index_of b (0x40 + (16 * 4)));
  check_bool "adjacent words distinct" true
    (M.Branch.index_of b 0x40 <> M.Branch.index_of b 0x44)

let gshare_index_formula () =
  let bits = 4 in
  let b = M.Branch.create ~entries:16 ~kind:(M.Branch.Gshare bits) () in
  (* Fresh predictor: history = 0, so gshare degenerates to bimodal. *)
  check_int "zero history = bimodal" ((0x7c lsr 2) land 15)
    (M.Branch.index_of b 0x7c);
  (* Train a known history and check the XOR fold directly. *)
  List.iter
    (fun taken -> ignore (M.Branch.predict_and_update b ~pc:0x40 ~taken))
    [ true; false; true; true ];
  (* Outcomes shift into the history LSB: T,F,T,T -> 0b1011. *)
  let h = 0b1011 in
  let expect pc = ((pc lsr 2) lxor (h land ((1 lsl bits) - 1))) land 15 in
  List.iter
    (fun pc ->
      check_int (Printf.sprintf "xor fold at %x" pc) (expect pc)
        (M.Branch.index_of b pc))
    [ 0x0; 0x40; 0x44; 0x1004 ]

let index_of_respects_mask () =
  List.iter
    (fun entries ->
      let b = M.Branch.create ~entries () in
      for pc = 0 to 1024 do
        let i = M.Branch.index_of b pc in
        check_bool "in range" true (i >= 0 && i < entries)
      done)
    [ 1; 2; 16; 256 ]

let branch_counts () =
  let b = M.Branch.create ~entries:16 () in
  for _ = 1 to 10 do
    ignore (M.Branch.predict_and_update b ~pc:0 ~taken:true)
  done;
  check_int "branches" 10 (M.Branch.branches b);
  M.Branch.reset b;
  check_int "reset" 0 (M.Branch.branches b)

(* ------------------------------------------------------------------ *)
(* Hierarchy                                                           *)
(* ------------------------------------------------------------------ *)

let hierarchy_fetch_locality () =
  let h = M.Hierarchy.create () in
  let cold = M.Hierarchy.fetch h 0x400000 in
  let warm = M.Hierarchy.fetch h 0x400004 in
  check_bool "cold fetch expensive" true (cold > warm);
  check_int "same-line fetch is base cost" (M.Cost.default.M.Cost.base_cycles) warm

let hierarchy_data_levels () =
  let h = M.Hierarchy.create () in
  let miss = M.Hierarchy.data h 0x10000000 in
  let hit = M.Hierarchy.data h 0x10000000 in
  check_bool "miss costs more than hit" true (miss > hit)

let hierarchy_branch_penalty () =
  let h = M.Hierarchy.create () in
  (* Train, then a surprise branch costs the misprediction penalty. *)
  for _ = 1 to 8 do
    ignore (M.Hierarchy.branch h ~pc:0x40 ~taken:true)
  done;
  let penalty = M.Hierarchy.branch h ~pc:0x40 ~taken:false in
  check_int "penalty" M.Cost.default.M.Cost.branch_misprediction penalty

let hierarchy_counters_consistent () =
  let h = M.Hierarchy.create () in
  ignore (M.Hierarchy.fetch h 0x400000);
  ignore (M.Hierarchy.data h 0x10000000);
  ignore (M.Hierarchy.branch h ~pc:0x40 ~taken:true);
  let c = M.Hierarchy.counters h in
  check_int "instructions" 1 c.M.Hierarchy.instructions;
  check_int "branches" 1 c.M.Hierarchy.branches;
  check_bool "cycles positive" true (c.M.Hierarchy.cycles > 0);
  check_bool "cycles match accessor" true (c.M.Hierarchy.cycles = M.Hierarchy.cycles h)

let hierarchy_flush_forces_misses () =
  let h = M.Hierarchy.create () in
  ignore (M.Hierarchy.data h 0x20000000);
  ignore (M.Hierarchy.data h 0x20000000);
  let c1 = M.Hierarchy.counters h in
  M.Hierarchy.flush h;
  ignore (M.Hierarchy.data h 0x20000000);
  let c2 = M.Hierarchy.counters h in
  check_bool "miss after flush" true (c2.M.Hierarchy.l1d_misses > c1.M.Hierarchy.l1d_misses)

let hierarchy_charge_and_reset () =
  let h = M.Hierarchy.create () in
  M.Hierarchy.charge h 123;
  check_int "charged" 123 (M.Hierarchy.cycles h);
  M.Hierarchy.reset h;
  check_int "reset" 0 (M.Hierarchy.cycles h)

(* The fetch-line memo must follow the configured L1I geometry. A
   hardcoded [lsr 6] used to make any non-default line size mischarge:
   with 32-byte lines, 0x...00 and 0x...20 are different lines and the
   second fetch must walk the I-side again. *)
let hierarchy_fetch_line_follows_config () =
  let l1i = { M.Cache.sets = 64; ways = 2; line_bits = 5 } in
  let h = M.Hierarchy.create ~l1i () in
  ignore (M.Hierarchy.fetch h 0x400000);
  ignore (M.Hierarchy.fetch h 0x400020);
  let c = M.Hierarchy.counters h in
  check_int "two 32-byte lines, two L1I misses" 2 c.M.Hierarchy.l1i_misses;
  (* And the converse direction: with 256-byte lines the second fetch
     is the same line, so no new I-side access happens at all. *)
  let l1i = { M.Cache.sets = 16; ways = 2; line_bits = 8 } in
  let h = M.Hierarchy.create ~l1i () in
  ignore (M.Hierarchy.fetch h 0x400000);
  ignore (M.Hierarchy.fetch h 0x4000C0);
  let c = M.Hierarchy.counters h in
  check_int "one 256-byte line, one L1I miss" 1 c.M.Hierarchy.l1i_misses;
  check_int "itlb touched once" 1 c.M.Hierarchy.itlb_misses

(* The decomposed hot path (inline line check + fetch_cross +
   charge_batch) must account exactly like per-instruction fetch. *)
let hierarchy_batched_fetch_identity () =
  let pcs = Array.init 200 (fun i -> 0x400000 + (4 * i * (1 + (i mod 7)))) in
  let h1 = M.Hierarchy.create () in
  Array.iter (fun pc -> ignore (M.Hierarchy.fetch h1 pc)) pcs;
  let h2 = M.Hierarchy.create () in
  let shift = M.Hierarchy.fetch_shift h2 in
  let memo = M.Hierarchy.fetch_line_memo h2 in
  let base = M.Cost.default.M.Cost.base_cycles in
  let pending = ref 0 in
  Array.iter
    (fun pc ->
      if pc lsr shift <> !memo then M.Hierarchy.fetch_cross h2 pc;
      incr pending)
    pcs;
  M.Hierarchy.charge_batch h2 ~instructions:!pending ~cycles:(!pending * base);
  let c1 = M.Hierarchy.counters h1 and c2 = M.Hierarchy.counters h2 in
  List.iter2
    (fun (k, v1) (_, v2) -> check_int k v1 v2)
    (M.Hierarchy.counters_fields c1)
    (M.Hierarchy.counters_fields c2)

(* Consecutive same-line data accesses take the memoized fast path;
   every exported counter must stay identical to the full walk, and a
   line change or flush must end the memo's validity. *)
let hierarchy_data_memo_transparent () =
  let addrs =
    Array.init 300 (fun i ->
        0x20000000 + (8 * (i mod 3)) + (64 * (i mod 11)) + (4096 * (i mod 5)))
  in
  let h = M.Hierarchy.create () in
  Array.iter (fun a -> ignore (M.Hierarchy.data h a)) addrs;
  let c = M.Hierarchy.counters h in
  (* Reference machine: identical geometry but a nonzero L1D hit cost,
     which disables the memo (a repeated hit would owe cycles). Every
     duplicate access then really walks and hits — the miss counters
     must come out identical, proving the memo only skips guaranteed
     hits and never perturbs any replacement decision. *)
  let cost = { M.Cost.default with M.Cost.l1_hit = 1 } in
  let h' = M.Hierarchy.create ~cost () in
  Array.iter (fun a -> ignore (M.Hierarchy.data h' a)) addrs;
  let c' = M.Hierarchy.counters h' in
  check_int "l1d misses identical without memo" c'.M.Hierarchy.l1d_misses
    c.M.Hierarchy.l1d_misses;
  check_int "l2 misses identical without memo" c'.M.Hierarchy.l2_misses
    c.M.Hierarchy.l2_misses;
  check_int "l3 misses identical without memo" c'.M.Hierarchy.l3_misses
    c.M.Hierarchy.l3_misses;
  check_int "dtlb misses identical without memo" c'.M.Hierarchy.dtlb_misses
    c.M.Hierarchy.dtlb_misses;
  (* Same-line repeats cost zero and add no misses. *)
  let h2 = M.Hierarchy.create () in
  let first = M.Hierarchy.data h2 0x30000000 in
  let repeat = M.Hierarchy.data h2 0x30000008 in
  check_bool "first access walks" true (first > 0);
  check_int "same-line repeat is free" 0 repeat;
  let before = M.Hierarchy.counters h2 in
  ignore (M.Hierarchy.data h2 0x30000010);
  let after = M.Hierarchy.counters h2 in
  check_int "no new l1d miss on memoized line" before.M.Hierarchy.l1d_misses
    after.M.Hierarchy.l1d_misses;
  M.Hierarchy.flush h2;
  check_bool "flush clears the data memo" true
    (M.Hierarchy.data h2 0x30000008 > 0)

let () =
  Alcotest.run "machine"
    [
      ( "cache",
        [
          Alcotest.test_case "hit after fill" `Quick cache_hit_after_fill;
          Alcotest.test_case "lru eviction" `Quick cache_lru_eviction;
          Alcotest.test_case "sets disjoint" `Quick cache_sets_disjoint;
          Alcotest.test_case "counters" `Quick cache_counters;
          Alcotest.test_case "probe is pure" `Quick cache_probe_no_state_change;
          Alcotest.test_case "flush/reset" `Quick cache_flush_and_reset;
          Alcotest.test_case "index bits" `Quick cache_index_bits;
          Alcotest.test_case "bad config" `Quick cache_bad_config;
          QCheck_alcotest.to_alcotest cache_matches_reference_model;
          Alcotest.test_case "fast path matches reference" `Quick
            cache_fast_path_matches_reference;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "page granularity" `Quick tlb_page_granularity;
          Alcotest.test_case "capacity" `Quick tlb_capacity;
        ] );
      ( "branch",
        [
          Alcotest.test_case "learns bias" `Quick branch_learns_bias;
          Alcotest.test_case "aliasing interferes" `Quick branch_aliasing_interferes;
          Alcotest.test_case "counts" `Quick branch_counts;
          Alcotest.test_case "gshare alternation" `Quick gshare_learns_alternating;
          Alcotest.test_case "gshare history index" `Quick gshare_history_moves_index;
          Alcotest.test_case "bimodal index formula" `Quick bimodal_index_formula;
          Alcotest.test_case "gshare index formula" `Quick gshare_index_formula;
          Alcotest.test_case "index respects mask" `Quick index_of_respects_mask;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "fetch locality" `Quick hierarchy_fetch_locality;
          Alcotest.test_case "data levels" `Quick hierarchy_data_levels;
          Alcotest.test_case "branch penalty" `Quick hierarchy_branch_penalty;
          Alcotest.test_case "counters" `Quick hierarchy_counters_consistent;
          Alcotest.test_case "flush forces misses" `Quick hierarchy_flush_forces_misses;
          Alcotest.test_case "charge/reset" `Quick hierarchy_charge_and_reset;
          Alcotest.test_case "fetch line follows config" `Quick
            hierarchy_fetch_line_follows_config;
          Alcotest.test_case "batched fetch identity" `Quick
            hierarchy_batched_fetch_identity;
          Alcotest.test_case "data memo transparent" `Quick
            hierarchy_data_memo_transparent;
        ] );
    ]
