type config = { name : string; sets : int; ways : int; line_bits : int }

type attrib_view = {
  funcs : int;
  set_accesses : int array;
  set_misses : int array;
  evictions : int array;  (** funcs*funcs, [victim*funcs + evictor] *)
}

(* Conflict-attribution recorder: off (None) unless armed. When lit it
   observes the access stream without participating in it — no counter,
   tag, stamp or clock mutation depends on it, so the dark and lit
   machines stay counter-identical by construction. *)
type attrib = {
  a_funcs : int;
  mutable owner : int;  (** current function id, -1 = outside any *)
  line_owner : int array;  (** per way slot: installer fid, -1 unknown *)
  a_set_accesses : int array;
  a_set_misses : int array;
  a_evictions : int array;
}

type t = {
  cfg : config;
  line_bits : int;
  set_mask : int;  (** sets - 1 *)
  ways : int;
  tags : int array;  (** sets * ways; -1 = invalid *)
  stamps : int array;  (** LRU timestamps, parallel to [tags] *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
  mutable last_line : int;  (** line of the previous access; -1 = none *)
  mutable last_way : int;  (** the way the tag scan finds [last_line] at *)
  mutable attrib : attrib option;
}

(* No line has been accessed since the ways were invalidated. Line -1
   is the invalid tag itself (reachable only with [line_bits = 0]); the
   scan would find it at the first way of its set, so the memo points
   there and stays exact for every address. *)
let clear_memo t =
  t.last_line <- -1;
  t.last_way <- t.set_mask * t.ways

let create cfg =
  if cfg.sets <= 0 || cfg.sets land (cfg.sets - 1) <> 0 then
    invalid_arg "Cache.create: sets must be a positive power of two";
  if cfg.ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  if cfg.line_bits < 0 || cfg.line_bits > 62 then
    invalid_arg "Cache.create: line_bits must be in [0, 62]";
  let t =
    {
      cfg;
      line_bits = cfg.line_bits;
      set_mask = cfg.sets - 1;
      ways = cfg.ways;
      tags = Array.make (cfg.sets * cfg.ways) (-1);
      stamps = Array.make (cfg.sets * cfg.ways) 0;
      clock = 0;
      accesses = 0;
      misses = 0;
      last_line = -1;
      last_way = 0;
      attrib = None;
    }
  in
  clear_memo t;
  t

let config t = t.cfg

let arm_attrib t ~funcs =
  if funcs <= 0 then invalid_arg "Cache.arm_attrib: funcs must be positive";
  t.attrib <-
    Some
      {
        a_funcs = funcs;
        owner = -1;
        line_owner = Array.make (t.cfg.sets * t.cfg.ways) (-1);
        a_set_accesses = Array.make t.cfg.sets 0;
        a_set_misses = Array.make t.cfg.sets 0;
        a_evictions = Array.make (funcs * funcs) 0;
      }

let attrib_armed t = t.attrib <> None

let set_attrib_owner t fid =
  match t.attrib with None -> () | Some a -> a.owner <- fid

let attrib_view t =
  match t.attrib with
  | None -> None
  | Some a ->
      Some
        {
          funcs = a.a_funcs;
          set_accesses = Array.copy a.a_set_accesses;
          set_misses = Array.copy a.a_set_misses;
          evictions = Array.copy a.a_evictions;
        }

(* Recorder bookkeeping for a miss in [set] that installs into [victim];
   runs before [tags] is overwritten so the evicted line is still
   visible. A real eviction (valid victim line) installed by a
   different function than the evictor is a cross-function conflict. *)
let attrib_miss a tags set victim =
  a.a_set_misses.(set) <- a.a_set_misses.(set) + 1;
  let victim_owner = a.line_owner.(victim) in
  if tags.(victim) <> -1 && victim_owner >= 0 && a.owner >= 0 && victim_owner <> a.owner
  then begin
    let k = (victim_owner * a.a_funcs) + a.owner in
    a.a_evictions.(k) <- a.a_evictions.(k) + 1
  end;
  a.line_owner.(victim) <- a.owner

let access t addr =
  t.accesses <- t.accesses + 1;
  let clock = t.clock + 1 in
  t.clock <- clock;
  let line = addr lsr t.line_bits in
  if line = t.last_line then begin
    (* Nothing touched this cache since [line] was hit or filled at
       [last_way], so it is still there: the scan would find it. *)
    t.stamps.(t.last_way) <- clock;
    (match t.attrib with
    | None -> ()
    | Some a ->
        let set = line land t.set_mask in
        a.a_set_accesses.(set) <- a.a_set_accesses.(set) + 1);
    true
  end
  else begin
    let set = line land t.set_mask in
    let base = set * t.ways in
    let stop = base + t.ways in
    let tags = t.tags in
    let w = ref base in
    while !w < stop && tags.(!w) <> line do
      incr w
    done;
    let hit = !w < stop in
    if not hit then begin
      (* LRU victim: the first way with the smallest stamp. *)
      let stamps = t.stamps in
      w := base;
      for v = base + 1 to stop - 1 do
        if stamps.(v) < stamps.(!w) then w := v
      done
    end;
    (match t.attrib with
    | None -> ()
    | Some a ->
        a.a_set_accesses.(set) <- a.a_set_accesses.(set) + 1;
        if not hit then attrib_miss a tags set !w);
    if not hit then begin
      t.misses <- t.misses + 1;
      tags.(!w) <- line
    end;
    t.stamps.(!w) <- clock;
    t.last_line <- line;
    t.last_way <- !w;
    hit
  end

let probe t addr =
  let line = addr lsr t.line_bits in
  let base = (line land t.set_mask) * t.ways in
  let found = ref false in
  for w = base to base + t.ways - 1 do
    if t.tags.(w) = line then found := true
  done;
  !found

let accesses t = t.accesses
let misses t = t.misses

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  clear_memo t;
  match t.attrib with
  | None -> ()
  | Some a -> Array.fill a.line_owner 0 (Array.length a.line_owner) (-1)

let reset t =
  flush t;
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.accesses <- 0;
  t.misses <- 0;
  t.clock <- 0;
  match t.attrib with
  | None -> ()
  | Some a ->
      a.owner <- -1;
      Array.fill a.a_set_accesses 0 (Array.length a.a_set_accesses) 0;
      Array.fill a.a_set_misses 0 (Array.length a.a_set_misses) 0;
      Array.fill a.a_evictions 0 (Array.length a.a_evictions) 0

let index_bits t =
  let bits = ref 0 and s = ref t.cfg.sets in
  while !s > 1 do
    incr bits;
    s := !s lsr 1
  done;
  (t.cfg.line_bits, t.cfg.line_bits + !bits - 1)
