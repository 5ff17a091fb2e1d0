type config = { name : string; entries : int; ways : int; page_bits : int }

type t = { cache : Cache.t }

let create cfg =
  if cfg.ways <= 0 then invalid_arg "Tlb.create: ways must be positive";
  if cfg.entries <= 0 || cfg.entries mod cfg.ways <> 0 then
    invalid_arg "Tlb.create: entries must be a positive multiple of ways";
  let sets = cfg.entries / cfg.ways in
  if sets land (sets - 1) <> 0 then
    invalid_arg "Tlb.create: entries / ways must be a power of two";
  if cfg.page_bits < 0 || cfg.page_bits > 62 then
    invalid_arg "Tlb.create: page_bits must be in [0, 62]";
  {
    cache =
      Cache.create
        { Cache.name = cfg.name; sets; ways = cfg.ways; line_bits = cfg.page_bits };
  }

let access t addr = Cache.access t.cache addr
let arm_attrib t ~funcs = Cache.arm_attrib t.cache ~funcs
let attrib_armed t = Cache.attrib_armed t.cache
let set_attrib_owner t fid = Cache.set_attrib_owner t.cache fid
let attrib_view t = Cache.attrib_view t.cache
let accesses t = Cache.accesses t.cache
let misses t = Cache.misses t.cache
let flush t = Cache.flush t.cache
let reset t = Cache.reset t.cache
