type link_order = Declaration | Random_link

type t = {
  code : bool;
  stack : bool;
  heap : bool;
  rerandomize : bool;
  interval_cycles : int;
  adaptive : bool;
  adaptive_threshold : float;
  shuffle_n : int;
  base_allocator : Stz_alloc.Allocator.kind;
  granularity : Stz_layout.Code_rand.granularity;
  reloc_style : Stz_layout.Code_rand.reloc_style;
  link_order : link_order;
  env_bytes : int;
}

let stabilizer =
  {
    code = true;
    stack = true;
    heap = true;
    rerandomize = true;
    interval_cycles = 150_000;
    adaptive = false;
    adaptive_threshold = 1.5;
    shuffle_n = 256;
    base_allocator = Stz_alloc.Allocator.Segregated;
    granularity = Stz_layout.Code_rand.Function_grain;
    reloc_style = Stz_layout.Code_rand.Adjacent_table;
    link_order = Declaration;
    env_bytes = 0;
  }

let baseline =
  { stabilizer with code = false; stack = false; heap = false; rerandomize = false }

let one_time = { stabilizer with rerandomize = false }
let code_only = { stabilizer with stack = false; heap = false }
let code_stack = { stabilizer with heap = false }

let describe t =
  let parts =
    List.filter_map
      (fun (on, name) -> if on then Some name else None)
      [ (t.code, "code"); (t.heap, "heap"); (t.stack, "stack") ]
  in
  let body = match parts with [] -> "baseline" | _ -> String.concat "." parts in
  let body =
    if t.rerandomize && parts <> [] then body
    else if parts <> [] then body ^ ".onetime"
    else body
  in
  (* Every other setting, under its szc flag name, when it differs from
     [stabilizer]: two configurations that time differently never share
     a description, which is a checkpoint's and a ledger entry's
     configuration identity. *)
  let d = stabilizer in
  let settings =
    [
      ( t.interval_cycles <> d.interval_cycles,
        Printf.sprintf "interval=%d" t.interval_cycles );
      (t.adaptive <> d.adaptive, "adaptive");
      (t.shuffle_n <> d.shuffle_n, Printf.sprintf "shuffle-n=%d" t.shuffle_n);
      ( t.base_allocator <> d.base_allocator,
        "alloc=" ^ Stz_alloc.Allocator.kind_to_string t.base_allocator );
      (t.granularity <> d.granularity, "block-grain");
      (t.reloc_style <> d.reloc_style, "fixed-tables");
      (t.link_order <> d.link_order, "link-random");
      (t.env_bytes <> d.env_bytes, Printf.sprintf "env-bytes=%d" t.env_bytes);
      ( t.adaptive_threshold <> d.adaptive_threshold,
        Printf.sprintf "adaptive-threshold=%.17g" t.adaptive_threshold );
    ]
  in
  String.concat " "
    (body
    :: List.filter_map (fun (differs, s) -> if differs then Some s else None)
         settings)
