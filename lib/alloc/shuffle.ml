let default_n = 256

type class_array = { entries : int array }

type state = {
  base : Allocator.t;
  source : Stz_prng.Source.t;
  n : int;
  arrays : class_array option array;
}

(* Fill a fresh class array with N objects from the base heap and give
   it an initial full Fisher-Yates shuffle, as described in §3.2. *)
let init_class s c =
  let size = Segregated.size_of_class c in
  let entries = Array.init s.n (fun _ -> s.base.Allocator.malloc size) in
  Stz_prng.Source.shuffle_in_place s.source entries;
  let arr = { entries } in
  s.arrays.(c) <- Some arr;
  arr

let class_array s c =
  match s.arrays.(c) with Some a -> a | None -> init_class s c

let create ~source ?(n = default_n) base =
  if n < 1 then invalid_arg "Shuffle.create: n must be >= 1";
  let s = { base; source; n; arrays = Array.make 32 None } in
  let malloc size =
    let c = Segregated.class_of_size size in
    let arr = class_array s c in
    (* One step of the inside-out shuffle: allocate fresh, swap with a
       random slot, hand out what was in the slot. *)
    let fresh = s.base.Allocator.malloc (Segregated.size_of_class c) in
    let i = Stz_prng.Source.int s.source s.n in
    let out = arr.entries.(i) in
    arr.entries.(i) <- fresh;
    out
  in
  let free addr =
    let size = s.base.Allocator.usable_size addr in
    let c = Segregated.class_of_size size in
    let arr = class_array s c in
    let i = Stz_prng.Source.int s.source s.n in
    let victim = arr.entries.(i) in
    arr.entries.(i) <- addr;
    s.base.Allocator.free victim
  in
  let usable_size addr = s.base.Allocator.usable_size addr in
  let stats () = s.base.Allocator.stats () in
  {
    Allocator.name = Printf.sprintf "shuffle(%s,N=%d)" base.Allocator.name n;
    malloc;
    free;
    usable_size;
    stats;
  }
