type kind = Bimodal | Gshare of int

type attrib_view = {
  funcs : int;
  alias_mispredictions : int array;  (** funcs*funcs, [prev*funcs + curr] *)
}

(* Off-by-default alias recorder; see cache.mli — same plane-separation
   contract: never feeds back into predictions or counters. *)
type attrib = {
  a_funcs : int;
  mutable owner : int;
  slot_owner : int array;  (** last function to train each entry, -1 *)
  a_alias_mispredictions : int array;
}

type t = {
  counters : Bytes.t;  (** 2-bit saturating counters, one byte each *)
  mask : int;
  kind : kind;
  mutable history : int;  (** global branch history (Gshare) *)
  mutable branches : int;
  mutable mispredictions : int;
  mutable attrib : attrib option;
}

let create ?(entries = 4096) ?(kind = Bimodal) () =
  if entries <= 0 || entries land (entries - 1) <> 0 then
    invalid_arg "Branch.create: entries must be a power of two";
  (match kind with
  | Gshare bits when bits < 1 || bits > 30 ->
      invalid_arg "Branch.create: history bits must be in [1,30]"
  | Gshare _ | Bimodal -> ());
  {
    (* Weakly taken initial state. *)
    counters = Bytes.make entries '\002';
    mask = entries - 1;
    kind;
    history = 0;
    branches = 0;
    mispredictions = 0;
    attrib = None;
  }

let arm_attrib t ~funcs =
  if funcs <= 0 then invalid_arg "Branch.arm_attrib: funcs must be positive";
  let entries = t.mask + 1 in
  t.attrib <-
    Some
      {
        a_funcs = funcs;
        owner = -1;
        slot_owner = Array.make entries (-1);
        a_alias_mispredictions = Array.make (funcs * funcs) 0;
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
          alias_mispredictions = Array.copy a.a_alias_mispredictions;
        }

(* Instructions are 4 bytes in the simulated ISA; drop the offset bits. *)
let index_of t pc =
  match t.kind with
  | Bimodal -> (pc lsr 2) land t.mask
  | Gshare bits ->
      ((pc lsr 2) lxor (t.history land ((1 lsl bits) - 1))) land t.mask

let predict_and_update t ~pc ~taken =
  t.branches <- t.branches + 1;
  let i = index_of t pc in
  let counter = Char.code (Bytes.get t.counters i) in
  let predicted_taken = counter >= 2 in
  let correct = predicted_taken = taken in
  if not correct then t.mispredictions <- t.mispredictions + 1;
  (match t.attrib with
  | None -> ()
  | Some a ->
      let prev = a.slot_owner.(i) in
      if (not correct) && prev >= 0 && a.owner >= 0 && prev <> a.owner then begin
        let k = (prev * a.a_funcs) + a.owner in
        a.a_alias_mispredictions.(k) <- a.a_alias_mispredictions.(k) + 1
      end;
      if a.owner >= 0 then a.slot_owner.(i) <- a.owner);
  (* Int compares, not [Stdlib.min]/[max]: this runs on every simulated
     branch. The counter stays in 0..3, so [unsafe_chr] is exact. *)
  let counter' =
    if taken then (if counter < 3 then counter + 1 else 3)
    else if counter > 0 then counter - 1
    else 0
  in
  Bytes.set t.counters i (Char.unsafe_chr counter');
  (match t.kind with
  | Gshare _ -> t.history <- (t.history lsl 1) lor (if taken then 1 else 0)
  | Bimodal -> ());
  correct

let branches t = t.branches
let mispredictions t = t.mispredictions

let reset t =
  Bytes.fill t.counters 0 (Bytes.length t.counters) '\002';
  t.history <- 0;
  t.branches <- 0;
  t.mispredictions <- 0;
  match t.attrib with
  | None -> ()
  | Some a ->
      a.owner <- -1;
      Array.fill a.slot_owner 0 (Array.length a.slot_owner) (-1);
      Array.fill a.a_alias_mispredictions 0
        (Array.length a.a_alias_mispredictions)
        0
