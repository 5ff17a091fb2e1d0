type t = {
  k : float;
  h : float;
  mutable reference : (float * float) option;  (* mean, sd *)
  mutable pos : float;
  mutable neg : float;
  mutable alarmed : bool;
  mutable observations : int;
}

let create ?(k = 0.5) ?(h = 5.0) () =
  { k; h; reference = None; pos = 0.0; neg = 0.0; alarmed = false; observations = 0 }

let set_reference t ~mean ~sd = t.reference <- Some (mean, sd)

let observe t x =
  t.observations <- t.observations + 1;
  match t.reference with
  | None -> ()
  | Some (mean, sd) ->
      (* An all-equal baseline (sd = 0): score any deviation past the
         threshold-plus-slack so a single drifted observation alarms. *)
      let z =
        if sd > 0.0 then (x -. mean) /. sd
        else if x = mean then 0.0
        else if x > mean then t.h +. t.k +. 1.0
        else -.(t.h +. t.k +. 1.0)
      in
      t.pos <- Stdlib.max 0.0 (t.pos +. z -. t.k);
      t.neg <- Stdlib.max 0.0 (t.neg -. z -. t.k);
      if t.pos > t.h || t.neg > t.h then t.alarmed <- true

let pos t = t.pos
let neg t = t.neg
let alarmed t = t.alarmed
let observations t = t.observations
