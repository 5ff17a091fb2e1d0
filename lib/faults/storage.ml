module Splitmix = Stz_prng.Splitmix
module Artifact = Stz_store.Artifact

type profile = {
  torn_write : float;
  bit_flip : float;
  short_write : float;
  rename_dropped : float;
}

let none =
  { torn_write = 0.0; bit_flip = 0.0; short_write = 0.0; rename_dropped = 0.0 }

let light =
  { torn_write = 0.04; bit_flip = 0.03; short_write = 0.03; rename_dropped = 0.05 }

let heavy =
  { torn_write = 0.15; bit_flip = 0.10; short_write = 0.10; rename_dropped = 0.20 }

let chaos =
  { torn_write = 1.0; bit_flip = 1.0; short_write = 1.0; rename_dropped = 1.0 }

let named =
  [ ("none", none); ("light", light); ("heavy", heavy); ("chaos", chaos) ]

let profile_of_string =
  Fault.parse_profile ~what:"storage fault" ~named ~none
    ~keys:
      [
        ("torn", fun p f -> { p with torn_write = f });
        ("flip", fun p f -> { p with bit_flip = f });
        ("short", fun p f -> { p with short_write = f });
        ("rename", fun p f -> { p with rename_dropped = f });
      ]

let fingerprint p =
  Printf.sprintf "torn=%g,flip=%g,short=%g,rename=%g" p.torn_write p.bit_flip
    p.short_write p.rename_dropped

let active p =
  p.torn_write > 0.0 || p.bit_flip > 0.0 || p.short_write > 0.0
  || p.rename_dropped > 0.0

(* Salt separating the storage stream from the run-fault streams the
   same seed may drive elsewhere. *)
let salt = 0x57_0F_A1_7EEDL

let to_unit_float x = Int64.to_float (Int64.shift_right_logical x 11) *. 0x1p-53

let arm ~seed profile =
  let rng = Splitmix.create (Int64.logxor seed salt) in
  let draw prob = to_unit_float (Splitmix.next rng) < prob in
  let draw_int n =
    if n <= 0 then 0
    else Int64.to_int (Int64.rem (Int64.shift_right_logical (Splitmix.next rng) 1) (Int64.of_int n))
  in
  Artifact.set_injector (fun ~path:_ ~len ->
      (* Fixed draw order keeps the damage stream stable as profiles
         vary; offsets are drawn only for the class that fires, so a
         write's fate depends only on its position in the write
         sequence. *)
      let torn = draw profile.torn_write in
      let flip = draw profile.bit_flip in
      let short = draw profile.short_write in
      let rename = draw profile.rename_dropped in
      if torn && len > 0 then Some (Artifact.Torn_write (draw_int len))
      else if flip && len > 0 then Some (Artifact.Bit_flip (draw_int (8 * len)))
      else if short && len > 0 then
        Some (Artifact.Short_write (1 + draw_int len))
      else if rename then Some Artifact.Rename_dropped
      else None)

let disarm () = Artifact.clear_injector ()
