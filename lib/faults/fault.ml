type fault_class =
  | Fuel_starvation
  | Depth_blowout
  | Alloc_failure
  | Preemption_spike
  | Seed_poisoning
  | Unknown_trap

let all_classes =
  [
    Fuel_starvation; Depth_blowout; Alloc_failure; Preemption_spike;
    Seed_poisoning; Unknown_trap;
  ]

let class_to_string = function
  | Fuel_starvation -> "fuel-starvation"
  | Depth_blowout -> "depth-blowout"
  | Alloc_failure -> "alloc-failure"
  | Preemption_spike -> "preemption-spike"
  | Seed_poisoning -> "seed-poisoning"
  | Unknown_trap -> "unknown-trap"

let class_of_string s =
  List.find_opt (fun c -> class_to_string c = s) all_classes

exception Injected_oom

type profile = {
  fuel_starvation : float;
  depth_blowout : float;
  alloc_failure : float;
  preemption_spike : float;
  seed_poisoning : float;
  wedge : float;
  fuel_fraction : float;
  starved_depth : int;
  oom_after : int;
  spike_cycles : int;
  spike_rate : float;
}

let none =
  {
    fuel_starvation = 0.0;
    depth_blowout = 0.0;
    alloc_failure = 0.0;
    preemption_spike = 0.0;
    seed_poisoning = 0.0;
    wedge = 0.0;
    fuel_fraction = 0.001;
    starved_depth = 2;
    oom_after = 4;
    spike_cycles = 25_000;
    spike_rate = 0.02;
  }

let light =
  {
    none with
    fuel_starvation = 0.04;
    depth_blowout = 0.03;
    alloc_failure = 0.04;
    preemption_spike = 0.08;
    seed_poisoning = 0.03;
  }

let heavy =
  {
    none with
    fuel_starvation = 0.15;
    depth_blowout = 0.10;
    alloc_failure = 0.15;
    preemption_spike = 0.25;
    seed_poisoning = 0.10;
  }

let chaos =
  {
    none with
    fuel_starvation = 1.0;
    depth_blowout = 1.0;
    alloc_failure = 1.0;
    preemption_spike = 1.0;
    seed_poisoning = 1.0;
  }

let named =
  [ ("none", none); ("light", light); ("heavy", heavy); ("chaos", chaos) ]

let parse_profile ~what ~named ~none ~keys s =
  match List.assoc_opt s named with
  | Some p -> Ok p
  | None ->
      List.fold_left
        (fun acc part ->
          Result.bind acc (fun p ->
              match String.split_on_char '=' (String.trim part) with
              | [ key; v ] -> (
                  match float_of_string_opt v with
                  | None -> Error (Printf.sprintf "bad probability %S" v)
                  | Some f when f < 0.0 || f > 1.0 ->
                      Error (Printf.sprintf "probability %g outside [0,1]" f)
                  | Some f -> (
                      match List.assoc_opt key keys with
                      | Some set -> Ok (set p f)
                      | None ->
                          Error
                            (Printf.sprintf "unknown %s key %S (%s)" what key
                               (String.concat ", " (List.map fst keys)))))
              | _ ->
                  Error
                    (Printf.sprintf
                       "bad %s spec %S; want a preset or key=prob list" what
                       part)))
        (Ok none)
        (String.split_on_char ',' s)

let profile_of_string =
  parse_profile ~what:"fault" ~named ~none
    ~keys:
      [
        ("fuel", fun p f -> { p with fuel_starvation = f });
        ("depth", fun p f -> { p with depth_blowout = f });
        ("oom", fun p f -> { p with alloc_failure = f });
        ("preempt", fun p f -> { p with preemption_spike = f });
        ("poison", fun p f -> { p with seed_poisoning = f });
        ("wedge", fun p f -> { p with wedge = f });
      ]

let fingerprint p =
  Printf.sprintf
    "fuel=%g,depth=%g,oom=%g,preempt=%g,poison=%g,wedge=%g,ff=%g,sd=%d,oa=%d,sc=%d,sr=%g"
    p.fuel_starvation p.depth_blowout p.alloc_failure p.preemption_spike
    p.seed_poisoning p.wedge p.fuel_fraction p.starved_depth p.oom_after
    p.spike_cycles p.spike_rate
