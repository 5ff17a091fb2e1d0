module Injector = Stz_faults.Injector

type t = {
  times : float array;
  cycles : int array;
  results : Runtime.result array;
  outcomes : (int64 * Outcome.run_outcome) array;
}

let seeds ~base_seed ~runs =
  let g = Stz_prng.Splitmix.create base_seed in
  Array.init runs (fun _ -> Stz_prng.Splitmix.split g)

let run_one ?limits ?profile ?events ?profiled ~config ~seed p ~args =
  match profile with
  | None -> Outcome.run ?limits ?events ?profiled ~config ~seed p ~args
  | Some profile ->
      let base = Option.value limits ~default:Stz_vm.Interp.default_limits in
      let plan = Injector.plan ~profile ~limits:base ~seed () in
      Outcome.run ~limits:plan.Injector.limits
        ?machine_factory:plan.Injector.machine_factory
        ~env_wrap:plan.Injector.env_wrap ?events ?profiled ~config ~seed p ~args

let collect_outcomes ?(jobs = 1) ?limits ?profile ?events ?profiled ~config
    ~base_seed ~runs ~args p =
  if runs < 1 then invalid_arg "Sample.collect: runs must be >= 1";
  let seeds = seeds ~base_seed ~runs in
  let outcomes =
    Parallel.map ~jobs
      ~f:(fun i ->
        run_one ?limits ?profile ?events ?profiled ~config ~seed:seeds.(i) p
          ~args)
      runs
  in
  Array.mapi
    (fun i o ->
      ( seeds.(i),
        match o with
        | Parallel.Value outcome -> outcome
        | Parallel.Lost -> Outcome.Worker_lost
        | Parallel.Hung -> Outcome.Worker_hung ))
    outcomes

let of_outcomes outcomes =
  let results =
    Array.to_seq outcomes
    |> Seq.filter_map (function _, Outcome.Completed r -> Some r | _ -> None)
    |> Array.of_seq
  in
  {
    times = Array.map (fun r -> r.Runtime.virtual_seconds) results;
    cycles = Array.map (fun r -> r.Runtime.cycles) results;
    results;
    outcomes;
  }

let collect ?jobs ?limits ?profile ?events ?profiled ~config ~base_seed ~runs
    ~args p =
  of_outcomes
    (collect_outcomes ?jobs ?limits ?profile ?events ?profiled ~config
       ~base_seed ~runs ~args p)

let times ?jobs ?limits ?profile ~config ~base_seed ~runs ~args p =
  (collect ?jobs ?limits ?profile ~config ~base_seed ~runs ~args p).times
