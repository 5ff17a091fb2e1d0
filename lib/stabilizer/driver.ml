let compile ~opt p =
  let compiled = Stz_vm.Opt.apply opt p in
  Stz_vm.Validate.check_exn compiled;
  compiled

let build_and_run ?jobs ?limits ?profile ?events ?profiled ~config ~opt
    ~base_seed ~runs ~args p =
  Sample.collect ?jobs ?limits ?profile ?events ?profiled ~config ~base_seed
    ~runs ~args (compile ~opt p)

let arm_b_salt = 0x0B5EEDL

let campaign ?policy ?profile ?limits ?jobs ?checkpoint ?resume ?on_record
    ?telemetry ?monitor ?dispatch ~config ~opt ~base_seed ~runs ~args p =
  Supervisor.run_campaign ?policy ?profile ?limits ?jobs ?checkpoint ?resume
    ?on_record ?telemetry ?monitor ?dispatch ~config ~base_seed ~runs ~args
    (compile ~opt p)

let compare_campaigns ?alpha ?policy ?profile ?limits ?jobs ?telemetry_a
    ?telemetry_b ~min_n ~config ~base_seed ~runs ~args la lb p =
  let a =
    campaign ?policy ?profile ?limits ?jobs ?telemetry:telemetry_a ~config
      ~opt:la ~base_seed ~runs ~args p
  in
  let b =
    campaign ?policy ?profile ?limits ?jobs ?telemetry:telemetry_b ~config
      ~opt:lb
      ~base_seed:(Int64.add base_seed arm_b_salt)
      ~runs ~args p
  in
  (a, b, Supervisor.verdict ?alpha ~min_n a b)
