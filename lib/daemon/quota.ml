type limits = {
  max_campaigns_per_tenant : int;
  max_runs_per_tenant : int;
  global_run_budget : int;
}

let default_limits =
  { max_campaigns_per_tenant = 4; max_runs_per_tenant = 5000; global_run_budget = 20000 }

type tenant_state = { mutable campaigns : int; mutable runs : int }

type t = {
  limits : limits;
  tenants : (string, tenant_state) Hashtbl.t;
  mutable global_runs : int;
  mutable total_campaigns : int;
}

let create limits = { limits; tenants = Hashtbl.create 16; global_runs = 0; total_campaigns = 0 }

let tenant_state t tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some s -> s
  | None ->
      let s = { campaigns = 0; runs = 0 } in
      Hashtbl.add t.tenants tenant s;
      s

type reject = Campaign_quota | Run_quota | Global_budget

let reject_key = function
  | Campaign_quota -> "campaign-quota"
  | Run_quota -> "run-quota"
  | Global_budget -> "global-budget"

let admit t ~tenant ~runs =
  let s = tenant_state t tenant in
  if s.campaigns >= t.limits.max_campaigns_per_tenant then
    Error
      ( Campaign_quota,
        Printf.sprintf "tenant %s at campaign quota (%d in flight)" tenant
          s.campaigns )
  else if s.runs + runs > t.limits.max_runs_per_tenant then
    Error
      ( Run_quota,
        Printf.sprintf
          "tenant %s at run quota (%d in flight + %d requested > %d)" tenant
          s.runs runs t.limits.max_runs_per_tenant )
  else if t.global_runs + runs > t.limits.global_run_budget then
    Error
      ( Global_budget,
        Printf.sprintf
          "global run budget exhausted (%d in flight + %d requested > %d)"
          t.global_runs runs t.limits.global_run_budget )
  else begin
    s.campaigns <- s.campaigns + 1;
    s.runs <- s.runs + runs;
    t.global_runs <- t.global_runs + runs;
    t.total_campaigns <- t.total_campaigns + 1;
    Ok ()
  end

let readmit t ~tenant ~runs =
  let s = tenant_state t tenant in
  s.campaigns <- s.campaigns + 1;
  s.runs <- s.runs + runs;
  t.global_runs <- t.global_runs + runs;
  t.total_campaigns <- t.total_campaigns + 1

let release t ~tenant ~runs =
  (match Hashtbl.find_opt t.tenants tenant with
  | Some s ->
      s.campaigns <- Stdlib.max 0 (s.campaigns - 1);
      s.runs <- Stdlib.max 0 (s.runs - runs);
      if s.campaigns = 0 && s.runs = 0 then Hashtbl.remove t.tenants tenant
  | None -> ());
  t.global_runs <- Stdlib.max 0 (t.global_runs - runs);
  t.total_campaigns <- Stdlib.max 0 (t.total_campaigns - 1)

let in_flight t = t.total_campaigns
let global_runs t = t.global_runs
let limits t = t.limits

let tenants t = Hashtbl.length t.tenants
