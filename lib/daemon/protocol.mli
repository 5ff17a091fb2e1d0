(** Typed requests and responses over {!Wire} frames. Each message is
    one frame: the verb names the constructor, the payload is a JSON
    object. Decoding never raises — a frame that does not parse is a
    protocol error, answered with an [error] frame and a close. *)

type request =
  | Ping
  | Submit of { tenant : string; id : string; spec : Spool.spec }
  | Status of { tenant : string; id : string }
  | Stream of { tenant : string; id : string; from_run : int }
      (** attach to a campaign's progress; finished runs from
          [from_run] on are replayed first, so a reconnecting client
          resumes its feed without gaps. A live runner's feed replays
          from memory (its checkpoint at spawn, then every run since);
          a campaign with no runner replays its spooled checkpoint and
          ends with its result's summary line. That replay reads the
          checkpoint's longest valid prefix, so a campaign whose final
          checkpoint was damaged by injected storage faults replays
          only the salvageable runs. *)
  | Cancel of { tenant : string; id : string }
  | Drain
  | Stats
      (** one ops-plane snapshot ({!Stats_is}); [szc remote top] sends
          one per refresh *)

(** One row of the per-tenant table behind [szc remote top]. *)
type tenant_row = {
  tr_tenant : string;
  tr_active : int;  (** campaigns currently holding run slots *)
  tr_queued : int;  (** admitted campaigns waiting for slots *)
  tr_completed : int;  (** runs finished across in-flight campaigns *)
  tr_runs : int;  (** runs planned across in-flight campaigns *)
  tr_held : int;  (** run slots held right now *)
  tr_deficit : int;  (** accumulated DRR deficit *)
}

(** Ops-plane snapshot: identity and load plus the raw registry
    (counters, gauges, histogram summaries) so clients can render or
    diff without a second round trip. *)
type stats = {
  s_version : string;
  s_uptime_ms : int;
  s_draining : bool;
  s_slots_busy : int;
  s_slots_total : int;
  s_tenants : tenant_row list;
  s_counters : (string * int) list;
  s_gauges : (string * int) list;
  s_hists : (string * Stz_telemetry.Ops.hist_summary) list;
}

type response =
  | Pong
  | Accepted of { id : string; state : string }
      (** admission succeeded — or the submit was an idempotent
          duplicate, in which case [state] reports the existing
          campaign's state *)
  | Rejected of { reason : string }
  | Status_is of {
      state : string;
      completed : int;
      runs : int;
      exit_code : int option;
      info : (string * string) list;
          (** daemon-side extras (uptime_ms, version, last_drain, …);
              encoded only when nonempty and ignored by old decoders,
              so both directions stay backward compatible *)
    }
  | Progress of { run : int; line : string }
  | Summary of { exit_code : int; line : string }
      (** terminal stream message: the campaign's [szc campaign] exit
          code and its one-line report *)
  | Draining of { in_flight : int }
  | Cancelled
  | Stats_is of stats
  | Error_frame of string
      (** protocol fault (corrupt frame, unknown verb, bad payload);
          the sender closes the connection after this frame *)

val request_to_frame : request -> string
val request_of_frame : verb:string -> payload:string -> (request, string) result
val response_to_frame : response -> string

val response_of_frame :
  verb:string -> payload:string -> (response, string) result
