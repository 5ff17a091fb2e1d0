(** Exporters for telemetry streams. All timestamps are simulated
    cycles (see {!Trace}), so for a fixed seed the emitted bytes are a
    pure function of the campaign — the property the byte-identity
    tests pin down.

    Chrome [trace_event] output: each group becomes one process
    ([pid] = group index), lanes become threads ([tid] = lane), spans
    are ["ph":"X"] complete events, instants ["ph":"i"], counters
    ["ph":"C"], and process/thread names are emitted as ["ph":"M"]
    metadata. Load the result at [chrome://tracing] or Perfetto. *)

(** One process group named [process_name] (default ["stabilizer"]). *)
val chrome : ?process_name:string -> Event.t list -> Json.t

val chrome_string : ?process_name:string -> Event.t list -> string

(** Multiple process groups — e.g. one per compared arm. *)
val chrome_of_groups : (string * Event.t list) list -> Json.t

val chrome_groups_string : (string * Event.t list) list -> string

(** Structural check used by [szc check-trace] and CI: the value must
    hold a [traceEvents] array of well-formed events with non-negative
    timestamps and at least one non-metadata event. Returns
    [(spans, points)] counts on success. *)
val validate_chrome : Json.t -> (int * int, string) result

val validate_chrome_string : string -> (int * int, string) result
