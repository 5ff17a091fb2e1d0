(** The daemon's client side ([szc remote]): connect with a deadline,
    exponential backoff and seed-deterministic jitter; speak
    {!Protocol} over {!Wire}; and survive daemon restarts by
    idempotently resubmitting and re-attaching mid-stream.

    All errors are values — a dead daemon, a refused socket, a corrupt
    frame or an expired deadline surface as [Error reason], never an
    exception. *)

type t

(** [connect ~socket ~deadline ~seed ()] — retry transient connection
    failures ([ENOENT], [ECONNREFUSED], [EAGAIN]) with exponential
    backoff (50 ms doubling, capped at 1 s) plus a jitter drawn from a
    Splitmix stream over [seed], so a thousand clients with distinct
    seeds never thundering-herd the socket and a test with a fixed
    seed replays the same schedule. [deadline] is an absolute
    [Unix.gettimeofday] instant; past it, [Error]. *)
val connect :
  socket:string -> deadline:float -> seed:int64 -> unit -> (t, string) result

val close : t -> unit

(** Send one request. *)
val send : t -> Protocol.request -> (unit, string) result

(** Read the next response, waiting at most until [deadline]. *)
val read_response :
  t -> deadline:float -> (Protocol.response, string) result

(** [send] then [read_response]. *)
val rpc :
  t -> deadline:float -> Protocol.request -> (Protocol.response, string) result

(** Submit a campaign and follow it to completion: connect, submit
    (idempotent — a resubmit of the same spec attaches to the existing
    campaign), then follow it as {!attach} does from run 0. A submit
    rejected because the daemon is draining is retried like a dropped
    connection; any other rejection is an [Error]. *)
val submit_and_wait :
  socket:string ->
  deadline:float ->
  seed:int64 ->
  tenant:string ->
  id:string ->
  spec:Spool.spec ->
  progress:(int -> string -> unit) ->
  (int * string, string) result

(** [attach ~from_run] follows an existing campaign: stream progress
    from run [from_run], and on any transport failure (daemon killed,
    connection reset) wait {!connect}'s backoff-with-jitter delay,
    reconnect and re-attach from the first run not yet seen.
    [progress] observes each run line from [from_run] on exactly once,
    in run order, across reconnects. Returns the campaign's exit code
    and summary line — [(1, "campaign cancelled")] for a cancelled
    campaign, as the daemon records it — or [Error] with the daemon's
    rejection (e.g. an unknown campaign). *)
val attach :
  socket:string ->
  deadline:float ->
  seed:int64 ->
  tenant:string ->
  id:string ->
  from_run:int ->
  progress:(int -> string -> unit) ->
  (int * string, string) result
