(** Fork-based worker pool for embarrassingly parallel, seed-determined
    task arrays (the shape of a STABILIZER campaign: every run is a pure
    function of its precomputed seed and shares no mutable state).

    [map ~jobs ~f n] evaluates [f i] for every [i] in [0..n-1] across
    [jobs] forked Unix processes and returns the results merged in task
    order, so the output is independent of worker count and completion
    order. Tasks are striped statically (worker [j] gets [j], [j+jobs],
    …) and each worker streams [(index, value)] pairs back over its own
    pipe with [Marshal], so values must be closure-free data.

    Worker death is not an error: when a worker exits (crash, kill,
    nonzero status) before reporting all of its tasks, the task it was
    executing — the earliest unreported index of its stripe — is
    recorded as {!Lost} and a replacement worker is forked for the rest
    of the stripe. A task whose [f] raises likewise costs exactly that
    task. The pool itself never raises on worker failure.

    Worker {e silence} is recoverable too, when a [watchdog] grace is
    given: each worker heartbeats at every task start (and [f] can beat
    more finely via {!beat}); a worker with unreported tasks that has
    been silent longer than the grace is SIGKILLed, any results it
    finished but had not yet been read are salvaged from its pipe, the
    task it was stuck on is recorded as {!Hung}, and the rest of its
    stripe respawns. The pool's event loop always uses a finite select
    timeout, so it can never itself block forever on a wedged worker.

    With [jobs <= 1] and no [watchdog], everything runs in-process, no
    forks — the reference semantics the parallel path must reproduce
    bit-for-bit. Passing a [watchdog] forces forking even at
    [jobs = 1], because hang detection requires a killable process
    boundary around the task. *)

(** One task's fate: the computed value; lost with the worker that died
    executing it; or censored by the watchdog after its worker hung. *)
type 'a result = Value of 'a | Lost | Hung

(** Physical pool lifecycle, observed from the parent. These facts are
    wall-clock nondeterministic (which pid, when, whether a respawn
    happened), so no campaign trace records them. Not emitted on the
    in-process ([jobs <= 1], no watchdog) path, which forks nothing. *)
type pool_event =
  | Worker_spawned of { pid : int; tasks : int }
  | Worker_done of { pid : int }  (** clean exit, stripe fully reported *)
  | Worker_died of { pid : int; lost_task : int option; respawned : bool }
  | Worker_hung of { pid : int; lost_task : int option; respawned : bool }
      (** watchdog SIGKILLed a silent worker; [lost_task = None] means
          every result was salvaged from the pipe and nothing was
          censored *)
  | Worker_spawn_failed of { tasks : int }
      (** [Unix.fork] kept failing with [EAGAIN]/[ENOMEM] through the
          whole bounded-backoff retry budget; the stripe's [tasks]
          remaining tasks were censored as {!Lost} and the pool carried
          on without the worker *)

(** Heartbeat hook for task bodies: records "this worker is alive and
    making progress" against the watchdog clock. No-op outside a forked
    worker (parent process, in-process path), so callers may invoke it
    unconditionally — e.g. the supervisor beats at every retry attempt
    so a long multi-attempt task is not mistaken for a hang. *)
val beat : unit -> unit

(** [map ?on_result ?on_pool_event ?watchdog ~jobs ~f n] — see the
    module description. [on_result] observes each task's result in
    task order: a result that arrives early is held until every lower
    index has been reported, so a caller that appends, checkpoints or
    merges in [on_result] writes the same bytes for any [jobs] and any
    completion order. It runs in the parent, so it may touch shared
    state.
    [on_pool_event] likewise runs in the parent and observes worker
    spawn/exit/death/hang. [watchdog] is the hang grace in seconds: a
    worker silent for longer while tasks are outstanding is killed and
    its in-flight task censored as {!Hung}; omitted means hangs are
    never declared (and [jobs <= 1] stays in-process). [jobs] is
    clamped to [1..n]. *)
val map :
  ?on_result:(int -> 'a result -> unit) ->
  ?on_pool_event:(pool_event -> unit) ->
  ?watchdog:float ->
  jobs:int ->
  f:(int -> 'a) ->
  int ->
  'a result array

(** {1 Dispatchers}

    A dispatcher abstracts {e how} a task array gets executed so an
    external scheduler (the campaign daemon) can interpose on worker
    allocation without the supervisor knowing. The contract: every task
    index in [0..n-1] is reported through [on_result] exactly once (as
    [Value], [Lost], or [Hung]), in task order. *)

type dispatcher = {
  dispatch :
    'a.
    ?on_result:(int -> 'a result -> unit) ->
    ?on_pool_event:(pool_event -> unit) ->
    ?watchdog:float ->
    jobs:int ->
    f:(int -> 'a) ->
    int ->
    unit;
}

(** The default dispatcher: one {!map} call over the whole array. *)
val pool_dispatcher : dispatcher

(** [batched ~acquire ~release] — a dispatcher driven by an external
    slot scheduler. Tasks run in index order in batches: each batch
    first calls [acquire wanted] (blocking until the scheduler grants
    [1..wanted] slots; an exception aborts the dispatch with all prior
    batches fully delivered), runs that many consecutive tasks on a
    fork pool sized to the grant, then calls [release granted]. Batches
    run one after another and each reports in task order, so the batch
    partition is unobservable in the output — a daemon can multiplex
    many campaigns onto one run budget without disturbing any
    campaign's bytes. The [jobs] argument to [dispatch] is ignored (the
    grant decides). *)
val batched : acquire:(int -> int) -> release:(int -> unit) -> dispatcher

(** {1 Pipe framing}

    The pool's wire format, for other parent/child pipes (the campaign
    daemon's runner speaks it too): one [Marshal]ed value per message,
    written with one {!Stz_store.Artifact.write_exact}. Values must be
    closure-free data, and the reader must name the type the writer
    sent — exactly the contract of [Marshal]. *)

(** [send fd v] writes [v] as one message; [Unix_error] (e.g. [EPIPE]
    when the reader is gone) propagates. A message well under
    [PIPE_BUF] is one atomic pipe write, so a reader woken by [select]
    can block-read the rest of it. *)
val send : Unix.file_descr -> 'a -> unit

(** [recv fd] reads one message; [None] on EOF or on a message cut
    short (the writer died mid-write; the partial payload is dropped),
    and when the peer is gone ([ECONNRESET], [EPIPE], a closed fd). *)
val recv : Unix.file_descr -> 'a option

(** Test hook: force the next [n] [Unix.fork] calls in {!map} to fail
    with [EAGAIN], exercising the spawn retry/backoff/censor path.
    Decremented per injected failure; normally [0]. *)
val forced_fork_failures : int ref
