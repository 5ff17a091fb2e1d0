(** The campaign runner: a child process forked by the daemon that
    executes one spooled campaign through the real
    {!Stabilizer.Driver.campaign} path and writes exactly the artifacts
    a solo [szc campaign] invocation would — same checkpoint, CSV,
    trace and ledger bytes. Run slots are metered by the daemon: the
    runner's {!Stabilizer.Parallel.batched} dispatcher asks for credits
    over the event pipe ({!Want}) and blocks until a {!Grant} arrives,
    so the daemon's deficit-round-robin scheduler decides every batch
    size. Batch partitioning is unobservable in the artifacts
    ({!Stabilizer.Parallel} reports results in run order), which is the
    determinism invariant the whole daemon rests on.

    A campaign ends with its result record, not with an event: the
    runner writes the spool result ({!Spool.write_result}, storage
    faults disarmed) carrying the exit code and summary line, then
    exits {!exit_finished}; the daemon reads that record when the event
    pipe reaches EOF. A spec {!Spool.resolve} rejects ends the same way,
    with exit code 3.

    Degradation contract: a [Stop] grant (drain or cancel) makes the
    runner exit {!exit_stopped} at the next batch boundary with the
    campaign durably checkpointed; EOF on the grant pipe (the daemon
    died) likewise ends the runner at the next boundary with
    {!exit_orphaned}. In both cases no result record is written, so a
    restarted daemon sees the campaign as interrupted and resumes
    it. *)

(** Runner → daemon, over the event pipe. Both pipes carry
    {!Stabilizer.Parallel.send}/{!Stabilizer.Parallel.recv} messages,
    each one [Unix.write] well under [PIPE_BUF], hence atomic. *)
type event =
  | Want of int  (** blocked at a batch boundary, wants up to [n] slots *)
  | Freed of int  (** a batch finished; its slots are free again *)
  | Progress of { run : int; line : string }  (** one finished run, in run order *)

(** Daemon → runner, over the grant pipe. *)
type grant = Grant of int | Stop

(** Runner exit codes. *)
val exit_finished : int

val exit_stopped : int
val exit_orphaned : int

(** [send_grant fd g] — [false] when the runner is gone (EPIPE), which
    is never an error for the daemon (the event-pipe EOF follows). *)
val send_grant : Unix.file_descr -> grant -> bool

(** Blocking read of one event; [None] on EOF (runner exited). Safe to
    call when [select] reported the fd readable: events are written
    atomically, so the bytes of a started message are already there. *)
val read_event : Unix.file_descr -> event option

(** Execute the campaign in [dir] per [spec]; never returns (calls
    [exit]). Must be called in a freshly forked child. [resume]
    continues from the spooled checkpoint; [disarm_storage] forces
    storage-fault injection off regardless of the spec — set on
    crash-recovery resumes, where the fault stream's position is lost
    (mirrors [check_recovery.sh]'s faults-off resume). *)
val exec :
  grant_r:Unix.file_descr ->
  event_w:Unix.file_descr ->
  dir:string ->
  spec:Spool.spec ->
  resume:bool ->
  disarm_storage:bool ->
  'a
