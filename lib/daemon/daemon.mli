(** The szcd service core: a single-threaded [select] event loop that
    listens on a Unix-domain socket, admits campaigns through {!Quota},
    multiplexes their runs onto the shared pool through {!Sched}
    (deficit round robin), and supervises one {!Runner} child process
    per in-flight campaign.

    Robustness contract:
    - a client disconnecting mid-stream detaches its campaign — the
      campaign keeps running and its artifacts land in the spool
      ([SIGPIPE] is ignored; [EPIPE] on a client socket only drops that
      client);
    - a corrupt or unparsable frame is answered with an [error] frame
      and a close — the peer is isolated, the daemon never dies on
      wire input;
    - [SIGTERM]/[SIGINT] drain: admission stops, every runner gets a
      [Stop] grant and exits at its next batch boundary with the
      campaign durably checkpointed, then the daemon exits 0;
    - on startup the spool is scanned, stale runner pids are killed,
      salvageable artifacts repaired ({!Spool.repair}) and interrupted
      campaigns resumed with storage faults disarmed — exactly the
      [szc fsck --repair] + [--resume] recovery a solo campaign gets;
    - a runner that dies unexpectedly (crash, SIGKILL) is restarted
      from its checkpoint a bounded number of times, then its campaign
      is failed with exit code 3.

    Observability contract: the daemon carries a second, {e operational}
    plane — a wall-clock-fed {!Stz_telemetry.Ops} registry (event-loop
    tick latency, wake reasons, per-verb frame counters, admission and
    runner lifecycle counters), an optional rotating
    {!Stz_telemetry.Oplog}, [stats] wire snapshots on request and
    an optional Prometheus textfile exporter. The plane is strictly
    write-only with respect to campaigns: no scheduling, admission or
    artifact decision ever reads it, so enabling all of it changes zero
    bytes of any campaign CSV, checkpoint, ledger or trace. *)

type config = {
  socket : string;  (** Unix-domain socket path *)
  spool : string;  (** campaign spool directory *)
  limits : Quota.limits;
  slots : int;  (** shared pool run slots (the global concurrency) *)
  quantum : int;  (** DRR quantum, runs of deficit per visit *)
  verbose : bool;
  oplog : string option;
      (** rotating CRC-framed JSONL oplog path; [None] disables *)
  ops_export : string option;
      (** Prometheus textfile path, rewritten atomically about once a
          second; [None] disables *)
}

val default_config : socket:string -> spool:string -> config

(** Daemon build/version string reported in [status] info and
    [stats] snapshots. *)
val version : string

(** Run the daemon until drained. Returns the process exit code: 0 for
    a clean drain, 3 when the spool or socket is unusable. *)
val run : config -> int
