module Artifact = Stz_store.Artifact

type 'a result = Value of 'a | Lost | Hung

type pool_event =
  | Worker_spawned of { pid : int; tasks : int }
  | Worker_done of { pid : int }
  | Worker_died of { pid : int; lost_task : int option; respawned : bool }
  | Worker_hung of { pid : int; lost_task : int option; respawned : bool }
  | Worker_spawn_failed of { tasks : int }

(* Wire protocol, child -> parent. [Beat] carries the index of the task
   the worker is currently executing. Its payload never contains a value
   of the result type, so marshalling it at [unit msg] in {!beat} and
   reading it back at ['a msg] in the parent is representation-safe. *)
type 'a msg = Beat of int | Done of int * 'a

type worker = {
  pid : int;
  fd : Unix.file_descr;
  mutable pending : int list;  (* task indices still unreported, in order *)
  mutable last_beat : float;  (* wall clock of the last message received *)
}

(* How long one select waits before the watchdog gets a chance to look
   at the clock. Also bounds how stale [last_beat] comparisons can be. *)
let tick = 0.25

(* select(2) with EINTR restart that preserves the original deadline: a
   signal landing mid-wait must neither surface as [Unix_error] (which
   would abort the pool and censor healthy stripes) nor stretch the
   wait beyond [timeout] (which would starve the watchdog). *)
let select_intr read_fds timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go remaining =
    try Unix.select read_fds [] [] remaining
    with Unix.Unix_error (Unix.EINTR, _, _) ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 then ([], [], []) else go left
  in
  go timeout

(* Returns false on EOF before [len] bytes arrived; a peer that is gone
   (reset, or an fd already closed) reads as EOF too. *)
let read_exact fd buf pos len =
  let rec go pos len =
    if len = 0 then true
    else
      match Artifact.restart_on_eintr (fun () -> Unix.read fd buf pos len) with
      | 0 -> false
      | k -> go (pos + k) (len - k)
      | exception
          Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
        ->
          false
  in
  go pos len

let recv fd =
  let header = Bytes.create Marshal.header_size in
  if not (read_exact fd header 0 Marshal.header_size) then None
  else
    let data_len = Marshal.data_size header 0 in
    let buf = Bytes.create (Marshal.header_size + data_len) in
    Bytes.blit header 0 buf 0 Marshal.header_size;
    if not (read_exact fd buf Marshal.header_size data_len) then None
    else Some (Marshal.from_bytes buf 0)

let send fd v = Artifact.write_exact fd (Marshal.to_string v [])

(* Set inside a forked worker, never in the parent: [beat] is a no-op
   on the in-process path and in the pool's parent process, so callers
   (the supervisor heartbeats at every attempt start) can call it
   unconditionally. *)
let beat_state : (Unix.file_descr * int ref) option ref = ref None

let beat () =
  match !beat_state with
  | None -> ()
  | Some (fd, task) ->
      send fd (Beat !task : unit msg)

(* Test hook: make the next [n] forks fail with EAGAIN, to exercise
   the spawn retry/censoring path without exhausting real pids. *)
let forced_fork_failures = ref 0

let fork_for_spawn () =
  if !forced_fork_failures > 0 then begin
    decr forced_fork_failures;
    raise (Unix.Unix_error (Unix.EAGAIN, "fork", "injected for testing"))
  end
  else Unix.fork ()

(* Transient spawn failures (EAGAIN/ENOMEM: pid or memory pressure that
   may clear) are retried with bounded exponential backoff before the
   stripe is given up on. *)
let spawn_backoff = [ 0.05; 0.1; 0.2; 0.4; 0.8 ]

(* The child never returns: it streams a [Beat] at each task start and
   a [Done] per finished task, then _exits without flushing the
   parent's inherited stdio buffers (a plain [exit] would run at_exit
   and print them twice). A raising [f] ends the stream early (EPIPE
   from a dead parent included — a worker whose reader vanished stops
   quietly instead of computing into the void); the parent charges
   exactly that task.

   Returns [None] when the fork keeps failing transiently after the
   whole backoff schedule: the caller censors the stripe instead of
   aborting the campaign. *)
let spawn f indices =
  (* Anything buffered before the fork would otherwise be inherited,
     and duplicated if the child's libc flushes it. *)
  flush stdout;
  flush stderr;
  let rec attempt backoff =
    let r, w = Unix.pipe () in
    match fork_for_spawn () with
    | 0 ->
        Unix.close r;
        let current = ref (-1) in
        beat_state := Some (w, current);
        (try
           List.iter
             (fun i ->
               current := i;
               send w (Beat i : unit msg);
               let v = f i in
               send w (Done (i, v)))
             indices
         with _ -> ());
        (try Unix.close w with Unix.Unix_error _ -> ());
        Unix._exit 0
    | pid ->
        Unix.close w;
        Some { pid; fd = r; pending = indices; last_beat = Unix.gettimeofday () }
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.ENOMEM), _, _) -> (
        (try Unix.close r with Unix.Unix_error _ -> ());
        (try Unix.close w with Unix.Unix_error _ -> ());
        match backoff with
        | [] -> None
        | delay :: rest ->
            Unix.sleepf delay;
            attempt rest)
  in
  attempt spawn_backoff

let reap w =
  (try Unix.close w.fd with Unix.Unix_error _ -> ());
  try ignore (Artifact.restart_on_eintr (fun () -> Unix.waitpid [] w.pid))
  with Unix.Unix_error _ -> ()

let map ?on_result ?on_pool_event ?watchdog ~jobs ~f n =
  let notify i r = match on_result with Some g -> g i r | None -> () in
  let pool_notify e = match on_pool_event with Some g -> g e | None -> () in
  if n < 0 then invalid_arg "Parallel.map: negative task count";
  let jobs = Stdlib.max 1 (Stdlib.min jobs n) in
  if jobs <= 1 && watchdog = None then
    (* In-process reference semantics. A wedged task wedges the caller:
       anyone injecting hangs must pass [watchdog] to force forking. *)
    Array.init n (fun i ->
        let r = Value (f i) in
        notify i r;
        r)
  else begin
    (* Results arrive in completion order; [settle] holds each one until
       every lower index has been reported, so [on_result] sees task
       order whatever the worker count or the timing. *)
    let results = Array.make n None in
    let next = ref 0 in
    let settle i r =
      results.(i) <- Some r;
      while !next < n && Option.is_some results.(!next) do
        notify !next (Option.get results.(!next));
        incr next
      done
    in
    let stripe j =
      List.filter (fun i -> i mod jobs = j) (List.init n Fun.id)
    in
    (* A stripe whose worker cannot be forked even after the backoff
       schedule is censored whole — every task [Lost] — and the pool
       keeps going: spawn failure degrades the sample, never the
       campaign. *)
    let spawn_noted f indices =
      match spawn f indices with
      | Some w ->
          pool_notify
            (Worker_spawned { pid = w.pid; tasks = List.length indices });
          Some w
      | None ->
          pool_notify (Worker_spawn_failed { tasks = List.length indices });
          List.iter (fun i -> settle i Lost) indices;
          None
    in
    let workers =
      ref (List.filter_map (fun j -> spawn_noted f (stripe j)) (List.init jobs Fun.id))
    in
    (* If the caller's [on_result] raises (checkpoint write failure, a
       test killing the campaign mid-flight), don't leave children
       blocked on a pipe nobody reads. *)
    let kill_all () =
      List.iter
        (fun w ->
          (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap w)
        !workers;
      workers := []
    in
    let deliver w i v =
      w.pending <- List.filter (fun j -> j <> i) w.pending;
      settle i (Value v)
    in
    let handle_message w = function
      | Beat _ -> w.last_beat <- Unix.gettimeofday ()
      | Done (i, v) ->
          w.last_beat <- Unix.gettimeofday ();
          deliver w i v
    in
    (* EOF: clean completion when nothing is pending; otherwise the
       worker died executing the earliest unreported task of its
       stripe. *)
    let handle_eof w =
      reap w;
      workers := List.filter (fun w' -> w'.pid <> w.pid) !workers;
      match w.pending with
      | [] -> pool_notify (Worker_done { pid = w.pid })
      | lost :: rest -> (
          pool_notify
            (Worker_died
               { pid = w.pid; lost_task = Some lost; respawned = rest <> [] });
          settle lost Lost;
          if rest <> [] then
            match spawn_noted f rest with
            | Some w' -> workers := w' :: !workers
            | None -> ())
    in
    (* A silent worker is SIGKILLed — but results it finished before
       wedging may still sit unread in the pipe, so drain to EOF first
       and deliver them. Only the task it was actually stuck on (the
       earliest still-unreported index) is censored as [Hung]; the rest
       of the stripe respawns, exactly like death recovery. *)
    let kill_hung w =
      (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try
         ignore (Artifact.restart_on_eintr (fun () -> Unix.waitpid [] w.pid))
       with Unix.Unix_error _ -> ());
      let rec drain () =
        match recv w.fd with
        | Some (Beat _) -> drain ()
        | Some (Done (i, v)) ->
            deliver w i v;
            drain ()
        | None -> ()
      in
      drain ();
      (try Unix.close w.fd with Unix.Unix_error _ -> ());
      workers := List.filter (fun w' -> w'.pid <> w.pid) !workers;
      match w.pending with
      | [] ->
          pool_notify
            (Worker_hung { pid = w.pid; lost_task = None; respawned = false })
      | lost :: rest -> (
          pool_notify
            (Worker_hung
               { pid = w.pid; lost_task = Some lost; respawned = rest <> [] });
          settle lost Hung;
          if rest <> [] then
            match spawn_noted f rest with
            | Some w' -> workers := w' :: !workers
            | None -> ())
    in
    try
      while !workers <> [] do
        let fds = List.map (fun w -> w.fd) !workers in
        (* Finite timeout always: the loop must regain control to run
           the watchdog even when every worker has gone silent. A
           signal mid-select restarts the wait with the remaining
           timeout instead of surfacing (or resetting the clock). *)
        let ready, _, _ = select_intr fds tick in
        List.iter
          (fun fd ->
            match List.find_opt (fun w -> w.fd = fd) !workers with
            | None -> () (* already reaped in this round *)
            | Some w -> (
                match recv fd with
                | Some m -> handle_message w m
                | None -> handle_eof w))
          ready;
        (match watchdog with
        | None -> ()
        | Some grace ->
            let t = Unix.gettimeofday () in
            let snapshot = !workers in
            List.iter
              (fun w ->
                if
                  List.memq w !workers
                  && w.pending <> []
                  && t -. w.last_beat > grace
                then kill_hung w)
              snapshot)
      done;
      Array.map Option.get results
    with e ->
      kill_all ();
      raise e
  end

(* ------------------------------------------------------------------ *)
(* Dispatchers: pluggable task execution for external schedulers       *)
(* ------------------------------------------------------------------ *)

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

let pool_dispatcher =
  {
    dispatch =
      (fun ?on_result ?on_pool_event ?watchdog ~jobs ~f n ->
        ignore (map ?on_result ?on_pool_event ?watchdog ~jobs ~f n));
  }

(* A dispatcher that executes tasks in index order, in batches whose
   sizes an external scheduler decides: [acquire wanted] blocks until
   the scheduler grants [1..wanted] task slots (raising to abort — the
   exception propagates to the caller with every already-granted batch
   fully delivered), each batch runs on its own fork pool sized to the
   grant, and [release n] returns the slots. Batches run one after
   another and each [map] reports in task order, so [on_result] sees
   task order across the whole dispatch and the batch partition is
   unobservable in the output — which is what lets a daemon multiplex
   many campaigns onto one run budget without disturbing any
   campaign's bytes. *)
let batched ~acquire ~release =
  {
    dispatch =
      (fun ?on_result ?on_pool_event ?watchdog ~jobs:_ ~f n ->
        let next = ref 0 in
        while !next < n do
          let granted = acquire (n - !next) in
          let granted = Stdlib.max 1 (Stdlib.min granted (n - !next)) in
          let base = !next in
          Fun.protect
            ~finally:(fun () -> release granted)
            (fun () ->
              ignore
                (map
                   ?on_result:
                     (Option.map
                        (fun g j r -> g (base + j) r)
                        on_result)
                   ?on_pool_event ?watchdog ~jobs:granted
                   ~f:(fun j -> f (base + j))
                   granted));
          next := base + granted
        done);
  }
