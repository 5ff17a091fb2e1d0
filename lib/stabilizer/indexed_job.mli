(** The resumable, crash-isolated campaign loop behind [szc fuzz] and
    [szc layout sweep]: evaluate indices [0..count-1] of a job keyed by
    [(seed, index)] and record one ledger item per index.

    [run] creates [out_dir], opens the ledger ({!Stz_store.Log.S.resume}
    when [resume], else a fresh {!Stz_store.Log.S.create}), and runs
    [eval] over the indices the ledger lacks through {!Parallel.map}
    under the [watchdog]. A worker that dies or hangs costs exactly its
    index, recorded as [censor index ~hung detail] and logged. Each
    index is recorded as {!Parallel.map} reports it, in index order —
    its reproducer [(file name, bytes)] is written (with its [.sum]
    sidecar) before the record that names it, then the item is
    appended and passed to [report] — so the ledger and reproducer
    bytes never depend on [jobs], and a SIGKILL always leaves a
    contiguous, resumable prefix. Returns every item, surviving ones first. [Error] only for
    an unusable [out_dir] or a ledger that cannot be opened or resumed
    (e.g. a different meta). *)
val run :
  (module Stz_store.Log.S with type meta = 'm and type item = 'i) ->
  out_dir:string ->
  ledger:string ->
  meta:'m ->
  resume:bool ->
  count:int ->
  jobs:int ->
  watchdog:float option ->
  log:(string -> unit) ->
  eval:(int -> 'i * (string * string) option) ->
  censor:(int -> hung:bool -> string -> 'i) ->
  report:('i -> unit) ->
  ('i list, string) result
