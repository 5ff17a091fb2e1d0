(* One indexed-job driver: resume the ledger, Parallel.map the missing
   indices under the watchdog, censor Lost/Hung, and flush in strict
   index order with each reproducer written before its record. *)

let run (type m i)
    (module L : Stz_store.Log.S with type meta = m and type item = i) ~out_dir
    ~ledger ~meta ~resume ~count ~jobs ~watchdog ~log ~eval ~censor ~report =
  let ( let* ) = Result.bind in
  let* () =
    match Stz_store.Artifact.mkdir_p out_dir with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) ->
        Error
          (Printf.sprintf "cannot create %s: %s" out_dir (Unix.error_message e))
  in
  let path = Filename.concat out_dir ledger in
  let* lg, existing =
    if resume then L.resume ~path meta
    else Result.map (fun t -> (t, [])) (L.create ~path meta)
  in
  let start = List.length existing in
  let remaining = max 0 (count - start) in
  if resume && start > 0 then
    log
      (Printf.sprintf "resuming: %d/%d cases already in the ledger" start count);
  let pending = Array.make remaining None in
  let next = ref 0 and fresh = ref [] in
  let flush () =
    while !next < remaining && Option.is_some pending.(!next) do
      let item, repro, censored = Option.get pending.(!next) in
      Option.iter
        (fun (name, text) ->
          Stz_store.Artifact.write_with_sum (Filename.concat out_dir name) text)
        repro;
      L.append lg item;
      fresh := item :: !fresh;
      Option.iter
        (fun detail ->
          log (Printf.sprintf "censored case %d: %s" (start + !next) detail))
        censored;
      report item;
      incr next
    done
  in
  let on_result i r =
    let censored ~hung detail =
      (censor (start + i) ~hung detail, None, Some detail)
    in
    pending.(i) <-
      Some
        (match r with
        | Parallel.Value (item, repro) -> (item, repro, None)
        | Parallel.Lost -> censored ~hung:false "worker died mid-case"
        | Parallel.Hung -> censored ~hung:true "watchdog killed a hung worker");
    flush ()
  in
  if remaining > 0 then
    ignore
      (Parallel.map ~on_result ?watchdog ~jobs
         ~f:(fun i -> eval (start + i))
         remaining);
  L.close lg;
  Ok (existing @ List.rev !fresh)
