(* The durable-artifact layer: CRC-32, record containers, salvage of
   torn/flipped files, .sum sidecars, seeded storage-fault injection —
   and the supervisor checkpoint built on top of it. The fuzz suites
   are the contract: no byte-level damage to a checkpoint may ever
   raise out of the lenient parser, and whatever survives must be a
   valid record prefix. *)

module A = Stz_store.Artifact
module Crc = Stz_store.Crc32
module Storage = Stz_faults.Storage
module S = Stabilizer
module F = Stz_faults.Fault
module P = Stz_workloads.Profile

open Helpers

let with_temp f =
  let path = Filename.temp_file "stz-store" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; A.sum_path path; path ^ ".tmp"; path ^ ".corrupt" ])
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

let crc_vectors () =
  (* The standard check value, plus a couple of published vectors. *)
  check_string "empty" "00000000" (Crc.to_hex (Crc.digest ""));
  check_bool "123456789" true (Crc.digest "123456789" = 0xCBF43926l);
  check_bool "quick brown fox" true
    (Crc.digest "The quick brown fox jumps over the lazy dog" = 0x414FA339l);
  (* Incremental update equals one-shot digest. *)
  let s = "a longer payload, fed in two pieces" in
  let k = String.length s / 2 in
  let inc =
    Crc.update
      (Crc.update 0l (String.sub s 0 k))
      (String.sub s k (String.length s - k))
  in
  check_bool "incremental = one-shot" true (inc = Crc.digest s);
  (* Hex round-trip. *)
  check_bool "hex round-trip" true
    (Crc.of_hex (Crc.to_hex 0xDEADBEEFl) = Some 0xDEADBEEFl)

let crc_detects_any_single_bit_flip =
  QCheck.Test.make ~name:"crc32 detects every single-bit flip" ~count:50
    QCheck.(string_of_size Gen.(int_range 1 64))
    (fun s ->
      let clean = Crc.digest s in
      let ok = ref true in
      for bit = 0 to (8 * String.length s) - 1 do
        let b = Bytes.of_string s in
        let i = bit / 8 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
        if Crc.digest (Bytes.to_string b) = clean then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Record containers                                                   *)
(* ------------------------------------------------------------------ *)

let records =
  [
    ("meta", "{\"version\":3}");
    ("run", "payload with\nembedded newline and @tag-like bytes");
    ("run", "");
    ("state", String.init 257 (fun i -> Char.chr (i mod 256)));
  ]

let container_round_trip () =
  with_temp (fun path ->
      A.write_records path ~kind:"test-kind" records;
      match A.read_records path with
      | Error e -> Alcotest.failf "read_records: %s" e
      | Ok (kind, got) ->
          check_string "kind" "test-kind" kind;
          check_bool "records" true (got = records));
  (* Deterministic serialization. *)
  check_string "same records, same bytes"
    (A.container ~kind:"k" records)
    (A.container ~kind:"k" records)

let is_prefix shorter longer =
  List.length shorter <= List.length longer
  && List.for_all2
       (fun a b -> a = b)
       shorter
       (List.filteri (fun i _ -> i < List.length shorter) longer)

let salvage_truncation_fuzz () =
  (* Cutting the container at EVERY byte offset must parse without
     raising, and what survives must be a record prefix with
     [valid_bytes] consistent. *)
  let full = A.container ~kind:"fuzz" records in
  for len = 0 to String.length full do
    let s = A.salvage_string (String.sub full 0 len) in
    check_bool
      (Printf.sprintf "truncate@%d: prefix" len)
      true
      (is_prefix s.A.records records);
    check_int (Printf.sprintf "truncate@%d: total_bytes" len) len s.A.total_bytes;
    check_bool
      (Printf.sprintf "truncate@%d: clean parse covers everything" len)
      true
      (s.A.error <> None || s.A.valid_bytes = s.A.total_bytes);
    (* A clean parse means the cut landed exactly on a record
       boundary: re-serializing the salvage reproduces the bytes. *)
    if s.A.error = None then
      check_string
        (Printf.sprintf "truncate@%d: clean parse is a record boundary" len)
        (String.sub full 0 len)
        (A.container ~kind:"fuzz" s.A.records);
    if len = String.length full then (
      check_bool "full file: everything survives" true (s.A.records = records);
      check_bool "full file: kind" true (s.A.kind = Some "fuzz"))
  done

let salvage_bit_flip_fuzz () =
  (* Flipping one bit at EVERY byte offset must never raise, and must
     never silently keep a damaged record: the salvaged list is always
     a prefix of the originals. *)
  let full = A.container ~kind:"fuzz" records in
  for i = 0 to String.length full - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string full in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      let s = A.salvage_string (Bytes.to_string b) in
      check_bool
        (Printf.sprintf "flip byte %d bit %d: prefix" i bit)
        true
        (is_prefix s.A.records records)
    done
  done

let salvage_garbage_never_raises =
  QCheck.Test.make ~name:"salvage_string never raises on arbitrary bytes"
    ~count:200
    QCheck.(string_of_size Gen.(int_range 0 400))
    (fun s ->
      let r = A.salvage_string s in
      r.A.total_bytes = String.length s && r.A.valid_bytes <= r.A.total_bytes)

(* ------------------------------------------------------------------ *)
(* Summed payloads                                                     *)
(* ------------------------------------------------------------------ *)

let sidecar_verifies () =
  with_temp (fun path ->
      let payload = "run,seconds\n0,0.5\n" in
      A.write_with_sum path payload;
      check_string "payload verbatim" payload (read_file path);
      check_bool "verifies" true (A.verify_sum path = Ok true);
      (* Damage the payload behind the sidecar's back. *)
      write_file path "run,seconds\n0,0.6\n";
      check_bool "mismatch detected" true
        (match A.verify_sum path with Error _ -> true | Ok _ -> false);
      (* No sidecar: nothing to verify. *)
      Sys.remove (A.sum_path path);
      check_bool "no sidecar" true (A.verify_sum path = Ok false))

(* ------------------------------------------------------------------ *)
(* Seeded storage faults                                               *)
(* ------------------------------------------------------------------ *)

let write_under profile seed path contents n =
  Storage.arm ~seed profile;
  Fun.protect ~finally:Storage.disarm @@ fun () ->
  List.init n (fun i ->
      A.write_file path (contents i);
      if Sys.file_exists path then Some (read_file path) else None)

let storage_faults_deterministic () =
  with_temp (fun p1 ->
      with_temp (fun p2 ->
          let contents i = Printf.sprintf "artifact body %d %s" i (String.make 64 'x') in
          let a = write_under Storage.chaos 42L p1 contents 20 in
          let b = write_under Storage.chaos 42L p2 contents 20 in
          check_bool "same seed, same damage" true (a = b);
          let c = write_under Storage.chaos 43L p1 contents 20 in
          check_bool "different seed, different damage" true (a <> c)))

let storage_faults_actually_fire () =
  with_temp (fun path ->
      let contents i = Printf.sprintf "clean write %d %s" i (String.make 64 'y') in
      let observed = write_under Storage.chaos 7L path contents 20 in
      let damaged =
        List.exists
          (fun (i, got) -> got <> Some (contents i))
          (List.mapi (fun i g -> (i, g)) observed)
      in
      check_bool "chaos profile corrupts some writes" true damaged;
      check_bool "none profile is a no-op armed" true
        (not (Storage.active Storage.none)))

(* ------------------------------------------------------------------ *)
(* Supervisor checkpoints on the artifact layer                        *)
(* ------------------------------------------------------------------ *)

let tiny =
  {
    P.default with
    P.name = "store";
    functions = 8;
    hot_functions = 4;
    iterations = 12;
    inner_trips = 6;
    seed = 0x57_0F_0AB5L;
  }

let program = lazy (Stz_workloads.Generate.program tiny)
let config = S.Config.stabilizer
let args = [ 1 ]

let policy =
  { S.Supervisor.default_policy with S.Supervisor.max_retries = 2 }

let campaign ?(runs = 12) ?checkpoint ?(resume = false) ?on_record ~seed profile
    =
  S.Supervisor.run_campaign ~policy ~profile ?checkpoint ~resume ?on_record
    ~config ~base_seed:(Int64.of_int seed) ~runs ~args (Lazy.force program)

let checkpoint_is_container () =
  with_temp (fun path ->
      let c = campaign ~seed:5 ~checkpoint:path F.light in
      let text = read_file path in
      check_bool "magic" true (A.is_container text);
      (match A.read_records path with
      | Error e -> Alcotest.failf "strict read: %s" e
      | Ok (kind, recs) ->
          check_string "kind" "szc-checkpoint" kind;
          check_int "meta + runs + state" (List.length c.S.Supervisor.records + 2)
            (List.length recs));
      match S.Supervisor.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok c' -> check_bool "round-trips" true (c = c'))

let legacy_json_still_loads () =
  with_temp (fun path ->
      let c = campaign ~seed:5 F.light in
      write_file path (S.Json.to_string (S.Supervisor.to_json c));
      match S.Supervisor.load path with
      | Error e -> Alcotest.failf "legacy load: %s" e
      | Ok c' -> check_bool "legacy JSON round-trips" true (c = c'))

let record_prefix shorter longer =
  is_prefix shorter.S.Supervisor.records longer.S.Supervisor.records

let checkpoint_truncation_fuzz () =
  (* Cut the checkpoint at EVERY byte offset: [recover] must never
     raise, and any salvaged campaign must be a run-order prefix of the
     full one. *)
  with_temp (fun path ->
      let c = campaign ~seed:9 ~checkpoint:path F.light in
      let full = read_file path in
      for len = 0 to String.length full do
        write_file path (String.sub full 0 len);
        match S.Supervisor.recover path with
        | exception e ->
            Alcotest.failf "truncate@%d raised %s" len (Printexc.to_string e)
        | Error _ -> ()
        | Ok (got, note) ->
            check_bool (Printf.sprintf "truncate@%d: prefix" len) true
              (record_prefix got c);
            if len < String.length full then
              check_bool
                (Printf.sprintf "truncate@%d: salvage noted" len)
                true (note <> None)
      done)

let checkpoint_bit_flip_fuzz () =
  (* Flip one bit at EVERY byte offset: never raises, salvage is always
     a prefix, and strict [load] never accepts the damaged file. *)
  with_temp (fun path ->
      let c = campaign ~seed:13 ~runs:8 ~checkpoint:path F.light in
      let full = read_file path in
      for i = 0 to String.length full - 1 do
        let b = Bytes.of_string full in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
        write_file path (Bytes.to_string b);
        (match S.Supervisor.recover path with
        | exception e ->
            Alcotest.failf "flip@%d raised %s" i (Printexc.to_string e)
        | Error _ -> ()
        | Ok (got, _) ->
            check_bool (Printf.sprintf "flip@%d: prefix" i) true
              (record_prefix got c));
        match S.Supervisor.load path with
        | exception e ->
            Alcotest.failf "strict flip@%d raised %s" i (Printexc.to_string e)
        | Ok got ->
            (* A flip inside a record body is caught by its CRC; flips
               in cosmetic header whitespace can't change the parse. *)
            check_bool (Printf.sprintf "strict flip@%d equals original" i) true
              (got = c)
        | Error _ -> ()
      done)

exception Killed

let derived_state_resume_identity () =
  (* Kill a campaign mid-flight, tear the supervisor-state record off
     the checkpoint, and resume: quarantine and budgets are re-derived
     from the surviving run records, bit-exactly. *)
  with_temp (fun ref_path ->
      with_temp (fun path ->
          let reference = campaign ~seed:21 ~runs:16 ~checkpoint:ref_path F.heavy in
          let seen = ref 0 in
          (try
             ignore
               (campaign ~seed:21 ~runs:16 ~checkpoint:path
                  ~on_record:(fun _ ->
                    incr seen;
                    if !seen = 9 then raise Killed)
                  F.heavy)
           with Killed -> ());
          (* Drop the trailing state record, as a torn tail would. *)
          let s = A.salvage_string (read_file path) in
          check_bool "intact before surgery" true (s.A.error = None);
          let without_state =
            List.filter (fun (tag, _) -> tag <> "state") s.A.records
          in
          check_int "exactly one state record" 1
            (List.length s.A.records - List.length without_state);
          A.write_records path ~kind:"szc-checkpoint" without_state;
          (match S.Supervisor.load path with
          | Ok _ -> Alcotest.fail "strict load must reject a missing state record"
          | Error _ -> ());
          (match S.Supervisor.recover path with
          | Error e -> Alcotest.failf "recover: %s" e
          | Ok (mid, note) ->
              check_bool "salvage noted" true (note <> None);
              check_bool "prefix of the reference" true
                (record_prefix mid reference));
          let resumed =
            campaign ~seed:21 ~runs:16 ~checkpoint:path ~resume:true F.heavy
          in
          check_bool "records identical after derived-state resume" true
            (reference.S.Supervisor.records = resumed.S.Supervisor.records);
          check_bool "quarantine identical" true
            (reference.S.Supervisor.quarantined
            = resumed.S.Supervisor.quarantined);
          check_string "final checkpoints byte-identical" (read_file ref_path)
            (read_file path)))

let campaign_survives_storage_faults () =
  (* A campaign whose every checkpoint write is sabotaged still
     completes, and its final sample equals the clean campaign's: the
     artifact layer absorbs the damage (old checkpoint survives a
     dropped rename; the checkpoint is advisory until resume). *)
  with_temp (fun path ->
      let clean = campaign ~seed:31 F.light in
      Storage.arm ~seed:77L Storage.heavy;
      let faulted =
        Fun.protect ~finally:Storage.disarm @@ fun () ->
        campaign ~seed:31 ~checkpoint:path F.light
      in
      check_bool "samples identical under storage faults" true
        (S.Supervisor.times clean = S.Supervisor.times faulted);
      (* Whatever the last checkpoint write left behind, recovery never
         raises and only ever yields a record prefix. *)
      if Sys.file_exists path then
        match S.Supervisor.recover path with
        | exception e -> Alcotest.failf "recover raised %s" (Printexc.to_string e)
        | Error _ -> ()
        | Ok (got, _) ->
            check_bool "salvaged prefix" true (record_prefix got clean))

(* ------------------------------------------------------------------ *)
(* History ledger on the artifact layer                                *)
(* ------------------------------------------------------------------ *)

module Ledger = Stz_store.Ledger

let sample_entry i =
  {
    Ledger.label = Printf.sprintf "bench-%d" i;
    fingerprint = Printf.sprintf "bench-%d|O2|0x1p+0|code.heap.stack|none" i;
    base_seed = Int64.of_int (1000 + i);
    runs = 30;
    completed = 28 + (i mod 2);
    censored = 2 - (i mod 2);
    mean = 0.00123 +. (0.0001 *. float_of_int i);
    sd = 1.7e-5;
    min = 0.0011;
    max = 0.0014;
    skewness = -0.12;
    kurtosis = 0.34;
    detectable_effect = 0.71;
    verdict = "enough-runs";
  }

let ledger_round_trip () =
  with_temp (fun path ->
      let entries = List.init 3 sample_entry in
      (* append builds the file one entry at a time, returning 0-based
         sequence numbers. *)
      List.iteri
        (fun i e ->
          match Ledger.append path e with
          | Ok seq -> check_int "sequence number" i seq
          | Error err -> Alcotest.failf "append: %s" err)
        entries;
      (match Ledger.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok ((), got) ->
          check_bool "entries round-trip bit-exactly" true (got = entries));
      (* Payload round-trip is exact even for awkward floats. *)
      let e =
        { (sample_entry 0) with Ledger.mean = 0.1; sd = Float.min_float }
      in
      match Ledger.entry_of_payload (Ledger.entry_to_payload e) with
      | Error err -> Alcotest.failf "payload: %s" err
      | Ok e' -> check_bool "hex floats are bit-exact" true (e = e'))

let ledger_refuses_corrupt_append () =
  with_temp (fun path ->
      (match Ledger.append path (sample_entry 0) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "append: %s" e);
      let full = read_file path in
      write_file path (String.sub full 0 (String.length full - 3));
      (* A damaged ledger must be repaired explicitly, never silently
         truncated by the next append. *)
      check_bool "append refuses a corrupt ledger" true
        (Result.is_error (Ledger.append path (sample_entry 1))))

(* ------------------------------------------------------------------ *)
(* szc regress's decision rule on hand-built ledger entries            *)
(* ------------------------------------------------------------------ *)

module History = S.History

let decide baseline latest =
  History.compare_entries ~baseline:(0, baseline) ~latest:(1, latest)

let decision (c : History.comparison) =
  match c.History.decision with
  | History.No_regression -> "no regression"
  | History.Regression -> "regression"
  | History.Improvement -> "improvement"
  | History.Not_comparable why -> "not comparable: " ^ why

(* 1000 runs of unit spread: against a baseline mean of 0, the latest
   mean is d, and a CI of about +-0.09 confirms d = 0.15. *)
let unit_spread mean =
  { (sample_entry 0) with Ledger.completed = 1000; mean; sd = 1.0 }

let regress_identical () =
  let c = decide (sample_entry 0) (sample_entry 0) in
  check_bool "d = 0" true (c.History.d = 0.0);
  check_string "decision" "no regression" (decision c);
  (* Pins the 95% level: z = 1.96 over 28 runs a side. *)
  check_string "described"
    "entry 1 vs baseline 0: time ratio 1.0000, effect d = 0.000, 95% CI \
     [-0.524, 0.524] -> no regression"
    (History.describe c)

let regress_slower_and_faster () =
  let slower = decide (sample_entry 0) (sample_entry 1) in
  check_bool "CI low > 0" true (slower.History.ci_low > 0.0);
  check_bool "d >= 0.2" true (slower.History.d >= 0.2);
  check_string "slower" "regression" (decision slower);
  let faster = decide (sample_entry 1) (sample_entry 0) in
  check_bool "CI high < 0" true (faster.History.ci_high < 0.0);
  check_string "faster" "improvement" (decision faster)

let regress_effect_floor () =
  let below = decide (unit_spread 0.0) (unit_spread 0.15) in
  check_bool "slowdown confirmed" true (below.History.ci_low > 0.0);
  check_string "d = 0.15 is below the floor" "no regression" (decision below);
  check_string "d = 0.2 is at the floor" "regression"
    (decision (decide (unit_spread 0.0) (unit_spread 0.2)));
  check_string "d = -0.2 is at the floor" "improvement"
    (decision (decide (unit_spread 0.0) (unit_spread (-0.2))))

let regress_run_floor () =
  let runs n e = { e with Ledger.completed = n } in
  check_string "2 runs latest"
    "not comparable: need 3 completed runs per side (have 2 vs 28)"
    (decision (decide (sample_entry 0) (runs 2 (sample_entry 1))));
  check_string "2 runs baseline"
    "not comparable: need 3 completed runs per side (have 29 vs 2)"
    (decision (decide (runs 2 (sample_entry 0)) (sample_entry 1)));
  check_string "3 runs a side" "regression"
    (decision (decide (runs 3 (sample_entry 0)) (runs 3 (sample_entry 1))))

let regress_zero_spread () =
  let still mean = { (sample_entry 0) with Ledger.mean; sd = 0.0 } in
  let slower = decide (still 1.0) (still 2.0) in
  check_bool "d = +inf" true (slower.History.d = infinity);
  check_string "slower" "regression" (decision slower);
  let faster = decide (still 2.0) (still 1.0) in
  check_bool "d = -inf" true (faster.History.d = neg_infinity);
  check_string "faster" "improvement" (decision faster);
  List.iter
    (fun c ->
      check_bool "no NaN in the line" false
        (contains (History.describe c) "nan"))
    [ slower; faster ]

(* The same-fingerprint line is pinned by regress_identical. *)
let regress_fingerprints () =
  check_bool "different configuration" true
    (contains
       (History.describe (decide (sample_entry 0) (sample_entry 1)))
       "entry 1 vs baseline 0 (different configuration): ")

(* ------------------------------------------------------------------ *)
(* Daemon oplog on the artifact layer                                  *)
(* ------------------------------------------------------------------ *)

module Oplog = Stz_telemetry.Oplog
module Json = Stz_telemetry.Json

let oplog_record i =
  Json.Obj
    [
      ("ts_ms", Json.Int (1_700_000_000_000 + i));
      ("ev", Json.String "fuzz.event");
      ("i", Json.Int i);
      ("payload", Json.String (String.make 20 'x'));
    ]

let oplog_self_heal_appends_after_torn_tail () =
  (* The daemon's reopen path: truncate mid-record, reopen, append —
     the result must be a fully valid container again. *)
  with_temp (fun path ->
      Oplog.rewrite path () (List.init 5 oplog_record);
      let full = read_file path in
      write_file path (String.sub full 0 (String.length full - 11));
      (match Oplog.create ~path () with
      | Error e -> Alcotest.failf "self-heal open: %s" e
      | Ok l ->
          Oplog.event l ~ts_ms:1_700_000_000_999 ~ev:"fuzz.after"
            [ ("ok", Json.Bool true) ];
          Oplog.close l);
      match Oplog.load path with
      | Error e -> Alcotest.failf "healed file not strictly valid: %s" e
      | Ok ((), records) ->
          check_int "4 salvaged + 1 appended" 5 (List.length records))

(* ------------------------------------------------------------------ *)
(* The log discipline, every offset, every codec                       *)
(* ------------------------------------------------------------------ *)

(* The every-offset contract of Stz_store.Log, for one codec: [sample]
   is the uninterrupted log; [reopen] (incremental logs only) reopens a
   cut file for appending and re-appends the items it lost. *)
let log_props (type m i)
    (module L : Stz_store.Log.FILE with type meta = m and type item = i)
    ?reopen sample =
  let full () =
    let meta, items = Lazy.force sample in
    with_temp (fun path ->
        L.rewrite path meta items;
        check_bool "intact file loads" true (L.load path = Ok (meta, items));
        (meta, items, read_file path))
  in
  (* Truncate at every byte: [recover] never raises, salvages an item
     prefix, and stays silent only when the cut is a record boundary. *)
  let truncation () =
    let meta, items, full = full () in
    with_temp (fun path ->
        with_temp (fun clean ->
            for len = 0 to String.length full do
              let cut = String.sub full 0 len in
              write_file path cut;
              match L.recover path with
              | exception e ->
                  Alcotest.failf "truncate@%d raised %s" len (Printexc.to_string e)
              | Error _ -> ()
              | Ok (m, got, note) ->
                  check_bool (Printf.sprintf "truncate@%d: meta" len) true (m = meta);
                  check_bool (Printf.sprintf "truncate@%d: prefix" len) true
                    (is_prefix got items);
                  if note = None then begin
                    L.rewrite clean m got;
                    check_string
                      (Printf.sprintf "truncate@%d: silent only on a boundary" len)
                      cut (read_file clean)
                  end
            done))
  in
  (* Flip one bit in every byte: [recover] never raises and salvages a
     prefix; strict [load] never accepts a changed parse. *)
  let bit_flip () =
    let meta, items, full = full () in
    with_temp (fun path ->
        for i = 0 to String.length full - 1 do
          let b = Bytes.of_string full in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (i mod 8))));
          write_file path (Bytes.to_string b);
          (match L.recover path with
          | exception e -> Alcotest.failf "flip@%d raised %s" i (Printexc.to_string e)
          | Error _ -> ()
          | Ok (_, got, _) ->
              check_bool (Printf.sprintf "flip@%d: prefix" i) true
                (is_prefix got items));
          match L.load path with
          | exception e ->
              Alcotest.failf "strict flip@%d raised %s" i (Printexc.to_string e)
          | Ok got ->
              check_bool (Printf.sprintf "strict flip@%d equals original" i) true
                (got = (meta, items))
          | Error _ -> ()
        done)
  in
  (* Resume at every truncation offset: every salvaged item survives,
     and re-appending what was lost gives the uninterrupted bytes. *)
  let resume reopen () =
    let _, items, full = full () in
    with_temp (fun path ->
        for len = 0 to String.length full do
          write_file path (String.sub full 0 len);
          let salvaged =
            match L.recover path with Ok (_, got, _) -> List.length got | Error _ -> 0
          in
          check_int (Printf.sprintf "resume@%d: survivors" len) salvaged
            (reopen ~path items);
          check_string (Printf.sprintf "resume@%d: byte-identical" len) full
            (read_file path)
        done)
  in
  let case name f = Alcotest.test_case name `Quick f in
  [
    case "truncation fuzz (every offset)" truncation;
    case "bit-flip fuzz (every offset)" bit_flip;
  ]
  @ Option.fold reopen ~none:[] ~some:(fun r ->
        [ case "resume at every offset" (resume r) ])

(* Re-append the items a reopened log lost, close it, and return how
   many survived. *)
let re_append ~survivors append close items =
  List.iteri (fun k x -> if k >= List.length survivors then append x) items;
  close ();
  List.length survivors

let reopen (type m i)
    (module L : Stz_store.Log.S with type meta = m and type item = i) meta ~path
    items =
  let t, survivors = unwrap (L.resume ~path meta) in
  re_append ~survivors (L.append t) (fun () -> L.close t) items

(* The daemon's reopen: self-heal, then log what was lost. *)
let reopen_oplog ~path items =
  let l = unwrap (Oplog.create ~path ()) in
  let (), survivors = unwrap (Oplog.load path) in
  re_append ~survivors (Oplog.log l) (fun () -> Oplog.close l) items

let checkpoint_sample =
  lazy
    (with_temp (fun path ->
         ignore (campaign ~seed:9 ~runs:6 ~checkpoint:path F.light);
         unwrap (S.Supervisor.Checkpoint.load path)))

let () =
  Alcotest.run "store"
    [
      ( "crc32",
        [
          Alcotest.test_case "vectors" `Quick crc_vectors;
          QCheck_alcotest.to_alcotest crc_detects_any_single_bit_flip;
        ] );
      ( "container",
        [
          Alcotest.test_case "round-trip" `Quick container_round_trip;
          Alcotest.test_case "truncation fuzz (every offset)" `Quick
            salvage_truncation_fuzz;
          Alcotest.test_case "bit-flip fuzz (every offset)" `Quick
            salvage_bit_flip_fuzz;
          QCheck_alcotest.to_alcotest salvage_garbage_never_raises;
        ] );
      ( "sidecar",
        [ Alcotest.test_case "write + verify" `Quick sidecar_verifies ] );
      ( "storage faults",
        [
          Alcotest.test_case "seed-deterministic" `Quick
            storage_faults_deterministic;
          Alcotest.test_case "chaos corrupts writes" `Quick
            storage_faults_actually_fire;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "container round-trip" `Quick checkpoint_is_container;
          Alcotest.test_case "legacy JSON loads" `Quick legacy_json_still_loads;
          Alcotest.test_case "truncation fuzz (every offset)" `Quick
            checkpoint_truncation_fuzz;
          Alcotest.test_case "bit-flip fuzz (every offset)" `Quick
            checkpoint_bit_flip_fuzz;
          Alcotest.test_case "derived-state resume identity" `Quick
            derived_state_resume_identity;
          Alcotest.test_case "campaign survives storage faults" `Quick
            campaign_survives_storage_faults;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "round-trip + sequence" `Quick ledger_round_trip;
          Alcotest.test_case "append refuses corruption" `Quick
            ledger_refuses_corrupt_append;
        ]
        @ log_props (module Ledger) (lazy ((), List.init 4 sample_entry)) );
      ( "regress",
        [
          Alcotest.test_case "identical entries" `Quick regress_identical;
          Alcotest.test_case "slower and faster" `Quick
            regress_slower_and_faster;
          Alcotest.test_case "effect floor d = 0.2" `Quick regress_effect_floor;
          Alcotest.test_case "run floor 3 a side" `Quick regress_run_floor;
          Alcotest.test_case "zero spread" `Quick regress_zero_spread;
          Alcotest.test_case "fingerprints" `Quick regress_fingerprints;
        ] );
      ( "oplog",
        log_props (module Oplog) ~reopen:reopen_oplog
          (lazy ((), List.init 5 oplog_record))
        @ [
            Alcotest.test_case "self-heal then append" `Quick
              oplog_self_heal_appends_after_torn_tail;
          ] );
      ( "fuzzlog",
        log_props (module Fl) ~reopen:(reopen (module Fl) fuzz_meta)
          (lazy
            ( fuzz_meta,
              List.init 5 (fun i ->
                  fuzz_case i (if i = 2 then Fl.Fail else Fl.Clean)) )) );
      ( "sweeplog",
        log_props (module Sl) ~reopen:(reopen (module Sl) sweep_meta)
          (lazy
            ( sweep_meta,
              List.init 4 (fun i -> { (sweep_case i) with Sl.detail = "ok" })
            )) );
      ( "checkpoint log",
        log_props (module S.Supervisor.Checkpoint) checkpoint_sample );
    ]
