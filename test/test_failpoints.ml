(* Fault-hardening tests (docs/FAILPOINTS.md): the failpoint registry
   grammar and its deterministic seeding, crash-consistent sink
   behaviour under injected ENOSPC/EIO/short-write/fsync failures (a
   failed sync never loses or reorders frames — the healed journal is
   byte-identical to one that never failed), checkpoint-write failures
   as recoverable skips, the admission engine's degraded (shedding)
   mode, adversarial transports against a forked server (byte-by-byte
   partial writes, slow-loris, disconnect between request and reply,
   accept failures), and the headline property: under any seeded
   failpoint schedule plus a crash at any WAL record, no acked
   admission is lost and the healed run is byte-identical to an
   uninterrupted one. *)

module Json = Server.Json
module Protocol = Server.Protocol
module Admission = Server.Admission
module Experiment = Harness.Experiment
module Sink = Journal.Sink
module Checkpoint = Journal.Checkpoint

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                 *)
(* ------------------------------------------------------------------ *)

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "hire_failpt_test_%d_%d" (Unix.getpid ()) !tmp_counter)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_dir f =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Every test that arms the registry hands it back to the environment
   on the way out, so no schedule leaks into a later test and a
   HIRE_FAILPOINTS schedule still covers the tests after it. *)
let with_failpoints f = Fun.protect ~finally:Failpt.reset f

(* ------------------------------------------------------------------ *)
(* Registry grammar                                                    *)
(* ------------------------------------------------------------------ *)

let test_grammar_parses () =
  with_failpoints @@ fun () ->
  Failpt.load "seed=42; journal.fsync=1*eio, net.write=25%3*short(1);checkpoint.write=off";
  Alcotest.(check string)
    "describe round-trips the armed registry"
    "seed=42;journal.fsync=1*eio;net.write=25%3*short(1)"
    (Failpt.describe ());
  Alcotest.(check (list string))
    "armed sites sorted" [ "journal.fsync"; "net.write" ] (Failpt.armed_sites ());
  (* an exhausted site drops out of the armed list *)
  Alcotest.(check bool) "bounded site fires" true
    (Failpt.eval "journal.fsync" = Some (Failpt.Errno Unix.EIO));
  Alcotest.(check bool) "then goes quiet" true (Failpt.eval "journal.fsync" = None);
  Alcotest.(check (list string)) "exhausted site disarmed" [ "net.write" ]
    (Failpt.armed_sites ());
  (* delay and off specs *)
  Failpt.set "x" "delay(0.5)";
  Alcotest.(check bool) "delay parses" true (Failpt.eval "x" = Some (Failpt.Delay 0.5));
  Failpt.set "x" "off";
  Alcotest.(check bool) "off disarms" true (Failpt.eval "x" = None);
  Failpt.deactivate ();
  Alcotest.(check string) "disarmed registry describes empty" "" (Failpt.describe ())

let test_grammar_rejects () =
  with_failpoints @@ fun () ->
  let bad_loads =
    [
      "seed=abc";
      "journal.fsync";  (* no '=' *)
      "journal.fsync=150%eio";
      "journal.write=-1*eio";
      "journal.write=short";
      "journal.write=short(x)";
      "journal.write=short(1";
      "journal.write=frobnicate";
      "journal.write=eio(3)";
      "journal.write=delay(-1)";
      "journal.write=delay(inf)";
      "journal.crash=short(5)@-1";
      "journal.crash=short(5)@1.5";
      "journal.crash=short(5)@";
    ]
  in
  List.iter
    (fun v ->
      match Failpt.load v with
      | () -> Alcotest.failf "%S must be rejected" v
      | exception Invalid_argument _ -> ())
    bad_loads

(* A site's draw stream depends only on (seed, site name, evaluations
   of that site) — never on what other sites did in between. *)
let test_eval_deterministic () =
  with_failpoints @@ fun () ->
  let pattern ?(seed = 7) other_cadence =
    Failpt.activate ~seed;
    Failpt.set "a" "50%eio";
    Failpt.set "b" "50%enospc";
    List.init 64 (fun i ->
        if i mod other_cadence = 0 then ignore (Failpt.eval "b" : Failpt.outcome option);
        Failpt.eval "a" <> None)
  in
  let p1 = pattern 3 and p2 = pattern 2 in
  Alcotest.(check bool) "a's stream independent of b's evaluations" true (p1 = p2);
  Alcotest.(check bool) "another seed, another stream" true (p1 <> pattern ~seed:8 3);
  Alcotest.(check bool) "50% fires sometimes" true (List.mem true p1);
  Alcotest.(check bool) "50% skips sometimes" true (List.mem false p1);
  (* count-bounded site fires exactly N times *)
  Failpt.activate ~seed:7;
  Failpt.set "c" "3*eio";
  let fires =
    List.init 100 (fun _ -> if Failpt.eval "c" <> None then 1 else 0)
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "3* fires exactly thrice" 3 fires

(* [@K] passes over the first K evaluations: the first fire is
   evaluation K (counted from 0), and describe prints the skip back. *)
let test_skip_count () =
  with_failpoints @@ fun () ->
  Failpt.load "seed=3;journal.crash=1*short(5)@4;x=eio@0";
  Alcotest.(check string) "describe prints the skip"
    "seed=3;journal.crash=1*short(5)@4;x=eio@0" (Failpt.describe ());
  let fired = List.init 8 (fun _ -> Failpt.eval "journal.crash") in
  Alcotest.(check (list bool)) "fires once, at evaluation 4"
    [ false; false; false; false; true; false; false; false ]
    (List.map Option.is_some fired);
  Alcotest.(check bool) "with the armed action" true
    (List.nth fired 4 = Some (Failpt.Short 5));
  Alcotest.(check bool) "@0 fires at once" true (Failpt.eval "x" <> None);
  (* a skipped evaluation draws nothing: P% streams start after the skip *)
  let pattern spec =
    Failpt.activate ~seed:9;
    Failpt.set "p" spec;
    List.init 32 (fun _ -> Failpt.eval "p" <> None)
  in
  let skipped = pattern "50%eio@8" in
  Alcotest.(check (list bool)) "skipped prefix is quiet" (List.init 8 (fun _ -> false))
    (List.filteri (fun i _ -> i < 8) skipped);
  Alcotest.(check (list bool)) "then the unskipped stream"
    (List.filteri (fun i _ -> i < 24) (pattern "50%eio"))
    (List.filteri (fun i _ -> i >= 8) skipped)

(* describe prints a HIRE_FAILPOINTS value: loading it re-arms the same
   schedule, whatever the seed and site specs. *)
let prop_describe_round_trips =
  let spec =
    QCheck.Gen.(
      let* p = opt (int_range 0 100) in
      let* n = opt (int_range 0 9) in
      let* action =
        oneofl [ "eio"; "enospc"; "etimedout"; "short(3)"; "delay(0.25)" ]
      in
      let* k = opt (int_range 0 500) in
      return
        (Printf.sprintf "%s%s%s%s"
           (match p with Some p -> string_of_int p ^ "%" | None -> "")
           (match n with Some n -> string_of_int n ^ "*" | None -> "")
           action
           (match k with Some k -> "@" ^ string_of_int k | None -> "")))
  in
  let schedule =
    QCheck.Gen.(
      pair (int_range 0 1_000_000)
        (list_size (int_range 0 4)
           (pair
              (oneofl [ "journal.crash"; "journal.fsync"; "net.write"; "solver.flip" ])
              (frequency [ (1, return "off"); (6, spec) ]))))
  in
  QCheck.Test.make ~name:"load (describe ()) re-arms the same schedule" ~count:200
    (QCheck.make
       ~print:(fun (seed, sites) ->
         String.concat ";"
           (Printf.sprintf "seed=%d" seed
           :: List.map (fun (n, s) -> n ^ "=" ^ s) sites))
       schedule)
    (fun (seed, sites) ->
      with_failpoints @@ fun () ->
      Failpt.activate ~seed;
      List.iter (fun (site, spec) -> Failpt.set site spec) sites;
      let d = Failpt.describe () in
      Failpt.load d;
      String.equal d (Failpt.describe ()))

(* ------------------------------------------------------------------ *)
(* Sink: crash-consistent storage failures                             *)
(* ------------------------------------------------------------------ *)

let records = [ "record-zero"; "record-one"; "record-two" ]

(* Uninterrupted control journal: the byte-level target every healed
   run must land on. *)
let control_bytes dir =
  let path = Filename.concat dir "control.bin" in
  let s = Sink.create ~path ~header:"hdr" () in
  List.iter
    (fun r ->
      ignore (Sink.append s r : int);
      Sink.commit s)
    records;
  Sink.close s;
  Journal.Source.read_file path

(* Returns the errno the failed operation surfaced. *)
let expect_io f =
  match f () with
  | _ -> Alcotest.fail "storage failure must raise Error.Io"
  | exception Journal.Error.Journal_error (Journal.Error.Io { error; _ }) -> error

let check_healed dir path =
  Alcotest.(check string) "healed journal byte-identical to control"
    (control_bytes dir) (Journal.Source.read_file path);
  match Journal.Source.load_strict ~path with
  | Ok l ->
      Alcotest.(check int) "all records durable" (List.length records)
        (Array.length l.Journal.Source.records)
  | Error e -> Alcotest.failf "healed journal unreadable: %s" (Journal.Error.to_string e)

let test_sink_short_write_heals () =
  with_dir @@ fun dir ->
  with_failpoints @@ fun () ->
  let path = Filename.concat dir "wal.bin" in
  let s = Sink.create ~path ~header:"hdr" () in
  ignore (Sink.append s (List.nth records 0) : int);
  Sink.commit s;
  Failpt.set "journal.write" "1*short(7)";
  ignore (Sink.append s (List.nth records 1) : int);
  let errno = expect_io (fun () -> Sink.commit s) in
  Alcotest.(check bool) "short write surfaces as ENOSPC" true (errno = Unix.ENOSPC);
  (* the torn tail is cut: nothing past the durable boundary remains *)
  Alcotest.(check int) "file truncated to the durable boundary" (Sink.durable_end s)
    (Unix.stat path).Unix.st_size;
  (* the failed frames stayed buffered: one barrier heals everything *)
  ignore (Sink.append s (List.nth records 2) : int);
  Sink.barrier s;
  Sink.close s;
  check_healed dir path

let test_sink_fsync_failure_heals () =
  with_dir @@ fun dir ->
  with_failpoints @@ fun () ->
  let path = Filename.concat dir "wal.bin" in
  let s = Sink.create ~path ~header:"hdr" () in
  ignore (Sink.append s (List.nth records 0) : int);
  Sink.commit s;
  Failpt.set "journal.fsync" "2*eio";
  ignore (Sink.append s (List.nth records 1) : int);
  let errno = expect_io (fun () -> Sink.commit s) in
  Alcotest.(check bool) "fsync failure surfaces as EIO" true (errno = Unix.EIO);
  Alcotest.(check int) "file truncated to the durable boundary" (Sink.durable_end s)
    (Unix.stat path).Unix.st_size;
  (* still failing: the retry fails too, frames still buffered *)
  let (_ : Unix.error) = expect_io (fun () -> Sink.barrier s) in
  (* disk heals (schedule exhausted): the whole buffer lands in order *)
  ignore (Sink.append s (List.nth records 2) : int);
  Sink.barrier s;
  Sink.close s;
  check_healed dir path

let test_sink_enospc_heals () =
  with_dir @@ fun dir ->
  with_failpoints @@ fun () ->
  let path = Filename.concat dir "wal.bin" in
  let s = Sink.create ~path ~header:"hdr" () in
  Failpt.set "journal.write" "1*enospc";
  List.iter (fun r -> ignore (Sink.append s r : int)) records;
  let errno = expect_io (fun () -> Sink.barrier s) in
  Alcotest.(check bool) "ENOSPC propagates" true (errno = Unix.ENOSPC);
  Sink.barrier s;
  Sink.close s;
  check_healed dir path

let test_checkpoint_write_failure_is_recoverable () =
  with_dir @@ fun dir ->
  with_failpoints @@ fun () ->
  Failpt.set "checkpoint.write" "1*enospc";
  (match Checkpoint.write ~dir ~gen:1 ~upto_seq:5 "blob" with
  | () -> Alcotest.fail "checkpoint ENOSPC must raise"
  | exception Journal.Error.Journal_error (Journal.Error.Io _) -> ());
  (* no partial file is left behind, and no reader sees a checkpoint *)
  Alcotest.(check int) "temporary file removed" 0 (Array.length (Sys.readdir dir));
  Alcotest.(check bool) "no checkpoint visible" true (Checkpoint.latest ~dir = None);
  (* the next cadence retries the same generation and succeeds *)
  Checkpoint.write ~dir ~gen:1 ~upto_seq:5 "blob";
  match Checkpoint.latest ~dir with
  | Some l ->
      Alcotest.(check int) "generation" 1 l.Checkpoint.gen;
      Alcotest.(check int) "coverage" 5 l.Checkpoint.upto_seq;
      Alcotest.(check string) "payload" "blob" l.Checkpoint.blob
  | None -> Alcotest.fail "retried checkpoint must be visible"

(* ------------------------------------------------------------------ *)
(* Admission engine: degraded (shedding) mode                          *)
(* ------------------------------------------------------------------ *)

let server_spec seed = { Experiment.default with seed; horizon = 0.0 }

let engine_config =
  { Admission.default_config with round_interval = 1.0; max_batch = 1000 }

let synth_spec ?client_id ?(inc = Protocol.No_inc) k =
  let rng = Prelude.Rng.create (1000 + k) in
  let n_groups = Prelude.Rng.int_in rng 1 3 in
  let groups =
    List.init n_groups (fun g ->
        {
          Workload.Job.tg_index = g;
          count = Prelude.Rng.int_in rng 1 6;
          cpu = Prelude.Rng.float_in rng 0.5 4.0;
          mem = Prelude.Rng.float_in rng 0.5 4.0;
          duration = Prelude.Rng.float_in rng 1.0 15.0;
        })
  in
  let priority =
    if Prelude.Rng.bernoulli rng 0.3 then Workload.Job.Service else Workload.Job.Batch
  in
  { Protocol.priority; groups; inc; client_id }

let keyed k =
  synth_spec
    ~client_id:(Printf.sprintf "fp-%d" k)
    ~inc:(if k mod 2 = 0 then Protocol.Auto else Protocol.No_inc)
    k

let admit_exn engine spec =
  match Admission.submit engine spec with
  | Admission.Admitted { admit_id; _ } -> admit_id
  | Admission.Rejected r -> Alcotest.failf "unexpected rejection: %s" r

let wal_bytes dir = Journal.Source.read_file (Filename.concat dir "wal.bin")

let test_engine_degraded_mode () =
  with_dir @@ fun root ->
  with_failpoints @@ fun () ->
  let dir_a = Filename.concat root "a" and dir_b = Filename.concat root "b" in
  (* control: three keyed submissions, one batch, no failures *)
  let engine = Admission.start ~dir:dir_a ~config:engine_config (server_spec 11) in
  List.iter
    (fun k ->
      let (_ : int) = admit_exn engine (keyed k) in
      assert (Admission.ack_barrier engine))
    [ 0; 1; 2 ];
  ignore (Admission.flush engine : int);
  let (_ : Sim.Simulator.result) = Admission.finish engine in
  let bytes_a = wal_bytes dir_a in
  (* failing run: the fsync under submission 1's ack barrier dies *)
  let engine = Admission.start ~dir:dir_b ~config:engine_config (server_spec 11) in
  let (_ : int) = admit_exn engine (keyed 0) in
  assert (Admission.ack_barrier engine);
  Failpt.set "journal.fsync" "1*eio";
  let id1 = admit_exn engine (keyed 1) in
  Alcotest.(check bool) "barrier reports the failure" false
    (Admission.ack_barrier engine);
  Alcotest.(check bool) "engine degraded" true (Admission.degraded engine);
  Alcotest.(check bool) "failure described" true (Admission.last_error engine <> "");
  Alcotest.(check bool) "probe deadline armed" true (Admission.probe_at engine <> None);
  (* shedding: new submissions and idempotent resubmissions alike *)
  (match Admission.submit engine (keyed 2) with
  | Admission.Rejected "degraded" -> ()
  | _ -> Alcotest.fail "degraded engine must shed new submissions");
  (match Admission.submit engine (keyed 1) with
  | Admission.Rejected "degraded" -> ()
  | _ -> Alcotest.fail "degraded engine must shed resubmissions too");
  Alcotest.(check int) "degraded flush injects nothing" 0 (Admission.flush engine);
  let st = Admission.stats engine in
  Alcotest.(check bool) "stats: degraded flag" true st.Admission.degraded_now;
  Alcotest.(check int) "stats: shed count" 2 st.Admission.degraded_rejects;
  Alcotest.(check int) "stats: io errors" 1 st.Admission.io_errors;
  (* un-forced probe respects the backoff deadline *)
  Alcotest.(check bool) "probe before deadline declines" false (Admission.probe engine);
  (* the disk heals (schedule exhausted): a forced probe recovers *)
  Alcotest.(check bool) "forced probe heals" true (Admission.probe ~force:true engine);
  Alcotest.(check bool) "healthy again" true (not (Admission.degraded engine));
  (* the owed admission became durable: the client retry converges *)
  (match Admission.submit engine (keyed 1) with
  | Admission.Admitted { admit_id; duplicate } ->
      Alcotest.(check int) "same admission id" id1 admit_id;
      Alcotest.(check bool) "flagged duplicate" true duplicate
  | Admission.Rejected r -> Alcotest.failf "healed resubmission rejected: %s" r);
  let (_ : int) = admit_exn engine (keyed 2) in
  assert (Admission.ack_barrier engine);
  ignore (Admission.flush engine : int);
  let (_ : Sim.Simulator.result) = Admission.finish engine in
  Alcotest.(check string) "healed WAL byte-identical to the failure-free run" bytes_a
    (wal_bytes dir_b)

(* ------------------------------------------------------------------ *)
(* Headline property: failpoint schedules + kill-anywhere              *)
(* ------------------------------------------------------------------ *)

type op = Sub of int | Flush

let script =
  [ Sub 0; Sub 1; Flush; Sub 2; Sub 3; Sub 4; Flush; Flush; Sub 5; Sub 6; Flush ]

(* Finite (count-bounded) schedules only: every site exhausts, so the
   probe loop terminates and the run is guaranteed to heal. *)
let schedules =
  [|
    "seed=1;journal.fsync=1*eio";
    "seed=2;journal.write=1*enospc";
    "seed=3;journal.write=1*short(7);journal.fsync=1*eio";
    "seed=4;journal.fsync=2*eio;checkpoint.write=1*enospc";
    "seed=5;journal.write=2*short(3)";
  |]

let prop_config = { engine_config with Admission.checkpoint_every = 2 }

let heal engine =
  let tries = ref 0 in
  while not (Admission.probe ~force:true engine) do
    incr tries;
    if !tries > 10_000 then
      Alcotest.fail "disk never healed (unbounded failpoint schedule?)"
  done

(* Degraded-aware serving session: before each op the engine is healed
   (a real server probes on its select loop), a submission whose ack
   barrier failed — answered "degraded", still owed — is retried with
   the same idempotency key until the ack sticks.  Mirrors a client
   driving [--retries] against a shedding server. *)
let apply_ops_resilient engine ops ~acked =
  let acked = ref acked in
  List.iteri
    (fun i op ->
      if Admission.degraded engine then heal engine;
      match op with
      | Sub k ->
          let rec go tries =
            if tries > 100 then Alcotest.failf "op %d never converged" i;
            match Admission.submit engine (keyed k) with
            | Admission.Admitted { admit_id; duplicate = _ } ->
                if Admission.ack_barrier engine then begin
                  if not (List.mem admit_id !acked) then acked := admit_id :: !acked
                end
                else begin
                  heal engine;
                  go (tries + 1)
                end
            | Admission.Rejected "degraded" ->
                heal engine;
                go (tries + 1)
            | Admission.Rejected r -> Alcotest.failf "op %d rejected: %s" i r
          in
          go 0
      | Flush -> ignore (Admission.flush engine : int))
    ops;
  let result = Admission.finish engine in
  (List.rev !acked, result)

(* Failure-free variant for the control run and the post-recovery
   resumption (failpoints are disarmed before recovery: the operator
   restarts the server once the disk is back). *)
let apply_ops engine ops ~from_ ~acked =
  let acked = ref acked in
  List.iteri
    (fun i op ->
      if i >= from_ then
        match op with
        | Sub k ->
            (match Admission.submit engine (keyed k) with
            | Admission.Admitted { admit_id; duplicate = _ } ->
                assert (Admission.ack_barrier engine);
                if not (List.mem admit_id !acked) then acked := admit_id :: !acked
            | Admission.Rejected r -> Alcotest.failf "op %d rejected: %s" i r)
        | Flush -> ignore (Admission.flush engine : int))
    ops;
  let result = Admission.finish engine in
  (List.rev !acked, result)

let report_row spec (report : Sim.Metrics.report) =
  Sim.Csv_export.row ~faults:false ~resilience:false
    ~scheduler:spec.Experiment.scheduler ~mu:spec.Experiment.mu
    ~setup:spec.Experiment.setup ~seed:spec.Experiment.seed report

let resume_index ops ~admitted ~batches =
  let a = ref 0 and b = ref 0 and pending = ref 0 and idx = ref (List.length ops) in
  (try
     List.iteri
       (fun i op ->
         match op with
         | Sub _ ->
             if !a >= admitted then begin
               idx := i;
               raise Exit
             end;
             incr a;
             incr pending
         | Flush ->
             if !pending > 0 then begin
               if !b >= batches then begin
                 idx := i;
                 raise Exit
               end;
               incr b;
               pending := 0
             end)
       ops
   with Exit -> ());
  !idx

let prop_failpoints_and_kill_lose_no_acked_job =
  QCheck.Test.make
    ~name:
      "failpoints: any seeded schedule + crash at any WAL record loses no acked \
       admission, heals byte-identically"
    ~count:8
    QCheck.(
      triple (int_range 1 4) (float_range 0.0 1.0)
        (int_range 0 (Array.length schedules - 1)))
    (fun (seed, frac, sched_idx) ->
      let spec = server_spec seed in
      let dir_a = fresh_dir () and dir_b = fresh_dir () in
      Fun.protect
        ~finally:(fun () ->
          Failpt.reset ();
          rm_rf dir_a;
          rm_rf dir_b)
        (fun () ->
          (* control: no failpoints, no crash *)
          let engine_a = Admission.start ~dir:dir_a ~config:prop_config spec in
          let acked_a, result_a = apply_ops engine_a script ~from_:0 ~acked:[] in
          let bytes_a = wal_bytes dir_a in
          let l =
            match Journal.Source.load ~path:(Filename.concat dir_a "wal.bin") with
            | Ok l -> l
            | Error e ->
                QCheck.Test.fail_reportf "control WAL unreadable: %s"
                  (Journal.Error.to_string e)
          in
          let n = Array.length l.Journal.Source.records in
          if n < 3 then QCheck.Test.fail_reportf "degenerate session: %d records" n;
          let crash_at = 1 + int_of_float (frac *. float_of_int (n - 2)) in
          let schedule = schedules.(sched_idx) in
          (* tortured run: failpoint schedule armed AND a kill anywhere *)
          Failpt.load schedule;
          Failpt.set "journal.crash" (Printf.sprintf "1*short(5)@%d" crash_at);
          let engine_b = Admission.start ~dir:dir_b ~config:prop_config spec in
          match apply_ops_resilient engine_b script ~acked:[] with
          | acked_b, result_b ->
              (* the armed crash index fell past this run's lifetime: the
                 completed session must equal the control run outright *)
              Failpt.deactivate ();
              if not (String.equal bytes_a (wal_bytes dir_b)) then
                QCheck.Test.fail_reportf "seed %d sched %S: uncrashed WALs differ" seed
                  schedule;
              if report_row spec result_a.Sim.Simulator.report
                 <> report_row spec result_b.Sim.Simulator.report
              then
                QCheck.Test.fail_reportf "seed %d sched %S: uncrashed reports differ"
                  seed schedule;
              List.sort compare acked_a = List.sort compare acked_b
          | exception Journal.Sink.Crashed _ ->
              (* disk heals and the operator restarts: recovery runs with
                 the failpoints disarmed *)
              Failpt.deactivate ();
              (* every durable [Admit] record is an admission whose ack
                 could have reached a client (WAL-before-ack) *)
              let acked_pre =
                let survivors = ref [] in
                (match Journal.Source.load ~path:(Filename.concat dir_b "wal.bin") with
                | Ok l ->
                    Array.iter
                      (fun body ->
                        match Sim.Wal.decode body with
                        | Sim.Wal.Admit { admit_id; _ } ->
                            survivors := admit_id :: !survivors
                        | _ -> ()
                        | exception Prelude.Codec.Error _ -> ())
                      l.Journal.Source.records
                | Error _ -> ());
                List.rev !survivors
              in
              let r =
                try Admission.recover ~dir:dir_b ~config:prop_config ()
                with Journal.Error.Journal_error e ->
                  QCheck.Test.fail_reportf
                    "seed %d sched %S crash@%d/%d: recovery failed: %s" seed schedule
                    crash_at n (Journal.Error.to_string e)
              in
              let engine_b = r.Admission.engine in
              List.iter
                (fun id ->
                  if Admission.status engine_b id = None then
                    QCheck.Test.fail_reportf
                      "seed %d sched %S crash@%d/%d: acked admission %d lost" seed
                      schedule crash_at n id)
                acked_pre;
              let st = Admission.stats engine_b in
              let from_ =
                resume_index script ~admitted:st.Admission.admitted
                  ~batches:st.Admission.batches
              in
              let acked_b, result_b = apply_ops engine_b script ~from_ ~acked:acked_pre in
              if report_row spec result_a.Sim.Simulator.report
                 <> report_row spec result_b.Sim.Simulator.report
              then
                QCheck.Test.fail_reportf "seed %d sched %S crash@%d/%d: reports differ"
                  seed schedule crash_at n;
              if not (String.equal bytes_a (wal_bytes dir_b)) then
                QCheck.Test.fail_reportf
                  "seed %d sched %S crash@%d/%d (resumed at op %d): WALs differ" seed
                  schedule crash_at n from_;
              if List.sort compare acked_a <> List.sort compare acked_b then
                QCheck.Test.fail_reportf
                  "seed %d sched %S crash@%d/%d: acked sets differ" seed schedule
                  crash_at n;
              true))

(* ------------------------------------------------------------------ *)
(* Adversarial transports against a forked server                      *)
(* ------------------------------------------------------------------ *)

let send_all fd data =
  let len = String.length data in
  let rec write off =
    if off < len then write (off + Unix.write_substring fd data off (len - off))
  in
  write 0

let send_line fd line = send_all fd (line ^ "\n")

(* Bounded read: the test must never hang on a server bug. *)
let recv_line ?(timeout = 10.0) fd buf =
  let chunk = Bytes.create 4096 in
  let rec read () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i ->
        let all = Buffer.contents buf in
        let line = String.sub all 0 i in
        Buffer.clear buf;
        Buffer.add_substring buf all (i + 1) (String.length all - i - 1);
        line
    | None ->
        (match Unix.select [ fd ] [] [] timeout with
        | [], _, _ -> Alcotest.fail "timed out waiting for the server's reply"
        | _ -> ());
        let n = Unix.read fd chunk 0 4096 in
        if n = 0 then Alcotest.fail "server closed the connection";
        Buffer.add_subbytes buf chunk 0 n;
        read ()
  in
  read ()

let connect_with_retry path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0
      ->
        Unix.close fd;
        Unix.sleepf 0.05;
        go (tries - 1)
  in
  go 100

let check_ok resp name =
  match Json.parse resp with
  | Ok v when Json.member "ok" v = Some (Json.Bool true) -> v
  | Ok _ -> Alcotest.failf "%s: server said no: %s" name resp
  | Error e -> Alcotest.failf "%s: bad response %s: %s" name resp e

(* Fork a serving child; [failpoints] is loaded in the child (the
   registry is per-process), [io_timeout] is the containment deadline. *)
let with_server ?failpoints ?(io_timeout = 30.0) ~seed f =
  with_dir @@ fun dir ->
  let sock = Filename.concat dir "server.sock" in
  let state = Filename.concat dir "journal" in
  match Unix.fork () with
  | 0 ->
      Unix._exit
        (try
           (match failpoints with None -> () | Some v -> Failpt.load v);
           let engine = Admission.start ~dir:state ~config:engine_config (server_spec seed) in
           let (_ : Sim.Simulator.result) =
             Server.Net.serve ~engine ~listen:(Server.Net.Unix_sock sock)
               ~tick_interval:10.0 ~io_timeout ()
           in
           0
         with _ -> 1)
  | pid ->
      let finally () = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> () in
      Fun.protect ~finally (fun () ->
          f sock;
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _, Unix.WEXITED c -> Alcotest.failf "server exited %d" c
          | _ -> Alcotest.fail "server killed by signal")

(* A submit line whose client key holds multi-byte UTF-8, so the
   byte-by-byte transport splits mid-character as well as mid-frame. *)
let utf8_submit =
  {|{"op":"submit","priority":"batch","groups":[{"count":2,"cpu":1.0,"mem":2.0,"duration":10.0}],"client_id":"clé-é-0"}|}

let test_transport_partial_writes () =
  with_server ~seed:21 @@ fun sock ->
  let fd = connect_with_retry sock in
  let buf = Buffer.create 256 in
  (* one byte per write: every frame and every UTF-8 character is split *)
  String.iter (fun c -> send_all fd (String.make 1 c)) (utf8_submit ^ "\n");
  let v = check_ok (recv_line fd buf) "byte-by-byte submit" in
  Alcotest.(check (option int)) "admitted" (Some 0)
    (Option.bind (Json.member "id" v) Json.to_int);
  (* two requests split mid-frame across writes *)
  let line2 = Protocol.render_submit (synth_spec ~client_id:"frame-1" 1) in
  let both = line2 ^ "\n" ^ {|{"op":"stats"}|} ^ "\n" in
  let cut = String.length line2 / 2 in
  send_all fd (String.sub both 0 cut);
  Unix.sleepf 0.05;
  send_all fd (String.sub both cut (String.length both - cut));
  let v = check_ok (recv_line fd buf) "mid-frame submit" in
  Alcotest.(check (option int)) "second admission" (Some 1)
    (Option.bind (Json.member "id" v) Json.to_int);
  let v = check_ok (recv_line fd buf) "stats after split" in
  Alcotest.(check (option bool)) "stats report healthy" (Some false)
    (Option.bind (Json.member "degraded" v) (function
      | Json.Bool b -> Some b
      | _ -> None));
  send_line fd {|{"op":"shutdown"}|};
  let (_ : Json.t) = check_ok (recv_line fd buf) "shutdown" in
  Unix.close fd

let test_transport_disconnect_before_reply () =
  with_server ~seed:22 @@ fun sock ->
  (* fire a keyed submission and vanish without reading the reply *)
  let fd = connect_with_retry sock in
  send_line fd (Protocol.render_submit (synth_spec ~client_id:"gone-0" 0));
  Unix.close fd;
  Unix.sleepf 0.2;
  (* the admission was journaled: a retry with the same key converges *)
  let fd = connect_with_retry sock in
  let buf = Buffer.create 256 in
  send_line fd (Protocol.render_submit (synth_spec ~client_id:"gone-0" 0));
  let v = check_ok (recv_line fd buf) "resubmission" in
  Alcotest.(check (option bool)) "deduplicated" (Some true)
    (Option.bind (Json.member "duplicate" v) (function
      | Json.Bool b -> Some b
      | _ -> None));
  send_line fd {|{"op":"shutdown"}|};
  let (_ : Json.t) = check_ok (recv_line fd buf) "shutdown" in
  Unix.close fd

let test_transport_slow_loris_contained () =
  with_server ~seed:23 ~io_timeout:0.4 @@ fun sock ->
  (* a dribbling connection starts a line and never finishes it *)
  let loris = connect_with_retry sock in
  send_all loris {|{"op|};
  (* the server must cut it off at the io deadline *)
  let closed =
    match Unix.select [ loris ] [] [] 5.0 with
    | [], _, _ -> false
    | _ -> (
        match Unix.read loris (Bytes.create 64) 0 64 with
        | 0 -> true
        | _ -> false
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> true)
  in
  Alcotest.(check bool) "slow-loris connection closed" true closed;
  (try Unix.close loris with Unix.Unix_error _ -> ());
  (* the server is still alive and serving *)
  let fd = connect_with_retry sock in
  let buf = Buffer.create 256 in
  send_line fd {|{"op":"stats"}|};
  let (_ : Json.t) = check_ok (recv_line fd buf) "stats after loris" in
  send_line fd {|{"op":"shutdown"}|};
  let (_ : Json.t) = check_ok (recv_line fd buf) "shutdown" in
  Unix.close fd

let test_transport_survives_net_failpoints () =
  (* accept fails once with EMFILE, replies dribble out through forced
     1-byte partial writes — the exchange still completes *)
  with_server ~seed:24 ~failpoints:"seed=9;net.accept=1*emfile;net.write=6*short(1)"
  @@ fun sock ->
  let fd = connect_with_retry sock in
  let buf = Buffer.create 256 in
  send_line fd (Protocol.render_submit (synth_spec ~client_id:"fp-net-0" 0));
  let v = check_ok (recv_line fd buf) "submit through failpoints" in
  Alcotest.(check (option int)) "admitted" (Some 0)
    (Option.bind (Json.member "id" v) Json.to_int);
  send_line fd {|{"op":"shutdown"}|};
  let (_ : Json.t) = check_ok (recv_line fd buf) "shutdown" in
  Unix.close fd

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "failpoints"
    [
      ( "registry",
        [
          quick "grammar parses and describes" test_grammar_parses;
          quick "bad specs rejected" test_grammar_rejects;
          quick "seeded streams deterministic and independent" test_eval_deterministic;
          quick "skip count delays the first fire" test_skip_count;
        ]
        @ qt [ prop_describe_round_trips ] );
      ( "sink",
        [
          quick "short write truncates and heals" test_sink_short_write_heals;
          quick "fsync failure keeps frames buffered" test_sink_fsync_failure_heals;
          quick "ENOSPC barrier retries in order" test_sink_enospc_heals;
          quick "checkpoint write failure is a clean skip"
            test_checkpoint_write_failure_is_recoverable;
        ] );
      ( "degraded",
        [ quick "shed, probe, heal, byte-identical WAL" test_engine_degraded_mode ]
        @ qt [ prop_failpoints_and_kill_lose_no_acked_job ] );
      ( "transport",
        [
          quick "partial writes mid-UTF-8 and mid-frame" test_transport_partial_writes;
          quick "disconnect between request and reply"
            test_transport_disconnect_before_reply;
          quick "slow-loris contained" test_transport_slow_loris_contained;
          quick "accept/write failpoints survived" test_transport_survives_net_failpoints;
        ] );
    ]
