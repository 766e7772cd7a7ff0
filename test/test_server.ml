(* Tests for the admission-API server (docs/SERVER.md): the JSON codec
   and wire protocol against adversarial inputs (oversized lines,
   truncated and malformed JSON, nesting bombs, unknown ops — each
   yields a structured error, never an exception and never a journal
   record), the admission engine (idempotency keys, backpressure,
   batching), a forked end-to-end socket exchange, and the headline
   crash-recovery property: kill the server at any WAL record between
   ack and placement, recover, and verify that no acked admission is
   lost and the final metrics row and WAL are byte-identical to an
   uninterrupted run. *)

module Json = Server.Json
module Protocol = Server.Protocol
module Admission = Server.Admission
module Experiment = Harness.Experiment

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                 *)
(* ------------------------------------------------------------------ *)

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "hire_server_test_%d_%d" (Unix.getpid ()) !tmp_counter)

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

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let cases =
    [
      ("null", Json.Null);
      ("true", Json.Bool true);
      ("false", Json.Bool false);
      ("0", Json.Num 0.0);
      ("-3", Json.Num (-3.0));
      ("1.5", Json.Num 1.5);
      ({|"hi"|}, Json.Str "hi");
      ({|""|}, Json.Str "");
      ("[]", Json.Arr []);
      ("[1,2]", Json.Arr [ Json.Num 1.0; Json.Num 2.0 ]);
      ("{}", Json.Obj []);
      ( {|{"a":1,"b":[true,null]}|},
        Json.Obj
          [ ("a", Json.Num 1.0); ("b", Json.Arr [ Json.Bool true; Json.Null ]) ] );
    ]
  in
  List.iter
    (fun (text, v) ->
      (match Json.parse text with
      | Ok v' -> Alcotest.(check bool) ("parses: " ^ text) true (v = v')
      | Error e -> Alcotest.failf "%s failed to parse: %s" text e);
      Alcotest.(check string) ("emits: " ^ text) text (Json.to_string v))
    cases;
  (* escapes decode and re-encode *)
  (match Json.parse {|"a\n\t\"\\\u0041\u00e9"|} with
  | Ok (Json.Str s) -> Alcotest.(check string) "escapes" "a\n\t\"\\A\xc3\xa9" s
  | _ -> Alcotest.fail "escape string must parse");
  (* whitespace tolerated around one value *)
  Alcotest.(check bool) "surrounding whitespace" true
    (Json.parse "  { \"a\" : 1 }  " = Ok (Json.Obj [ ("a", Json.Num 1.0) ]))

let test_json_adversarial () =
  let bomb depth = String.concat "" (List.init depth (fun _ -> "[")) in
  let cases =
    [
      ("empty", "");
      ("truncated object", {|{"a":|});
      ("truncated string", {|"abc|});
      ("truncated escape", {|"ab\|});
      ("bad escape", {|"a\q"|});
      ("bad unicode escape", {|"\u12g4"|});
      ("unpaired surrogate", {|"\ud800"|});
      ("lone low surrogate", {|"\udc00"|});
      ("raw control byte", "\"a\x01b\"");
      ("trailing garbage", "1 2");
      ("two values", "{}{}");
      ("bare word", "nul");
      ("number with no digits", "-");
      ("exponent with no digits", "1e");
      ("missing comma", {|[1 2]|});
      ("missing colon", {|{"a" 1}|});
      ("unterminated array", "[1,2");
      ("nesting bomb", bomb 100_000);
      ("deep but closed", bomb 64 ^ String.concat "" (List.init 64 (fun _ -> "]")));
    ]
  in
  List.iter
    (fun (name, text) ->
      match Json.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s must fail closed" name)
    cases

let prop_json_never_raises =
  QCheck.Test.make ~name:"json: arbitrary bytes never raise" ~count:1000
    QCheck.(string_gen_of_size Gen.(int_range 0 64) Gen.char)
    (fun s ->
      match Json.parse s with Ok _ | Error _ -> true)

let prop_json_roundtrips_own_output =
  let rec gen_value depth =
    let open QCheck.Gen in
    if depth = 0 then
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun f -> Json.Num f) (float_bound_inclusive 1000.0);
          map (fun s -> Json.Str s) (string_size ~gen:printable (int_range 0 8));
        ]
    else
      frequency
        [
          (2, gen_value 0);
          (1, map (fun l -> Json.Arr l) (list_size (int_range 0 4) (gen_value (depth - 1))));
          ( 1,
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (int_range 0 4)
                 (pair (string_size ~gen:printable (int_range 1 6)) (gen_value (depth - 1))))
          );
        ]
  in
  QCheck.Test.make ~name:"json: to_string output re-parses to the same value"
    ~count:300
    (QCheck.make (gen_value 3))
    (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok v' -> Json.to_string v = Json.to_string v'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)
(* ------------------------------------------------------------------ *)

let submit_line =
  {|{"op":"submit","priority":"batch","groups":[{"count":2,"cpu":1.0,"mem":2.0,"duration":10.0}]}|}

let test_protocol_parses_valid_ops () =
  (match Protocol.parse_request submit_line with
  | Ok (Protocol.Submit js) ->
      Alcotest.(check int) "one group" 1 (List.length js.Protocol.groups);
      Alcotest.(check bool) "no inc" true (js.Protocol.inc = Protocol.No_inc);
      Alcotest.(check (option string)) "no client id" None js.Protocol.client_id
  | Ok _ -> Alcotest.fail "parsed as the wrong op"
  | Error e -> Alcotest.failf "valid submit rejected: %s" e);
  (match Protocol.parse_request {|{"op":"status","id":3}|} with
  | Ok (Protocol.Status 3) -> ()
  | _ -> Alcotest.fail "status must parse");
  (match Protocol.parse_request {|{"op":"stats"}|} with
  | Ok Protocol.Stats -> ()
  | _ -> Alcotest.fail "stats must parse");
  (match Protocol.parse_request {|{"op":"drain"}|} with
  | Ok Protocol.Drain -> ()
  | _ -> Alcotest.fail "drain must parse");
  match Protocol.parse_request {|{"op":"shutdown"}|} with
  | Ok Protocol.Shutdown -> ()
  | _ -> Alcotest.fail "shutdown must parse"

let test_protocol_adversarial () =
  let giant = String.make (Protocol.max_line_bytes + 1) 'x' in
  let too_many_groups =
    let g = {|{"count":1,"cpu":1.0,"mem":1.0,"duration":1.0}|} in
    Printf.sprintf
      {|{"op":"submit","priority":"batch","groups":[%s]}|}
      (String.concat "," (List.init (Protocol.max_groups + 1) (fun _ -> g)))
  in
  let cases =
    [
      ("oversized line", giant);
      ("not json", "hello");
      ("truncated json", {|{"op":"sub|});
      ("non-object", "[1,2,3]");
      ("missing op", {|{"id":1}|});
      ("unknown op", {|{"op":"reboot"}|});
      ("op wrong type", {|{"op":7}|});
      ("submit without groups", {|{"op":"submit","priority":"batch"}|});
      ("submit empty groups", {|{"op":"submit","priority":"batch","groups":[]}|});
      ("submit too many groups", too_many_groups);
      ( "unknown priority",
        {|{"op":"submit","priority":"urgent","groups":[{"count":1,"cpu":1.0,"mem":1.0,"duration":1.0}]}|}
      );
      ( "zero count",
        {|{"op":"submit","priority":"batch","groups":[{"count":0,"cpu":1.0,"mem":1.0,"duration":1.0}]}|}
      );
      ( "fractional count",
        {|{"op":"submit","priority":"batch","groups":[{"count":1.5,"cpu":1.0,"mem":1.0,"duration":1.0}]}|}
      );
      ( "negative cpu",
        {|{"op":"submit","priority":"batch","groups":[{"count":1,"cpu":-1.0,"mem":1.0,"duration":1.0}]}|}
      );
      ( "overflowing duration",
        {|{"op":"submit","priority":"batch","groups":[{"count":1,"cpu":1.0,"mem":1.0,"duration":1e999}]}|}
      );
      ( "group missing field",
        {|{"op":"submit","priority":"batch","groups":[{"count":1,"cpu":1.0,"mem":1.0}]}|}
      );
      ( "group wrong type",
        {|{"op":"submit","priority":"batch","groups":["not-a-group"]}|} );
      ( "empty client id",
        {|{"op":"submit","priority":"batch","groups":[{"count":1,"cpu":1.0,"mem":1.0,"duration":1.0}],"client_id":""}|}
      );
      ("status without id", {|{"op":"status"}|});
      ("status negative id", {|{"op":"status","id":-1}|});
      ("status float id", {|{"op":"status","id":1.5}|});
    ]
  in
  List.iter
    (fun (name, line) ->
      match Protocol.parse_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s must be rejected" name)
    cases

let test_protocol_render_roundtrip () =
  let spec =
    {
      Protocol.priority = Workload.Job.Service;
      groups =
        [
          { Workload.Job.tg_index = 0; count = 3; cpu = 1.5; mem = 0.5; duration = 12.0 };
          { Workload.Job.tg_index = 1; count = 1; cpu = 2.0; mem = 4.0; duration = 3.0 };
        ];
      inc = Protocol.Service "netcache";
      client_id = Some "cli-1";
    }
  in
  match Protocol.parse_request (Protocol.render_submit spec) with
  | Ok (Protocol.Submit js) ->
      Alcotest.(check bool) "round-trips" true (js = spec)
  | Ok _ -> Alcotest.fail "rendered submit parsed as the wrong op"
  | Error e -> Alcotest.failf "rendered submit rejected: %s" e

(* ------------------------------------------------------------------ *)
(* Admission engine                                                    *)
(* ------------------------------------------------------------------ *)

(* Serving spec: zero horizon, so the built-in trace is empty and every
   job enters through admission. *)
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

let admit_exn engine spec =
  match Admission.submit engine spec with
  | Admission.Admitted { admit_id; _ } -> admit_id
  | Admission.Rejected r -> Alcotest.failf "unexpected rejection: %s" r

let test_engine_submit_flush_status () =
  with_dir @@ fun dir ->
  let engine = Admission.start ~dir ~config:engine_config (server_spec 5) in
  let id0 = admit_exn engine (synth_spec 0) in
  let id1 = admit_exn engine (synth_spec ~inc:Protocol.Auto 1) in
  let id2 = admit_exn engine (synth_spec ~inc:(Protocol.Service "netcache") 2) in
  Alcotest.(check (list int)) "dense admission ids" [ 0; 1; 2 ] [ id0; id1; id2 ];
  Alcotest.(check bool) "barrier ok" true (Admission.ack_barrier engine);
  Alcotest.(check int) "three pending" 3 (Admission.pending engine);
  (match Admission.status engine id2 with
  | Some s -> Alcotest.(check string) "queued before flush" "queued" s.Admission.phase
  | None -> Alcotest.fail "status must know an admitted id");
  Alcotest.(check bool) "unknown id" true (Admission.status engine 99 = None);
  let n = Admission.flush engine in
  Alcotest.(check int) "whole batch injected" 3 n;
  (match Admission.status engine id0 with
  | Some s ->
      Alcotest.(check string) "done after drain" "done" s.Admission.phase;
      Alcotest.(check bool) "has placements" true (s.Admission.placements > 0)
  | None -> Alcotest.fail "status lost after flush");
  let st = Admission.stats engine in
  Alcotest.(check int) "stats admitted" 3 st.Admission.admitted;
  Alcotest.(check int) "stats injected" 3 st.Admission.injected;
  Alcotest.(check int) "stats batches" 1 st.Admission.batches;
  Alcotest.(check int) "stats pending" 0 st.Admission.pending_now;
  let (_ : Sim.Simulator.result) = Admission.finish engine in
  ()

let test_engine_idempotency_key () =
  with_dir @@ fun dir ->
  let engine = Admission.start ~dir ~config:engine_config (server_spec 6) in
  let spec = synth_spec ~client_id:"job-A" 0 in
  let id = admit_exn engine spec in
  let seq_after_first = Sim.Service.wal_seq (Admission.service engine) in
  (match Admission.submit engine spec with
  | Admission.Admitted { admit_id; duplicate } ->
      Alcotest.(check int) "same id returned" id admit_id;
      Alcotest.(check bool) "flagged duplicate" true duplicate
  | Admission.Rejected r -> Alcotest.failf "duplicate rejected: %s" r);
  Alcotest.(check int) "duplicate journaled nothing" seq_after_first
    (Sim.Service.wal_seq (Admission.service engine));
  Alcotest.(check int) "still one pending" 1 (Admission.pending engine);
  let (_ : Sim.Simulator.result) = Admission.finish engine in
  ()

let test_engine_backpressure_and_rejection () =
  with_dir @@ fun dir ->
  let config = { engine_config with Admission.max_pending = 2 } in
  let engine = Admission.start ~dir ~config (server_spec 7) in
  let (_ : int) = admit_exn engine (synth_spec 0) in
  let (_ : int) = admit_exn engine (synth_spec 1) in
  let seq = Sim.Service.wal_seq (Admission.service engine) in
  (match Admission.submit engine (synth_spec 2) with
  | Admission.Rejected "queue_full" -> ()
  | Admission.Rejected r -> Alcotest.failf "wrong rejection: %s" r
  | Admission.Admitted _ -> Alcotest.fail "backpressure must reject");
  (* an unknown INC service is rejected by validation, same contract *)
  (match
     Admission.submit engine
       { (synth_spec 3) with Protocol.inc = Protocol.Service "no-such-service" }
   with
  | Admission.Rejected _ -> ()
  | Admission.Admitted _ -> Alcotest.fail "unknown service must reject");
  Alcotest.(check int) "rejections journaled nothing" seq
    (Sim.Service.wal_seq (Admission.service engine));
  Alcotest.(check int) "pending unchanged" 2 (Admission.pending engine);
  let st = Admission.stats engine in
  Alcotest.(check int) "rejections counted" 2 st.Admission.rejected;
  (* rejected submissions never allocated an id: after the queue
     drains, the next admission is dense *)
  Alcotest.(check int) "flush clears the queue" 2 (Admission.flush engine);
  Alcotest.(check int) "ids stay dense" 2 (admit_exn engine (synth_spec 4));
  let (_ : Sim.Simulator.result) = Admission.finish engine in
  ()

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                      *)
(* ------------------------------------------------------------------ *)

(* A deterministic serving session: a script of submissions and
   flushes.  Submissions ack one by one (submit + barrier), exactly the
   server loop's behaviour with a single connection. *)
type op = Sub of int | Flush

let script =
  [ Sub 0; Sub 1; Flush; Sub 2; Sub 3; Sub 4; Flush; Flush; Sub 5; Sub 6; Flush ]

let spec_of_op k = synth_spec ~inc:(if k mod 2 = 0 then Protocol.Auto else Protocol.No_inc) k

(* Apply ops from index [from_]; returns the ids acked so far (in ack
   order) alongside the final result.  [acked] accumulates across a
   crash: the caller passes the pre-crash list when resuming. *)
let apply_ops engine ops ~from_ ~acked =
  let acked = ref acked in
  List.iteri
    (fun i op ->
      if i >= from_ then
        match op with
        | Sub k ->
            (match Admission.submit engine (spec_of_op k) with
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

let wal_bytes dir = Journal.Source.read_file (Filename.concat dir "wal.bin")

(* Where to resume the script after recovery: replay the ops against
   the recovered counters — an op whose effect is already in the tables
   (admission present / batch journaled) completed before the crash. *)
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

let test_recovery_restores_pending_queue () =
  with_dir @@ fun dir ->
  let engine = Admission.start ~dir ~config:engine_config (server_spec 8) in
  let (_ : int) = admit_exn engine (synth_spec ~client_id:"a" 0) in
  let (_ : int) = admit_exn engine (synth_spec ~client_id:"b" 1) in
  assert (Admission.ack_barrier engine);
  (* Abandon the engine without finish — the crash model for "acked but
     never placed".  The sink's fd leaks for the test's duration, which
     is fine: recovery reopens the file by path. *)
  let r = Admission.recover ~dir ~config:engine_config () in
  Alcotest.(check int) "both admissions recovered" 2 r.Admission.pending_recovered;
  let engine = r.Admission.engine in
  Alcotest.(check int) "pending restored" 2 (Admission.pending engine);
  (* the idempotency map survives recovery too *)
  (match Admission.submit engine (synth_spec ~client_id:"a" 0) with
  | Admission.Admitted { admit_id; duplicate } ->
      Alcotest.(check int) "dedup across recovery" 0 admit_id;
      Alcotest.(check bool) "flagged duplicate" true duplicate
  | Admission.Rejected r -> Alcotest.failf "dedup rejected: %s" r);
  Alcotest.(check int) "flush places both" 2 (Admission.flush engine);
  let (_ : Sim.Simulator.result) = Admission.finish engine in
  ()

(* The headline property (WAL-before-ack): crash the server at ANY WAL
   record index between ack and placement, recover, resume the script —
   no acked admission is lost, and the final metrics row and the whole
   WAL are byte-identical to the uninterrupted session's. *)
let prop_kill_anywhere_loses_no_acked_job =
  QCheck.Test.make
    ~name:"server: crash at any WAL record loses no acked admission, recovers byte-identically"
    ~count:8
    QCheck.(pair (int_range 1 4) (float_range 0.0 1.0))
    (fun (seed, frac) ->
      let spec = server_spec seed in
      let dir_a = fresh_dir () and dir_b = fresh_dir () in
      Fun.protect
        ~finally:(fun () ->
          rm_rf dir_a;
          rm_rf dir_b)
        (fun () ->
          let engine_a = Admission.start ~dir:dir_a ~config:engine_config spec in
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
          (* crashed run *)
          let acked_pre, crashed =
            Fun.protect ~finally:Failpt.reset @@ fun () ->
            Failpt.set "journal.crash" (Printf.sprintf "1*short(5)@%d" crash_at);
            let engine_b = Admission.start ~dir:dir_b ~config:engine_config spec in
            match apply_ops engine_b script ~from_:0 ~acked:[] with
            | _ -> (([] : int list), false)
            | exception Journal.Sink.Crashed _ ->
                (* the admissions acked before the crash: their [Admit]
                   records survived the tear (WAL-before-ack made them
                   durable before any acknowledgment) *)
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
                (List.rev !survivors, true)
          in
          if not crashed then
            (* the armed record index fell past this run's lifetime —
               the session completed; it must equal the control run *)
            String.equal bytes_a (wal_bytes dir_b)
          else begin
            let r =
              try Admission.recover ~dir:dir_b ~config:engine_config ()
              with Journal.Error.Journal_error e ->
                QCheck.Test.fail_reportf "seed %d crash@%d/%d: recovery failed: %s"
                  seed crash_at n (Journal.Error.to_string e)
            in
            let engine_b = r.Admission.engine in
            (* WAL-before-ack: every admission whose record survived the
               tear (= every admission whose ack could have been sent)
               is known to the recovered engine *)
            List.iter
              (fun id ->
                if Admission.status engine_b id = None then
                  QCheck.Test.fail_reportf
                    "seed %d crash@%d/%d: acked admission %d lost" seed crash_at n id)
              acked_pre;
            let st = Admission.stats engine_b in
            let from_ =
              resume_index script ~admitted:st.Admission.admitted
                ~batches:st.Admission.batches
            in
            let acked_b, result_b =
              apply_ops engine_b script ~from_ ~acked:acked_pre
            in
            if report_row spec result_a.Sim.Simulator.report
               <> report_row spec result_b.Sim.Simulator.report
            then
              QCheck.Test.fail_reportf "seed %d crash@%d/%d: reports differ" seed
                crash_at n;
            if not (String.equal bytes_a (wal_bytes dir_b)) then
              QCheck.Test.fail_reportf
                "seed %d crash@%d/%d (resumed at op %d, replayed %d): WALs differ"
                seed crash_at n from_ r.Admission.replayed;
            if List.sort compare acked_a <> List.sort compare acked_b then
              QCheck.Test.fail_reportf "seed %d crash@%d/%d: acked sets differ" seed
                crash_at n;
            true
          end))

(* ------------------------------------------------------------------ *)
(* End-to-end over a real socket                                       *)
(* ------------------------------------------------------------------ *)

let send_line fd line =
  let data = line ^ "\n" in
  let len = String.length data in
  let rec write off =
    if off < len then write (off + Unix.write_substring fd data off (len - off))
  in
  write 0

let recv_line fd buf =
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
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.05;
        go (tries - 1)
  in
  go 100

let test_socket_end_to_end () =
  with_dir @@ fun dir ->
  let sock = Filename.concat dir "server.sock" in
  let state = Filename.concat dir "journal" in
  match Unix.fork () with
  | 0 ->
      (* child: serve until the shutdown op; _exit skips the parent's
         at_exit machinery inherited across the fork *)
      Unix._exit
        (try
           let engine = Admission.start ~dir:state ~config:engine_config (server_spec 9) in
           let (_ : Sim.Simulator.result) =
             Server.Net.serve ~engine ~listen:(Server.Net.Unix_sock sock)
               ~tick_interval:10.0 ()
           in
           0
         with _ -> 1)
  | pid ->
      let check_ok resp name =
        match Json.parse resp with
        | Ok v when Json.member "ok" v = Some (Json.Bool true) -> v
        | Ok _ -> Alcotest.failf "%s: server said no: %s" name resp
        | Error e -> Alcotest.failf "%s: bad response %s: %s" name resp e
      in
      let finally () = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> () in
      Fun.protect ~finally (fun () ->
          let fd = connect_with_retry sock in
          let buf = Buffer.create 256 in
          send_line fd (Protocol.render_submit (synth_spec ~client_id:"e2e-0" 0));
          let v = check_ok (recv_line fd buf) "submit" in
          Alcotest.(check (option int)) "first id" (Some 0)
            (Option.bind (Json.member "id" v) Json.to_int);
          (* a malformed line gets a structured error, connection stays up *)
          send_line fd "{not json";
          (match Json.parse (recv_line fd buf) with
          | Ok v -> (
              match Json.member "ok" v with
              | Some (Json.Bool false) -> ()
              | _ -> Alcotest.fail "malformed line must yield ok=false")
          | Error e -> Alcotest.failf "error response unparsable: %s" e);
          send_line fd {|{"op":"drain"}|};
          let v = check_ok (recv_line fd buf) "drain" in
          Alcotest.(check (option int)) "drained one" (Some 1)
            (Option.bind (Json.member "injected" v) Json.to_int);
          send_line fd {|{"op":"status","id":0}|};
          let v = check_ok (recv_line fd buf) "status" in
          Alcotest.(check (option string)) "done" (Some "done")
            (Option.bind (Json.member "phase" v) Json.to_str);
          send_line fd {|{"op":"shutdown"}|};
          let (_ : Json.t) = check_ok (recv_line fd buf) "shutdown" in
          Unix.close fd;
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _, Unix.WEXITED c -> Alcotest.failf "server exited %d" c
          | _ -> Alcotest.fail "server killed by signal")

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "server"
    [
      ( "json",
        [
          quick "round-trip" test_json_roundtrip;
          quick "adversarial inputs fail closed" test_json_adversarial;
        ]
        @ qt [ prop_json_never_raises; prop_json_roundtrips_own_output ] );
      ( "protocol",
        [
          quick "valid ops parse" test_protocol_parses_valid_ops;
          quick "adversarial inputs fail closed" test_protocol_adversarial;
          quick "render/parse round-trip" test_protocol_render_roundtrip;
        ] );
      ( "admission",
        [
          quick "submit, flush, status, stats" test_engine_submit_flush_status;
          quick "idempotency key dedups" test_engine_idempotency_key;
          quick "backpressure and rejection" test_engine_backpressure_and_rejection;
        ] );
      ( "recovery",
        [ quick "acked-but-unplaced queue restored" test_recovery_restores_pending_queue ]
        @ qt [ prop_kill_anywhere_loses_no_acked_job ] );
      ("socket", [ quick "end-to-end exchange" test_socket_end_to_end ]);
    ]
