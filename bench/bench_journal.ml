(* Journal-overhead and crash-recovery benchmark (docs/JOURNAL.md):
   runs the same experiment cell plain and under the write-ahead log,
   certifies the journaled run's report byte-identical to the plain one
   (deterministic wall times on both sides, so the comparison is exact),
   and measures how recovery time scales with the replayed WAL suffix by
   crashing fresh runs at 1/4, 1/2, and 3/4 of the log — once replaying
   from genesis, once landing on the newest checkpoint.

   Emits a JSON report (BENCH_7.json) consumed by CI.  Exit status is 1
   when any identity check fails, so `make bench-journal` can gate on
   it; the <10% overhead headline is informational on shared runners. *)

module Clock = Prelude.Clock
module Experiment = Harness.Experiment
module Source = Journal.Source

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "hire_bench_journal_%d_%d" (Unix.getpid ()) !tmp_counter)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Deterministic wall times on both sides: the plain/journaled reports
   must be comparable byte for byte, and replay requires it anyway. *)
let config = { Sim.Simulator.default_config with deterministic_wall = true }

let spec ~k ~horizon ~seed =
  {
    Experiment.default with
    k;
    horizon;
    seed;
    faults =
      Some
        {
          Faults.plan =
            {
              Faults.Plan.default_config with
              server_mtbf = 120.0;
              switch_mtbf = 120.0;
              server_mttr = 15.0;
              switch_mttr = 15.0;
            };
          policy = Faults.Policy.create ~max_retries:2 ();
        };
  }

let report_row (s : Experiment.spec) report =
  Sim.Csv_export.row ~faults:true ~resilience:false ~scheduler:s.Experiment.scheduler
    ~mu:s.Experiment.mu ~setup:s.Experiment.setup ~seed:s.Experiment.seed report

let run_plain s =
  let sim = Experiment.prepare ~config s in
  let t0 = Clock.now () in
  while Sim.Simulator.step sim do
    ()
  done;
  let result = Sim.Simulator.finish sim in
  (Clock.elapsed_since t0, result.Sim.Simulator.report)

let run_journaled s ~dir ~checkpoint_every =
  let service =
    Sim.Service.start ~dir ~checkpoint_every
      ~header:(Experiment.spec_to_blob s)
      (Experiment.prepare ~config s)
  in
  let t0 = Clock.now () in
  let result = Sim.Service.run service in
  (Clock.elapsed_since t0, result.Sim.Simulator.report)

type recovery_point = {
  frac : float;
  crash_at : int;
  mode : string;  (* "genesis" | "checkpoint" *)
  replayed : int;
  recover_s : float;
  identical : bool;
}

(* Crash a fresh journaled run at [crash_at], time {!Sim.Service.recover}
   (torn-tail truncation + checkpoint overlay + deterministic replay),
   then finish the run and compare against the uninterrupted row. *)
let recovery_point s ~row ~checkpoint_every ~frac ~crash_at =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Fun.protect ~finally:Failpt.reset @@ fun () ->
  Failpt.set "journal.crash" (Printf.sprintf "1*short(5)@%d" crash_at);
  (match run_journaled s ~dir ~checkpoint_every with
  | _ -> failwith "armed crash did not fire"
  | exception Journal.Sink.Crashed _ -> ());
  let t0 = Clock.now () in
  let recovered =
    Sim.Service.recover ~dir ~checkpoint_every
      ~rebuild:(fun header -> Experiment.prepare ~config (Experiment.spec_of_blob header))
      ()
  in
  let recover_s = Clock.elapsed_since t0 in
  let result = Sim.Service.run recovered.Sim.Service.service in
  {
    frac;
    crash_at;
    mode = (if recovered.Sim.Service.from_checkpoint = None then "genesis" else "checkpoint");
    replayed = recovered.Sim.Service.replayed;
    recover_s;
    identical = String.equal row (report_row s result.Sim.Simulator.report);
  }

(* Median of three runs: single-shot wall times on a shared box swing
   by 20%, which would swamp a <10% overhead comparison. *)
let median3 f =
  match List.sort compare [ f (); f (); f () ] with
  | [ _; m; _ ] -> m
  | _ -> assert false

let run k horizon seed checkpoint_every out =
  let s = spec ~k ~horizon ~seed in
  Printf.printf "cell: %s\n%!" (Experiment.describe s);

  (* Warm-up pass so allocator/code-cache state doesn't bias the plain
     side (it runs first). *)
  let (_ : float * Sim.Metrics.report) = run_plain s in

  let plain_s, plain_report = median3 (fun () -> run_plain s) in
  Printf.printf "plain:     %.3fs (median of 3)\n%!" plain_s;

  let journaled_once () =
    let dir = fresh_dir () in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let journaled_s, journaled_report = run_journaled s ~dir ~checkpoint_every in
    let wal = Filename.concat dir "wal.bin" in
    let loaded =
      match Source.load ~path:wal with
      | Ok l -> l
      | Error e -> failwith (Journal.Error.to_string e)
    in
    ( journaled_s,
      (journaled_report, Array.length loaded.Source.records,
       (Unix.stat wal).Unix.st_size) )
  in
  let journaled_s, (journaled_report, wal_records, wal_bytes) = median3 journaled_once in
  let overhead_pct = 100.0 *. ((journaled_s -. plain_s) /. plain_s) in
  Printf.printf "journaled: %.3fs (median of 3, %+.1f%%), %d records, %d bytes\n%!"
    journaled_s overhead_pct wal_records wal_bytes;

  let row = report_row s plain_report in
  let identical = String.equal row (report_row s journaled_report) in
  Printf.printf "identical: %b\n%!" identical;

  (* Recovery-time-vs-WAL-length curve: genesis replay cost grows with
     the crash point; checkpointed recovery replays only the suffix past
     the newest checkpoint. *)
  let points =
    List.concat_map
      (fun frac ->
        let crash_at = max 1 (int_of_float (frac *. float_of_int wal_records)) in
        [
          recovery_point s ~row ~checkpoint_every:0 ~frac ~crash_at;
          recovery_point s ~row ~checkpoint_every ~frac ~crash_at;
        ])
      [ 0.25; 0.5; 0.75 ]
  in
  List.iter
    (fun p ->
      Printf.printf "recover @%d (%s): %.4fs, %d replayed, identical=%b\n%!" p.crash_at
        p.mode p.recover_s p.replayed p.identical)
    points;
  let all_identical = identical && List.for_all (fun p -> p.identical) points in

  let buf = Buffer.create 2048 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "{\n";
  addf "  \"bench\": \"journal\",\n";
  addf "  \"config\": { \"k\": %d, \"horizon_s\": %g, \"seed\": %d, \"checkpoint_every\": %d },\n"
    k horizon seed checkpoint_every;
  addf "  \"plain_s\": %.6f,\n" plain_s;
  addf "  \"journaled_s\": %.6f,\n" journaled_s;
  addf "  \"overhead_pct\": %.3f,\n" overhead_pct;
  addf "  \"within_10pct\": %b,\n" (overhead_pct < 10.0);
  addf "  \"wal\": { \"records\": %d, \"bytes\": %d },\n" wal_records wal_bytes;
  addf "  \"recovery\": [\n";
  List.iteri
    (fun i p ->
      addf
        "    { \"frac\": %.2f, \"crash_at\": %d, \"mode\": %S, \"replayed\": %d, \
         \"recover_s\": %.6f, \"identical\": %b }%s\n"
        p.frac p.crash_at p.mode p.replayed p.recover_s p.identical
        (if i = List.length points - 1 then "" else ","))
    points;
  addf "  ],\n";
  addf "  \"identical\": %b\n" all_identical;
  addf "}\n";
  let oc = open_out out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "report written to %s\n%!" out;
  if not all_identical then exit 1

open Cmdliner

let k = Arg.(value & opt int 8 & info [ "k" ] ~docv:"K" ~doc:"Fat-tree arity.")

let horizon =
  Arg.(value & opt float 400.0 & info [ "horizon" ] ~docv:"SECONDS" ~doc:"Trace length.")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"INT" ~doc:"Cell seed.")

let checkpoint_every =
  Arg.(value & opt int 250
       & info [ "checkpoint-every" ] ~docv:"ROUNDS" ~doc:"Checkpoint cadence in rounds.")

let out =
  Arg.(value & opt string "BENCH_7.json" & info [ "out" ] ~docv:"FILE" ~doc:"JSON report path.")

let cmd =
  let doc = "benchmark journaling overhead and crash-recovery time" in
  Cmd.v (Cmd.info "bench_journal" ~doc) Term.(const run $ k $ horizon $ seed $ checkpoint_every $ out)

let () = exit (Cmd.eval cmd)
