(* The repository benchmark program.  One run measures one workload for
   a seed and prints one JSON result line (see README.md):

     hirebench.exe --workload W --seed N --seconds S --trace 0|1
                   [--spans FILE] [--smoke] [--perturb]
     hirebench.exe --record W [--smoke]     (print digests.tsv lines)

   Exit status 1 when an output check failed. *)

(* name, unit: the end-to-end metrics of an untraced run and the
   per-layer metrics of a traced run, per kind of workload.  The sim
   lists are the ones BENCHMARK.json declares. *)
let sim_end_to_end =
  [
    ("setup_s", "s");
    ("rounds_per_s", "rounds/s");
    ("round_p50_ms", "ms");
    ("round_p99_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

let build_solve_layers =
  [
    ("hire.build_s.total", "s");
    ("hire.build_s.p50", "s");
    ("hire.build_s.p99", "s");
    ("hire.net.arcs_mean", "count");
    ("hire.net.touched_ratio", "ratio");
    ("hire.extract_apply_s", "s");
    ("flow.solve_s.total", "s");
    ("flow.solve_s.p50", "s");
    ("flow.solve_s.p99", "s");
    ("flow.solves", "count");
    ("flow.queue.bucket_ratio", "ratio");
  ]

let round_layers =
  [
    ("hire.round_s.total", "s");
    ("hire.round_s.p50", "s");
    ("hire.round_s.p99", "s");
    ("hire.rounds", "count");
  ]

let sim_per_layer =
  [
    ("workload.generate_s", "s");
    ("sim.cluster_create_s", "s");
    ("sim.scenario_build_s", "s");
    ("schedulers.create_s", "s");
    ("sim.init_s", "s");
    ("sim.events", "count");
    ("sim.step_self_s", "s");
    ("sim.finish_s", "s");
  ]
  @ round_layers
  @ [ ("hire.submit_s", "s"); ("hire.task_complete_s", "s") ]
  @ build_solve_layers
  @ [ ("trace_overhead_ratio", "ratio") ]

let serve_end_to_end =
  [
    ("setup_s", "s");
    ("ack_p50_ms", "ms");
    ("ack_p99_ms", "ms");
    ("recover_s", "s");
    ("peak_rss_mb", "MB");
  ]

let serve_per_layer =
  [
    ("server.parse_s.p50", "s");
    ("server.submit_s.p50", "s");
    ("server.submit_s.p99", "s");
    ("journal.barrier_s.p50", "s");
    ("journal.barrier_s.p99", "s");
    ("journal.fsync_s", "s");
    ("journal.appends", "count");
    ("journal.bytes", "count");
    ("journal.commits", "count");
    ("server.flush_s.p50", "s");
    ("server.flush_s.p99", "s");
    ("server.flush_batch_mean", "count");
    ("server.net_self_ms", "ms");
    ("journal.replayed_records", "count");
    ("server.recover_s_per_krecord", "s");
    ("server.rejects", "count");
    ("journal.io_errors", "count");
    ("loadgen.late_p99_ms", "ms");
    ("sim.events", "count");
  ]
  @ round_layers @ build_solve_layers
  @ [ ("trace_overhead_ratio", "ratio") ]

let sim_config ~smoke name =
  let base =
    match name with
    | "sim-k16-inc" ->
        { Simwl.name; k = 16; mu = 1.0; util = 0.8; horizon = 10.0; pool = 16 }
    | "sim-k8-backlog" ->
        { Simwl.name; k = 8; mu = 0.0; util = 2.0; horizon = 150.0; pool = 256 }
    | _ -> raise Not_found
  in
  if smoke then { base with name = "smoke/" ^ name; k = 4; util = 2.0; horizon = 60.0; pool = 8 }
  else base

let usage () =
  prerr_endline
    "usage: hirebench.exe --workload W --seed N --seconds S --trace 0|1 [--spans FILE] \
     [--smoke] [--perturb] | --record W [--smoke]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spans = ref None and smoke = ref false and perturb = ref false and record = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "");
      ("--seed", Arg.Set_int seed, "");
      ("--seconds", Arg.Set_float seconds, "");
      ("--trace", Arg.Set_int trace, "");
      ("--spans", Arg.String (fun s -> spans := Some s), "");
      ("--smoke", Arg.Set smoke, "");
      ("--perturb", Arg.Set perturb, "");
      ("--record", Arg.Set_string record, "");
    ]
    (fun _ -> usage ())
    "hirebench";
  let digests = Simwl.load_table "perfbench/digests.tsv" in
  if !record <> "" then Simwl.record (sim_config ~smoke:!smoke !record)
  else begin
    let traced = !trace = 1 in
    let metrics, attempted, refused, failures, wanted =
      match !workload with
      | "serve-openloop" ->
          let m, a, r, f =
            Servewl.run ~smoke:!smoke ~seed:!seed ~seconds:!seconds ~traced ~perturb:!perturb
              ~spans_path:!spans
          in
          (m, a, r, f, if traced then serve_per_layer else serve_end_to_end)
      | name -> (
          match sim_config ~smoke:!smoke name with
          | cfg ->
              if traced then
                let m, a, f =
                  Simwl.layers cfg digests ~seed:!seed ~seconds:!seconds ~perturb:!perturb
                    ~spans_path:!spans
                in
                (m, a, 0, f, sim_per_layer)
              else
                let m, a, f =
                  Simwl.end_to_end cfg digests ~seed:!seed ~seconds:!seconds ~perturb:!perturb
                in
                (m @ [ ("peak_rss_mb", Rss.peak_mb "self") ], a, 0, f, sim_end_to_end)
          | exception Not_found -> usage ())
    in
    List.iter (fun f -> Printf.eprintf "check failed: %s\n" f) failures;
    let correct = failures = [] in
    let value (name, _) =
      match List.assoc_opt name metrics with
      | Some v when Float.is_finite v -> v
      | _ -> failwith ("metric not measured: " ^ name)
    in
    let body =
      List.map
        (fun ((name, unit) as m) ->
          let v = value m in
          Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
        wanted
    in
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
      (max 1 attempted)
      (if correct then refused else max 1 attempted)
      (String.concat ", " body);
    exit (if correct then 0 else 1)
  end
