(* Re-optimizing solve-path benchmark (docs/PERFORMANCE.md): measures
   the MCMF solve phase with the Classic SSP implementation against the
   re-optimizing Fast path (early-terminating packed-heap Dijkstra with
   generation-stamped scratch and settled-only potential updates), and
   the end-to-end effect of the default pipeline (incremental builder +
   touched-arc flow reset + Fast solves) against full rebuilds.
   Emits a JSON report (BENCH_9.json) consumed by CI.

   Three parts:

   - [micro]: one k-ary cluster with a frozen pending-job queue sized by
     [--queue-horizon].  Each round applies a small ledger mutation and
     patches the persistent network builder; the resulting instance is
     then solved twice on the persistent graph — Classic first, then,
     after a full flow reset, Fast (the production path: the next
     round's patch must recover from the consumed flow).  Only the
     [Mcmf.solve] calls are
     timed, so the ratio is a pure solve-phase speedup on identical
     instances.  Both solves must agree on shipped flow and objective
     every round (tie-breaking may differ across algorithms, so per-arc
     flows are not compared — see lib/flow/mcmf.mli).  The Fast pass
     also records an augmentations-per-round histogram.

   - [e2e]: one short Experiment cell run three ways — legacy full
     rebuilds with the Classic solver, full rebuilds with the Fast
     solver ([--no-incremental]), and the default re-optimizing path —
     compared through per-round placement logs and the CSV row
     (wall-clock column masked).  The reopt and full runs must be
     byte-identical; the legacy run gives the end-to-end speedup of the
     whole incremental, re-optimizing pipeline.

   - gates: exit status 1 when any identity check fails, or when
     [--min-speedup] is given and the measured solve-phase speedup falls
     short of it. *)

module Clock = Prelude.Clock
module Vec = Prelude.Vec
module Rng = Prelude.Rng
module Flow_network = Hire.Flow_network
module Graph = Flow.Graph
module Mcmf = Flow.Mcmf

(* ------------------------------------------------------------------ *)
(* Fixture: cluster + frozen pending queue (as in bench_solver)        *)
(* ------------------------------------------------------------------ *)

type fixture = {
  cluster : Sim.Cluster.t;
  view : Hire.View.t;
  census : Hire.Locality.Task_census.t;
  jobs : Hire.Pending.job_state list;
  now : float;
  params : Hire.Cost_model.params;
  servers : int array;
  demand : Vec.t;
}

let make_fixture ~k ~queue_horizon =
  let rng = Rng.create 1 in
  let trace_rng = Rng.split rng in
  let scenario_rng = Rng.split rng in
  let cluster_rng = Rng.split rng in
  let store = Hire.Comp_store.default () in
  let services = Array.to_list (Hire.Comp_store.service_names store) in
  let cluster =
    Sim.Cluster.create ~k ~setup:Sim.Cluster.Homogeneous ~services cluster_rng
  in
  let trace_config =
    Workload.Trace_gen.scaled_rate
      ~n_servers:(Sim.Cluster.n_servers cluster)
      ~target_utilization:0.8 Workload.Trace_gen.default
  in
  let trace = Workload.Trace_gen.generate trace_config trace_rng ~horizon:queue_horizon in
  let scenario = Sim.Scenario.build store scenario_rng ~mu:0.5 trace in
  let jobs =
    List.map (fun (_, poly) -> Hire.Pending.of_poly poly) scenario.Sim.Scenario.arrivals
  in
  let now =
    List.fold_left (fun acc (t, _) -> Float.max acc t) 0.0 scenario.Sim.Scenario.arrivals
    +. 1.0
  in
  let view = Sim.Cluster.view cluster in
  let census = Hire.Locality.Task_census.create view.Hire.View.topo in
  let servers = Topology.Fat_tree.servers view.Hire.View.topo in
  let demand = Vec.scale 0.05 (Sim.Cluster.server_capacity cluster) in
  {
    cluster;
    view;
    census;
    jobs;
    now;
    params = Hire.Cost_model.default_params;
    servers;
    demand;
  }

let mutate fx i =
  let server = fx.servers.(i mod Array.length fx.servers) in
  Sim.Cluster.place_server_task fx.cluster ~server ~demand:fx.demand;
  Sim.Cluster.release_server_task fx.cluster ~server ~demand:fx.demand

let build_incremental fx builder =
  Flow_network.build ~builder fx.view fx.census ~jobs:fx.jobs ~now:fx.now
    ~params:fx.params

(* ------------------------------------------------------------------ *)
(* Micro: Classic vs Fast on identical instances                       *)
(* ------------------------------------------------------------------ *)

type micro_result = {
  classic_wall_s : float;
  fast_wall_s : float;
  solve_speedup : float;
  identical : bool;
  rounds : int;
  arcs : int;
  shipped : int;
  aug_hist : (string * int) list;  (* power-of-two buckets *)
  aug_mean : float;
}

(* Power-of-two histogram buckets: "0", "1", "2-3", "4-7", ... *)
let bucket_label lo hi = if lo = hi then string_of_int lo else Printf.sprintf "%d-%d" lo hi

let histogram samples =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let rec bounds lo hi = if v <= hi then (lo, hi) else bounds (hi + 1) ((2 * hi) + 1) in
      let lo, hi = if v <= 0 then (0, 0) else bounds 1 1 in
      let key = (lo, hi) in
      Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    samples;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun ((a, _), _) ((b, _), _) -> Int.compare a b)
  |> List.map (fun ((lo, hi), n) -> (bucket_label lo hi, n))

let run_micro fx ~rounds =
  let builder = Flow_network.create_builder () in
  (* Cold build outside the measured region. *)
  ignore (build_incremental fx builder);
  let scratch_c = Mcmf.scratch () and scratch_f = Mcmf.scratch () in
  let classic_wall = ref 0.0 and fast_wall = ref 0.0 in
  let identical = ref true in
  let augs = ref [] in
  let arcs = ref 0 and shipped = ref 0 in
  Gc.full_major ();
  for i = 0 to rounds - 1 do
    mutate fx i;
    let net = build_incremental fx builder in
    let g = Flow_network.graph net in
    arcs := Graph.arc_count g;
    (* Classic solves first and its flow is swept away (outside the
       timed region); Fast then solves the same instance and leaves its
       flow for the next round's patch to undo. *)
    let t0 = Clock.now () in
    let rc = Mcmf.solve ~scratch:scratch_c ~algo:Mcmf.Classic g in
    classic_wall := !classic_wall +. Clock.elapsed_since t0;
    Graph.reset_flows g;
    let t1 = Clock.now () in
    let rf = Mcmf.solve ~scratch:scratch_f ~algo:Mcmf.Fast g in
    fast_wall := !fast_wall +. Clock.elapsed_since t1;
    if
      rc.Mcmf.shipped <> rf.Mcmf.shipped
      || rc.Mcmf.total_cost <> rf.Mcmf.total_cost
      || rc.Mcmf.unshipped <> rf.Mcmf.unshipped
    then begin
      Printf.eprintf
        "micro: round %d diverged (classic %d/%d cost %d, fast %d/%d cost %d)\n" i
        rc.Mcmf.shipped rc.Mcmf.unshipped rc.Mcmf.total_cost rf.Mcmf.shipped
        rf.Mcmf.unshipped rf.Mcmf.total_cost;
      identical := false
    end;
    shipped := rf.Mcmf.shipped;
    augs := rf.Mcmf.augmentations :: !augs
  done;
  let n = List.length !augs in
  let aug_mean =
    if n = 0 then 0.0
    else float_of_int (List.fold_left ( + ) 0 !augs) /. float_of_int n
  in
  {
    classic_wall_s = !classic_wall;
    fast_wall_s = !fast_wall;
    solve_speedup =
      (if !fast_wall > 0.0 then !classic_wall /. !fast_wall else 0.0);
    identical = !identical;
    rounds;
    arcs = !arcs;
    shipped = !shipped;
    aug_hist = histogram !augs;
    aug_mean;
  }

(* ------------------------------------------------------------------ *)
(* Pipeline: per-round build+solve, pre-PR-5 vs today                  *)
(* ------------------------------------------------------------------ *)

(* Complete scheduler hot path (network construction + exact solve) per
   round, measured at the same steady-state fixture BENCH_5.json's
   baselines were recorded on (queue-horizon 10).  "pre" is the faithful
   pre-PR-5 configuration — a fresh arena every round, the classic SSP,
   no carried scratch; "now" is today's default — persistent
   re-optimizing builder, solver scratch reuse, fast SSP. *)
type pipeline_result = {
  pre_wall_s : float;
  now_wall_s : float;
  speedup_vs_pre_pr5 : float;
  identical : bool;
  rounds : int;
  arcs : int;
}

let run_pipeline fx ~rounds =
  let pre = Array.make rounds (0, 0) in
  let arcs = ref 0 in
  Gc.full_major ();
  let t0 = Clock.now () in
  for i = 0 to rounds - 1 do
    mutate fx i;
    let net =
      Flow_network.build fx.view fx.census ~jobs:fx.jobs ~now:fx.now ~params:fx.params
    in
    let r = Flow_network.solve_only ~solver:Hire.Flow_network.Ssp_classic net in
    arcs := Graph.arc_count (Flow_network.graph net);
    pre.(i) <- (r.Mcmf.shipped, r.Mcmf.total_cost)
  done;
  let pre_wall_s = Clock.elapsed_since t0 in
  let builder = Flow_network.create_builder () in
  ignore (build_incremental fx builder);
  let scratch = Mcmf.scratch () in
  let identical = ref true in
  Gc.full_major ();
  let t1 = Clock.now () in
  for i = 0 to rounds - 1 do
    mutate fx i;
    let net = build_incremental fx builder in
    let r = Flow_network.solve_only ~scratch net in
    (* The round's instance is identical in both passes (the per-round
       ledger churn is charge+refund), so objectives must agree. *)
    if pre.(i) <> (r.Mcmf.shipped, r.Mcmf.total_cost) then identical := false
  done;
  let now_wall_s = Clock.elapsed_since t1 in
  {
    pre_wall_s;
    now_wall_s;
    speedup_vs_pre_pr5 = (if now_wall_s > 0.0 then pre_wall_s /. now_wall_s else 0.0);
    identical = !identical;
    rounds;
    arcs = !arcs;
  }

(* ------------------------------------------------------------------ *)
(* End to end: legacy / full rebuild / re-optimizing                    *)
(* ------------------------------------------------------------------ *)

type mode = Legacy | Full | Reopt

(* One full simulation cell with per-round placement logging, as in
   bench_solver: identity is judged on the placement log plus the CSV
   row with the measured solver-wall column masked. *)
let run_cell ~mode ~k ~horizon ~util =
  let rng = Rng.create 1 in
  let trace_rng = Rng.split rng in
  let scenario_rng = Rng.split rng in
  let cluster_rng = Rng.split rng in
  let store = Hire.Comp_store.default () in
  let services = Array.to_list (Hire.Comp_store.service_names store) in
  let cluster =
    Sim.Cluster.create ~inc_capable_fraction:0.15 ~k ~setup:Sim.Cluster.Homogeneous
      ~services cluster_rng
  in
  let trace_config =
    Workload.Trace_gen.scaled_rate
      ~n_servers:(Sim.Cluster.n_servers cluster)
      ~target_utilization:util Workload.Trace_gen.default
  in
  let trace = Workload.Trace_gen.generate trace_config trace_rng ~horizon in
  let scenario = Sim.Scenario.build store scenario_rng ~mu:0.5 trace in
  (* Legacy is the faithful pre-PR-5 configuration: fresh network every
     round AND the classic SSP implementation (the only one back then),
     so the end-to-end ratio is against the baseline BENCH_5.json
     recorded, not against a legacy build with today's solver. *)
  let sched =
    match mode with
    | Legacy ->
        Schedulers.Hire_adapter.create ~incremental:false
          ~solver:Hire.Flow_network.Ssp_classic cluster
    | Full -> Schedulers.Registry.create ~incremental:false "hire" ~seed:1 cluster
    | Reopt -> Schedulers.Registry.create ~incremental:true "hire" ~seed:1 cluster
  in
  let log = Buffer.create 4096 in
  let rounds = ref 0 in
  let wrapped =
    {
      sched with
      Sim.Scheduler_intf.round =
        (fun ~time ->
          let r = sched.Sim.Scheduler_intf.round ~time in
          incr rounds;
          Buffer.add_string log (Printf.sprintf "t=%.6f" time);
          List.iter
            (fun (p : Sim.Scheduler_intf.placement) ->
              Buffer.add_string log
                (Printf.sprintf " %d->%d" p.tg.Hire.Poly_req.tg_id p.machine))
            r.Sim.Scheduler_intf.placements;
          Buffer.add_char log '\n';
          r);
    }
  in
  let t0 = Clock.now () in
  let result = Sim.Simulator.run cluster wrapped scenario.Sim.Scenario.arrivals in
  let wall = Clock.elapsed_since t0 in
  let row =
    Sim.Csv_export.row ~scheduler:"hire" ~mu:0.5 ~setup:Sim.Cluster.Homogeneous ~seed:1
      result.Sim.Simulator.report
  in
  (* Mask the solver_p50_ms column (index 19 of the base header). *)
  let row_masked =
    String.split_on_char ',' row
    |> List.mapi (fun i c -> if i = 19 then "_" else c)
    |> String.concat ","
  in
  (Buffer.contents log, row_masked, wall, !rounds)

type e2e_result = {
  identical : bool;
  wall_s_legacy : float;
  wall_s_full : float;
  wall_s_reopt : float;
  rounds_per_sec : float;
  end_to_end_speedup : float;
}

let run_e2e ~k ~horizon ~util =
  let _log_l, _row_l, wall_s_legacy, _ = run_cell ~mode:Legacy ~k ~horizon ~util in
  let log_f, row_f, wall_s_full, _ = run_cell ~mode:Full ~k ~horizon ~util in
  let log_r, row_r, wall_s_reopt, n_rounds = run_cell ~mode:Reopt ~k ~horizon ~util in
  let explain name (la, ra) (lb, rb) =
    if not (String.equal la lb) then begin
      let a = String.split_on_char '\n' la and b = String.split_on_char '\n' lb in
      Printf.eprintf "e2e: %s placement logs differ (%d vs %d rounds)\n" name
        (List.length a) (List.length b);
      (try
         List.iteri
           (fun i xa ->
             let xb = List.nth b i in
             if not (String.equal xa xb) then begin
               Printf.eprintf "  first diff at round %d:\n    a: %s\n    b: %s\n" i xa xb;
               raise Exit
             end)
           a
       with Exit | Failure _ -> ());
      false
    end
    else if not (String.equal ra rb) then begin
      Printf.eprintf "e2e: %s rows differ\n  a: %s\n  b: %s\n" name ra rb;
      false
    end
    else true
  in
  (* The hard invariant is reopt == full rebuild with the same solver:
     the persistent builder's patches and sparse flow resets must
     reproduce a from-scratch network exactly.  The legacy run pins the
     classic solver, which may break ties between equally-cheap
     augmenting paths differently (lib/flow/mcmf.mli), so it is timed
     but not byte-compared. *)
  let identical = explain "reopt-vs-full" (log_f, row_f) (log_r, row_r) in
  {
    identical;
    wall_s_legacy;
    wall_s_full;
    wall_s_reopt;
    rounds_per_sec =
      (if wall_s_reopt > 0.0 then float_of_int n_rounds /. wall_s_reopt else 0.0);
    end_to_end_speedup =
      (if wall_s_reopt > 0.0 then wall_s_legacy /. wall_s_reopt else 0.0);
  }

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let write_json path ~k ~n_jobs (m : micro_result) (p : pipeline_result)
    (e : e2e_result option) =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"bench_reopt\",\n";
  Printf.fprintf oc "  \"k\": %d,\n  \"rounds\": %d,\n  \"pending_jobs\": %d,\n" k m.rounds
    n_jobs;
  Printf.fprintf oc "  \"identical\": %b,\n"
    (m.identical && p.identical && match e with None -> true | Some e -> e.identical);
  Printf.fprintf oc "  \"micro\": {\n";
  Printf.fprintf oc "    \"arcs\": %d,\n    \"shipped\": %d,\n" m.arcs m.shipped;
  Printf.fprintf oc "    \"classic_wall_s\": %.6f,\n" m.classic_wall_s;
  Printf.fprintf oc "    \"fast_wall_s\": %.6f,\n" m.fast_wall_s;
  Printf.fprintf oc "    \"solve_speedup\": %.2f,\n" m.solve_speedup;
  Printf.fprintf oc "    \"augmentations_mean\": %.1f,\n" m.aug_mean;
  Printf.fprintf oc "    \"augmentations_hist\": { %s }\n"
    (String.concat ", "
       (List.map (fun (l, n) -> Printf.sprintf "\"%s\": %d" l n) m.aug_hist));
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc
    "  \"pipeline\": { \"rounds\": %d, \"arcs\": %d, \"pre_pr5_wall_s\": %.6f, \
     \"now_wall_s\": %.6f, \"speedup_vs_pre_pr5\": %.2f, \"identical\": %b }%s\n"
    p.rounds p.arcs p.pre_wall_s p.now_wall_s p.speedup_vs_pre_pr5 p.identical
    (if e = None then "" else ",");
  (match e with
  | None -> ()
  | Some e ->
      Printf.fprintf oc
        "  \"e2e\": { \"identical\": %b, \"wall_s_legacy\": %.3f, \"wall_s_full\": \
         %.3f, \"wall_s_reopt\": %.3f, \"rounds_per_sec\": %.1f, \
         \"end_to_end_speedup\": %.2f }\n"
        e.identical e.wall_s_legacy e.wall_s_full e.wall_s_reopt e.rounds_per_sec
        e.end_to_end_speedup);
  Printf.fprintf oc "}\n";
  close_out oc

let run rounds k queue_horizon e2e_horizon e2e_util no_e2e min_speedup
    min_e2e_speedup out =
  let fx = make_fixture ~k ~queue_horizon in
  let n_jobs = List.length fx.jobs in
  Printf.printf "bench_reopt: k=%d rounds=%d pending-jobs=%d\n%!" k rounds n_jobs;
  let m = run_micro fx ~rounds in
  Printf.printf
    "  solve phase (%d arcs): classic %.3fs, fast %.3fs  ->  %.2fx  (%d rounds, mean \
     %.1f augmentations)\n"
    m.arcs m.classic_wall_s m.fast_wall_s m.solve_speedup m.rounds m.aug_mean;
  Printf.printf "  objectives: %s\n" (if m.identical then "identical" else "MISMATCH");
  (* The pipeline comparison runs at the steady-state fixture
     BENCH_5.json's baselines were recorded on. *)
  let fx5 = make_fixture ~k ~queue_horizon:10.0 in
  let p = run_pipeline fx5 ~rounds:(max rounds 100) in
  Printf.printf
    "  pipeline (build+solve, %d arcs): pre-PR-5 %.3fs, now %.3fs  ->  %.2fx, \
     objectives %s\n"
    p.arcs p.pre_wall_s p.now_wall_s p.speedup_vs_pre_pr5
    (if p.identical then "identical" else "MISMATCH");
  let e2e =
    if no_e2e then None
    else begin
      let e = run_e2e ~k ~horizon:e2e_horizon ~util:e2e_util in
      Printf.printf
        "  e2e (horizon %.0fs): legacy %.3fs, full %.3fs, reopt %.3fs (%.1f rounds/s, \
         %.2fx vs legacy), runs %s\n"
        e2e_horizon e.wall_s_legacy e.wall_s_full e.wall_s_reopt e.rounds_per_sec
        e.end_to_end_speedup
        (if e.identical then "identical" else "MISMATCH");
      Some e
    end
  in
  write_json out ~k ~n_jobs m p e2e;
  Printf.printf "report written to %s\n" out;
  let ok =
    m.identical && p.identical && match e2e with None -> true | Some e -> e.identical
  in
  if not ok then begin
    Printf.eprintf "bench_reopt: identity check FAILED\n";
    exit 1
  end;
  if min_speedup > 0.0 && m.solve_speedup < min_speedup then begin
    Printf.eprintf "bench_reopt: solve speedup %.2fx below required %.2fx\n"
      m.solve_speedup min_speedup;
    exit 1
  end;
  if min_e2e_speedup > 0.0 && p.speedup_vs_pre_pr5 < min_e2e_speedup then begin
    Printf.eprintf
      "bench_reopt: pipeline speedup %.2fx vs pre-PR-5 below required %.2fx\n"
      p.speedup_vs_pre_pr5 min_e2e_speedup;
    exit 1
  end

open Cmdliner

let rounds =
  let doc = "Measured solve rounds (each solved once per algorithm)." in
  Arg.(value & opt int 60 & info [ "rounds" ] ~docv:"N" ~doc)

let k =
  let doc = "Fat-tree arity of the benchmark cluster." in
  Arg.(value & opt int 8 & info [ "k" ] ~docv:"K" ~doc)

let queue_horizon =
  let doc =
    "Trace horizon (seconds) used to generate the frozen pending-job queue.  The \
     reference configuration (k=8, 400s) sizes the instance so the solve phase \
     dominates, which is the regime the Fast path targets."
  in
  Arg.(value & opt float 400.0 & info [ "queue-horizon" ] ~docv:"SECONDS" ~doc)

let e2e_horizon =
  let doc = "Horizon of the end-to-end comparison cells." in
  Arg.(value & opt float 120.0 & info [ "e2e-horizon" ] ~docv:"SECONDS" ~doc)

let e2e_util =
  let doc =
    "Offered CPU load of the end-to-end cells.  The default reproduces the \
     contention regime ($(b,--util 2.0), as the `make check' smoke cells use): the \
     pending queue grows, rounds are solve-dominated, and the end-to-end ratio \
     reflects the solver work the re-optimizing path removes.  Lower values measure \
     an idler cluster where fixed simulator costs dominate every mode."
  in
  Arg.(value & opt float 2.0 & info [ "e2e-util" ] ~docv:"LOAD" ~doc)

let no_e2e =
  let doc = "Skip the end-to-end comparison (micro only)." in
  Arg.(value & flag & info [ "no-e2e" ] ~doc)

let min_speedup =
  let doc =
    "Fail (exit 1) when the measured Classic-to-Fast solve-phase speedup is below \
     $(docv).  0 disables the gate."
  in
  Arg.(value & opt float 0.0 & info [ "min-speedup" ] ~docv:"X" ~doc)

let min_e2e_speedup =
  let doc =
    "Fail (exit 1) when the per-round pipeline (build+solve) speedup over the \
     pre-PR-5 baseline is below $(docv).  0 disables the gate."
  in
  Arg.(value & opt float 0.0 & info [ "min-e2e-speedup" ] ~docv:"X" ~doc)

let out =
  let doc = "JSON report output path." in
  Arg.(value & opt string "BENCH_9.json" & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "benchmark the re-optimizing MCMF solve path against the classic SSP" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Measures the solve phase with the Classic and Fast SSP implementations on \
         identical instances, verifies objective identity per round and end-to-end \
         placement identity of the re-optimizing pipeline against a full rebuild, \
         and writes a JSON report.  Methodology: docs/PERFORMANCE.md.";
      `S Manpage.s_exit_status;
      `P "0 on success, 1 if any identity check or the speedup gate failed.";
    ]
  in
  Cmd.v
    (Cmd.info "bench_reopt" ~version:"1.0" ~doc ~man)
    Term.(
      const run $ rounds $ k $ queue_horizon $ e2e_horizon $ e2e_util $ no_e2e
      $ min_speedup $ min_e2e_speedup $ out)

let () = exit (Cmd.eval cmd)
