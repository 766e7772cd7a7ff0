(* Tests for incremental flow-network maintenance (docs/PERFORMANCE.md):
   the Graph in-place patching primitives (mark/release, set_cost/set_cap,
   negative-cost tracking, flow reset), solver scratch exactness,
   builder-vs-fresh network identity under cost, structural, and
   liveness churn, and the end-to-end property that a simulation run
   with [incremental = true] (persistent builder, sparse touched-arc
   flow resets) is placement-for-placement identical to the
   full-rebuild path — with and without fault injection. *)

module Graph = Flow.Graph
module Mcmf = Flow.Mcmf
module Flow_network = Hire.Flow_network
module Pending = Hire.Pending
module Poly_req = Hire.Poly_req
module Comp_store = Hire.Comp_store
module Comp_req = Hire.Comp_req
module Transformer = Hire.Transformer
module Cost_model = Hire.Cost_model
module Vec = Prelude.Vec
module Rng = Prelude.Rng

let store = Comp_store.default ()

(* ------------------------------------------------------------------ *)
(* Graph patching primitives                                           *)
(* ------------------------------------------------------------------ *)

let fan_graph n =
  let g = Graph.create () in
  let s = Graph.add_node g and t = Graph.add_node g in
  for i = 1 to n do
    let m = Graph.add_node g in
    ignore (Graph.add_arc g ~src:s ~dst:m ~cap:1 ~cost:i);
    ignore (Graph.add_arc g ~src:m ~dst:t ~cap:1 ~cost:1)
  done;
  Graph.set_supply g s n;
  Graph.set_supply g t (-n);
  (g, s, t)

let test_mark_release_roundtrip () =
  let g, s, t = fan_graph 3 in
  let n0 = Graph.node_count g and m0 = Graph.arc_count g in
  let out0 = Graph.fold_out g s 0 (fun acc _ -> acc + 1) in
  let mk = Graph.mark g in
  (* Suffix: a node with arcs into *prefix* nodes, so the prefix head
     lists and supplies are disturbed and must be restored. *)
  let v = Graph.add_node g in
  ignore (Graph.add_arc g ~src:v ~dst:s ~cap:5 ~cost:7);
  ignore (Graph.add_arc g ~src:v ~dst:t ~cap:5 ~cost:(-2));
  Graph.add_supply g s 10;
  Alcotest.(check bool) "suffix went negative" true (Graph.has_negative_cost g);
  Graph.release g mk;
  Alcotest.(check int) "node count restored" n0 (Graph.node_count g);
  Alcotest.(check int) "arc count restored" m0 (Graph.arc_count g);
  Alcotest.(check int) "supply restored" 3 (Graph.supply g s);
  Alcotest.(check int) "head list restored" out0
    (Graph.fold_out g s 0 (fun acc _ -> acc + 1));
  Alcotest.(check bool) "negative-cost counter restored" false (Graph.has_negative_cost g);
  (* The graph is usable after release: the solve sees only the prefix. *)
  let r = Mcmf.solve g in
  Alcotest.(check int) "prefix solves" 3 r.Mcmf.shipped

let test_release_behind_mark_rejected () =
  let g, _, _ = fan_graph 2 in
  let mk = Graph.mark g in
  let g2 = g in
  Graph.release g2 mk;
  (* Releasing to a mark that is *ahead* of the graph must fail: capture
     a later mark, rewind to an earlier one, then try the later. *)
  let early = Graph.mark g in
  ignore (Graph.add_node g);
  let late = Graph.mark g in
  Graph.release g early;
  Alcotest.check_raises "mark ahead of graph"
    (Invalid_argument "Graph.release: mark does not precede the current state")
    (fun () -> Graph.release g late)

let test_set_cost_tracks_negative () =
  let g = Graph.create () in
  let a = Graph.add_node g and b = Graph.add_node g in
  let arc = Graph.add_arc g ~src:a ~dst:b ~cap:1 ~cost:5 in
  Alcotest.(check bool) "non-negative" false (Graph.has_negative_cost g);
  Graph.set_cost g arc (-3);
  Alcotest.(check bool) "negative after set" true (Graph.has_negative_cost g);
  Alcotest.(check int) "cost rewritten" (-3) (Graph.cost g arc);
  Alcotest.(check int) "twin negated" 3 (Graph.cost g (Graph.rev arc));
  Graph.set_cost g arc 2;
  Alcotest.(check bool) "non-negative again" false (Graph.has_negative_cost g);
  Graph.set_cost g arc 2;
  Alcotest.(check bool) "no-op set keeps counter" false (Graph.has_negative_cost g)

let test_set_cap_resets_pair () =
  let g = Graph.create () in
  let a = Graph.add_node g and b = Graph.add_node g in
  let arc = Graph.add_arc g ~src:a ~dst:b ~cap:4 ~cost:1 in
  Graph.push g arc 3;
  Alcotest.(check int) "flow on" 3 (Graph.flow g arc);
  Graph.set_cap g arc 9;
  Alcotest.(check int) "capacity rewritten" 9 (Graph.capacity g arc);
  Alcotest.(check int) "flow zeroed" 0 (Graph.flow g arc);
  Alcotest.(check int) "residual = new cap" 9 (Graph.residual_cap g arc)

let test_reset_flows_restores_capacities () =
  let g, _, _ = fan_graph 4 in
  ignore (Mcmf.solve g);
  let consumed = ref 0 in
  Graph.iter_arcs g (fun a -> consumed := !consumed + Graph.flow g a);
  Alcotest.(check bool) "solve consumed capacity" true (!consumed > 0);
  Graph.reset_flows g;
  Graph.iter_arcs g (fun a ->
      Alcotest.(check int) "flow zero" 0 (Graph.flow g a);
      Alcotest.(check int) "residual = original cap" (Graph.capacity g a)
        (Graph.residual_cap g a))

(* ------------------------------------------------------------------ *)
(* Scratch reuse                                                       *)
(* ------------------------------------------------------------------ *)

let test_scratch_solve_identical () =
  let scratch = Mcmf.scratch () in
  for n = 2 to 6 do
    let g1, _, _ = fan_graph n in
    let g2, _, _ = fan_graph n in
    let r1 = Mcmf.solve g1 in
    let r2 = Mcmf.solve ~scratch g2 in
    Alcotest.(check int) "same shipped" r1.Mcmf.shipped r2.Mcmf.shipped;
    Alcotest.(check int) "same cost" r1.Mcmf.total_cost r2.Mcmf.total_cost;
    (* Per-arc flows identical, not just the objective. *)
    Graph.iter_arcs g1 (fun a ->
        Alcotest.(check int) "same flow" (Graph.flow g1 a) (Graph.flow g2 a))
  done

(* ------------------------------------------------------------------ *)
(* Builder-vs-fresh network identity                                   *)
(* ------------------------------------------------------------------ *)

let make_cluster ?(k = 4) ?(fraction = 1.0) ?(seed = 3) () =
  Sim.Cluster.create ~inc_capable_fraction:fraction ~k ~setup:Sim.Cluster.Homogeneous
    ~services:(Array.to_list (Comp_store.service_names store))
    (Rng.create seed)

let server_only_req ?(cpu = 2.0) n =
  {
    Comp_req.priority = Workload.Job.Batch;
    composites =
      [
        {
          Comp_req.comp_id = "c0";
          template = "server";
          base = { Comp_req.instances = n; cpu; mem = 4.0; duration = 30.0 };
          inc_alternatives = [];
        };
      ];
    connections = [];
  }

let inc_req ?(service = "netchain") ?(n = 4) () =
  {
    Comp_req.priority = Workload.Job.Batch;
    composites =
      [
        {
          Comp_req.comp_id = "c0";
          template = Option.get (Comp_store.template_of_service store service);
          base = { Comp_req.instances = n; cpu = 2.0; mem = 4.0; duration = 30.0 };
          inc_alternatives = [ service ];
        };
      ];
    connections = [];
  }

let pending_jobs () =
  let ids = Transformer.Id_gen.create () in
  let rng = Rng.create 5 in
  List.init 4 (fun i ->
      let req = if i mod 2 = 0 then inc_req () else server_only_req 3 in
      Pending.of_poly
        (Transformer.transform store ids rng ~job_id:i ~arrival:(float_of_int i) req))

let arcs_of g =
  let acc = ref [] in
  Graph.iter_arcs g (fun a ->
      acc := (Graph.src g a, Graph.dst g a, Graph.capacity g a, Graph.cost g a) :: !acc);
  List.rev !acc

let check_identical_networks name na nb =
  let ga = Flow_network.graph na and gb = Flow_network.graph nb in
  Alcotest.(check int) (name ^ ": node count") (Graph.node_count gb) (Graph.node_count ga);
  Alcotest.(check int) (name ^ ": arc count") (Graph.arc_count gb) (Graph.arc_count ga);
  Alcotest.(check bool) (name ^ ": arcs identical") true (arcs_of ga = arcs_of gb);
  for v = 0 to Graph.node_count ga - 1 do
    Alcotest.(check int) (name ^ ": supply") (Graph.supply gb v) (Graph.supply ga v)
  done;
  let oa = Flow_network.solve_and_extract na and ob = Flow_network.solve_and_extract nb in
  Alcotest.(check bool)
    (name ^ ": same placements")
    true
    (oa.Flow_network.placements = ob.Flow_network.placements);
  Alcotest.(check int)
    (name ^ ": same objective")
    ob.Flow_network.solver.Mcmf.total_cost oa.Flow_network.solver.Mcmf.total_cost

(* Server-group shortcut arcs of a network: (to a ToR, to a server). *)
let server_shortcut_counts net =
  let g = Flow_network.graph net in
  let tors = ref 0 and servers = ref 0 in
  Graph.iter_arcs g (fun a ->
      match (Flow_network.role net (Graph.src g a), Flow_network.role net (Graph.dst g a)) with
      | Flow_network.Group _, Flow_network.Aux_server _ -> incr tors
      | Flow_network.Group _, Flow_network.Machine_server _ -> incr servers
      | _ -> ());
  (!tors, !servers)

let test_builder_identity_under_churn () =
  let cluster = make_cluster () in
  let view = Sim.Cluster.view cluster in
  let census = Hire.Locality.Task_census.create view.Hire.View.topo in
  let jobs = pending_jobs () in
  let params = Cost_model.default_params in
  let builder = Flow_network.create_builder () in
  let servers = Topology.Fat_tree.servers view.Hire.View.topo in
  let demand = Vec.scale 0.1 (Sim.Cluster.server_capacity cluster) in
  let build_both name =
    (* The incremental build runs first: it consumes the dirty set the
       fresh build does not need. *)
    let ni = Flow_network.build ~builder view census ~jobs ~now:10.0 ~params in
    let nf = Flow_network.build view census ~jobs ~now:10.0 ~params in
    check_identical_networks name ni nf;
    ni
  in
  ignore (build_both "cold builder");
  (* Cost churn: ledger charges mark servers dirty; the next build
     patches in place. *)
  Sim.Cluster.place_server_task cluster ~server:servers.(0) ~demand;
  Sim.Cluster.place_server_task cluster ~server:servers.(3) ~demand;
  ignore (build_both "after charges");
  Alcotest.(check bool) "patched, not rebuilt" false
    (Flow_network.stats (Flow_network.build ~builder view census ~jobs ~now:10.0 ~params))
      .Flow_network.full;
  Sim.Cluster.release_server_task cluster ~server:servers.(0) ~demand;
  ignore (build_both "after release");
  (* Mixed ToR: servers.(0) can no longer host a task (2 CPU, 4 mem)
     while its ToR sibling servers.(1) can, so the ToR gets per-server
     arcs priced from the aggregate's snapshotted vectors. *)
  let capacity = Sim.Cluster.server_capacity cluster in
  let heavy = Vec.sub capacity (Vec.of_list [ 1.0; 1.0 ]) in
  Sim.Cluster.place_server_task cluster ~server:servers.(0) ~demand:heavy;
  let ni = build_both "mixed ToR" in
  Alcotest.(check bool) "mixed ToR: per-server arcs" true (snd (server_shortcut_counts ni) > 0);
  (* Charging the sibling that still fits must reprice its arc. *)
  let half = Vec.scale 0.5 capacity in
  Sim.Cluster.place_server_task cluster ~server:servers.(1) ~demand:half;
  let ni = build_both "mixed ToR, fitting server charged" in
  Alcotest.(check bool) "still mixed" true (snd (server_shortcut_counts ni) > 0);
  (* Releasing the heavy charge turns the ToR back into one arc. *)
  Sim.Cluster.release_server_task cluster ~server:servers.(0) ~demand:heavy;
  let ni = build_both "mixed ToR released" in
  Alcotest.(check int) "aggregate again: no per-server arcs" 0 (snd (server_shortcut_counts ni));
  Sim.Cluster.release_server_task cluster ~server:servers.(1) ~demand:half;
  ignore (build_both "sibling released");
  (* Full cluster: no server fits a task, so the round-wide pre-filter
     drops every server shortcut. *)
  let fill =
    Array.map
      (fun s -> Vec.sub (Sim.Cluster.server_available cluster s) (Vec.of_list [ 1.0; 1.0 ]))
      servers
  in
  Array.iteri (fun i s -> Sim.Cluster.place_server_task cluster ~server:s ~demand:fill.(i)) servers;
  let ni = build_both "full cluster" in
  Alcotest.(check (pair int int)) "full cluster: no server shortcuts" (0, 0)
    (server_shortcut_counts ni);
  Array.iteri (fun i s -> Sim.Cluster.release_server_task cluster ~server:s ~demand:fill.(i)) servers;
  ignore (build_both "cluster drained");
  (* Structural churn: liveness flips force a full prefix rebuild. *)
  Sim.Cluster.fail_node cluster ~time:11.0 servers.(1);
  let ni = Flow_network.build ~builder view census ~jobs ~now:12.0 ~params in
  Alcotest.(check bool) "structural -> full rebuild" true (Flow_network.stats ni).Flow_network.full;
  let nf = Flow_network.build view census ~jobs ~now:12.0 ~params in
  check_identical_networks "after server failure" ni nf;
  ignore (Sim.Cluster.recover_node cluster servers.(1));
  ignore (build_both "after recovery")

(* ------------------------------------------------------------------ *)
(* End-to-end property: incremental == full rebuild                    *)
(* ------------------------------------------------------------------ *)

(* One full simulation cell (mirrors Harness.Experiment.run, with the
   scheduler wrapped to log every round's placements in order). *)
let run_cell ~incremental ~seed ~mu ~faults_on ~horizon =
  let rng = Rng.create seed in
  let trace_rng = Rng.split rng in
  let scenario_rng = Rng.split rng in
  let cluster_rng = Rng.split rng in
  let fault_rng = Rng.split rng in
  let services = Array.to_list (Comp_store.service_names store) in
  let cluster =
    Sim.Cluster.create ~inc_capable_fraction:0.5 ~k:4 ~setup:Sim.Cluster.Homogeneous
      ~services cluster_rng
  in
  let trace_config =
    Workload.Trace_gen.scaled_rate
      ~n_servers:(Sim.Cluster.n_servers cluster)
      ~target_utilization:0.8 Workload.Trace_gen.default
  in
  let trace = Workload.Trace_gen.generate trace_config trace_rng ~horizon in
  let scenario = Sim.Scenario.build store scenario_rng ~mu trace in
  let sched = Schedulers.Registry.create ~incremental "hire" ~seed:17 cluster in
  let log = Buffer.create 1024 in
  let wrapped =
    {
      sched with
      Sim.Scheduler_intf.round =
        (fun ~time ->
          let r = sched.Sim.Scheduler_intf.round ~time in
          Buffer.add_string log (Printf.sprintf "t=%.6f" time);
          List.iter
            (fun (p : Sim.Scheduler_intf.placement) ->
              Buffer.add_string log (Printf.sprintf " %d->%d" p.tg.Poly_req.tg_id p.machine))
            r.Sim.Scheduler_intf.placements;
          List.iter
            (fun (tg : Poly_req.task_group) ->
              Buffer.add_string log (Printf.sprintf " !%d" tg.Poly_req.tg_id))
            r.Sim.Scheduler_intf.cancelled;
          Buffer.add_char log '\n';
          r);
    }
  in
  let faults, fault_policy =
    if not faults_on then (None, None)
    else begin
      let topo = Sim.Cluster.topo cluster in
      let sharing = Sim.Cluster.sharing cluster in
      let plan =
        Faults.Plan.generate
          { Faults.Plan.default_config with server_mtbf = 80.0; switch_mtbf = 80.0 }
          fault_rng
          ~inc_capable:(fun s -> Hire.Sharing.supported_services sharing s <> [])
          ~servers:(Topology.Fat_tree.servers topo)
          ~switches:(Topology.Fat_tree.switches topo)
          ~horizon
      in
      (Some plan, Some (Faults.Policy.create ~max_retries:2 ()))
    end
  in
  let result =
    Sim.Simulator.run ?faults ?fault_policy cluster wrapped scenario.Sim.Scenario.arrivals
  in
  let ledger =
    String.concat ";"
      (Array.to_list
         (Array.map
            (fun s -> Vec.to_string (Sim.Cluster.server_available cluster s))
            (Topology.Fat_tree.servers (Sim.Cluster.topo cluster))))
  in
  (Buffer.contents log, ledger, result.Sim.Simulator.report)

let report_summary (r : Sim.Metrics.report) =
  Printf.sprintf "jobs=%d inc=%d/%d tgs=%d/%d unserved=%d rounds=%d detour=%.6f"
    r.Sim.Metrics.jobs_total r.Sim.Metrics.inc_jobs_served r.Sim.Metrics.inc_jobs_total
    r.Sim.Metrics.tgs_satisfied r.Sim.Metrics.tgs_total r.Sim.Metrics.inc_tgs_unserved
    r.Sim.Metrics.rounds r.Sim.Metrics.detour_mean

let prop_incremental_identical =
  QCheck.Test.make ~name:"incremental solves identical to full rebuild (e2e)" ~count:8
    QCheck.(triple (int_range 0 1_000_000) (float_range 0.0 1.0) bool)
    (fun (seed, mu, faults_on) ->
      let horizon = 60.0 in
      let log_f, ledger_f, rep_f = run_cell ~incremental:false ~seed ~mu ~faults_on ~horizon in
      let log_i, ledger_i, rep_i = run_cell ~incremental:true ~seed ~mu ~faults_on ~horizon in
      if not (String.equal log_f log_i) then
        QCheck.Test.fail_reportf "placement logs diverge (seed=%d mu=%.3f faults=%b)" seed
          mu faults_on;
      if not (String.equal ledger_f ledger_i) then
        QCheck.Test.fail_reportf "final ledgers diverge (seed=%d mu=%.3f faults=%b)" seed mu
          faults_on;
      if not (String.equal (report_summary rep_f) (report_summary rep_i)) then
        QCheck.Test.fail_reportf "reports diverge (seed=%d): %s vs %s" seed
          (report_summary rep_f) (report_summary rep_i);
      true)

let test_cell_key_escape_hatch () =
  let base = Harness.Experiment.default in
  Alcotest.(check string)
    "incremental default keeps the historical key"
    (Harness.Experiment.cell_key base)
    (Harness.Experiment.cell_key { base with incremental = true });
  Alcotest.(check bool)
    "escape hatch gets its own cells" false
    (String.equal
       (Harness.Experiment.cell_key base)
       (Harness.Experiment.cell_key { base with incremental = false }))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "incremental"
    [
      ( "graph-patching",
        [
          Alcotest.test_case "mark/release roundtrip" `Quick test_mark_release_roundtrip;
          Alcotest.test_case "release behind mark rejected" `Quick
            test_release_behind_mark_rejected;
          Alcotest.test_case "set_cost tracks negative costs" `Quick
            test_set_cost_tracks_negative;
          Alcotest.test_case "set_cap resets the pair" `Quick test_set_cap_resets_pair;
          Alcotest.test_case "reset_flows restores capacities" `Quick
            test_reset_flows_restores_capacities;
        ] );
      ( "solver-reuse",
        [
          Alcotest.test_case "scratch solves identical" `Quick test_scratch_solve_identical;
        ] );
      ( "builder",
        [
          Alcotest.test_case "identity under churn" `Quick test_builder_identity_under_churn;
        ] );
      ( "end-to-end",
        qt [ prop_incremental_identical ]
        @ [
            Alcotest.test_case "cell_key escape hatch" `Quick test_cell_key_escape_hatch;
          ] );
    ]
