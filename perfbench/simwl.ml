(* The sim-* workloads: trace-driven HIRE simulations built and stepped
   through the library's public API, with the scheduler record wrapped
   so every decision is timed from outside the library.

   A run steps worlds drawn from a fixed pool (see [sequence]); each
   world is one Experiment seed, stepped to its end, and its
   deterministic report must match the digest recorded for it in
   digests.tsv. *)

module Clock = Prelude.Clock

type config = {
  name : string;
  k : int;
  mu : float;
  util : float;
  horizon : float;
  pool : int;  (** worlds 1..pool *)
}

let spec cfg world =
  {
    Harness.Experiment.default with
    scheduler = "hire";
    k = cfg.k;
    mu = cfg.mu;
    setup = Sim.Cluster.Homogeneous;
    horizon = cfg.horizon;
    seed = world;
    target_utilization = cfg.util;
    inc_capable_fraction = None;
  }

(* Measurements taken by the wrapped scheduler record. *)
type probe = {
  round_s : Samples.t;
  mutable phash : int;  (** rolling hash of this world's placements *)
  mutable placements : int;
}

let new_probe () =
  { round_s = Samples.create (); phash = 0; placements = 0 }

let hash_placement h (p : Sim.Scheduler_intf.placement) =
  let h = (h * 1_000_003) lxor p.tg.Hire.Poly_req.tg_id in
  let h = (h * 1_000_003) lxor p.machine in
  ((h * 1_000_003) lxor Bool.to_int p.shared) land max_int

let wrap probe (s : Sim.Scheduler_intf.t) =
  {
    s with
    submit = (fun ~time r -> Span.with_ "hire.submit" (fun () -> s.submit ~time r));
    round =
      (fun ~time ->
        let res = Span.timed probe.round_s "hire.round" (fun () -> s.round ~time) in
        List.iter (fun p -> probe.phash <- hash_placement probe.phash p) res.placements;
        probe.placements <- probe.placements + List.length res.placements;
        res);
    on_task_complete =
      (fun ~time ~tg ~machine ->
        Span.with_ "hire.task_complete" (fun () -> s.on_task_complete ~time ~tg ~machine));
  }

(* The world of [Harness.Experiment.prepare], assembled call by call so
   each setup layer is timed and the scheduler can be wrapped.  The RNG
   split order is prepare's, so reports match hire_sim's. *)
let build cfg world probe =
  Span.with_ "setup" @@ fun () ->
  let spec = spec cfg world in
  let rng = Prelude.Rng.create spec.seed in
  let trace_rng = Prelude.Rng.split rng in
  let scenario_rng = Prelude.Rng.split rng in
  let cluster_rng = Prelude.Rng.split rng in
  let store = Hire.Comp_store.default () in
  let services = Array.to_list (Hire.Comp_store.service_names store) in
  let cluster =
    Span.with_ "sim.cluster_create" (fun () ->
        Sim.Cluster.create ?inc_capable_fraction:spec.inc_capable_fraction ~k:spec.k
          ~setup:spec.setup ~services cluster_rng)
  in
  let jobs =
    Span.with_ "workload.generate" (fun () ->
        let tc =
          Workload.Trace_gen.scaled_rate
            ~n_servers:(Sim.Cluster.n_servers cluster)
            ~target_utilization:spec.target_utilization Workload.Trace_gen.default
        in
        Workload.Trace_gen.generate tc trace_rng ~horizon:spec.horizon)
  in
  let scenario =
    Span.with_ "sim.scenario_build" (fun () ->
        Sim.Scenario.build store scenario_rng ~mu:spec.mu jobs)
  in
  let sched =
    Span.with_ "schedulers.create" (fun () ->
        Schedulers.Registry.create spec.scheduler ~seed:spec.seed cluster)
  in
  Span.with_ "sim.init" (fun () ->
      Sim.Simulator.init cluster (wrap probe sched) scenario.Sim.Scenario.arrivals)

(* ---------------------------------------------------------------- *)
(* Output check: digest of the deterministic report                  *)
(* ---------------------------------------------------------------- *)

let solver_column =
  let cols = String.split_on_char ',' Sim.Csv_export.header in
  let rec find i = function
    | [] -> invalid_arg "solver_p50_ms column missing"
    | "solver_p50_ms" :: _ -> i
    | _ :: rest -> find (i + 1) rest
  in
  find 0 cols

(* CSV row with its one wall-clock column masked, the round count, and
   the hash of every placement in decision order. *)
let digest cfg world probe (report : Sim.Metrics.report) =
  let row =
    Sim.Csv_export.row ~scheduler:"hire" ~mu:cfg.mu ~setup:Sim.Cluster.Homogeneous ~seed:world
      report
  in
  let masked =
    String.split_on_char ',' row
    |> List.mapi (fun i c -> if i = solver_column then "-" else c)
    |> String.concat ","
  in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%d|%d|%d" masked report.rounds probe.placements probe.phash))

(* digests.tsv: config name, world, rounds, cost (seconds the world
   took when recorded), digest. *)
type recorded = { rounds : int; cost : float; digest : string }

let load_table path =
  let tbl = Hashtbl.create 512 in
  (match open_in path with
  | ic ->
      (try
         while true do
           match String.split_on_char '\t' (input_line ic) with
           | [ name; world; rounds; cost; digest ] ->
               Hashtbl.replace tbl (name, int_of_string world)
                 { rounds = int_of_string rounds; cost = float_of_string cost; digest }
           | _ -> ()
         done
       with End_of_file -> ());
      close_in ic
  | exception Sys_error _ -> ());
  tbl

(* ---------------------------------------------------------------- *)
(* Which worlds a run steps                                          *)
(* ---------------------------------------------------------------- *)

(* Per-world cost is heavy-tailed (log-normal job sizes), so a plain
   random draw of worlds would make runs of different seeds differ by
   more than any useful bound.  The pool is cut into [strata] groups of
   similar recorded rounds per second; the seed shuffles each group, and
   the run takes worlds from the groups in turn until their recorded
   cost covers [budget] seconds.  The work of a run is thus fixed by
   its seed and --seconds, and varies with both. *)
let strata = 4

let sequence cfg table ~seed ~budget =
  let known =
    List.init cfg.pool (fun i -> i + 1)
    |> List.filter_map (fun w ->
           Option.map (fun r -> (w, r)) (Hashtbl.find_opt table (cfg.name, w)))
  in
  if known = [] then failwith ("no recorded worlds for " ^ cfg.name);
  let rate (_, r) = float_of_int r.rounds /. Float.max 1e-9 r.cost in
  let sorted = Array.of_list (List.stable_sort (fun a b -> Float.compare (rate a) (rate b)) known) in
  let n = Array.length sorted in
  let rng = Prelude.Rng.create seed in
  let groups =
    Array.init (min strata n) (fun g ->
        let lo = g * n / min strata n and hi = (g + 1) * n / min strata n in
        let grp = Array.sub sorted lo (hi - lo) in
        Prelude.Rng.shuffle rng grp;
        grp)
  in
  let rec take i acc spent =
    if spent >= budget && acc <> [] then List.rev acc
    else
      let grp = groups.(i mod Array.length groups) in
      let w, r = grp.(i / Array.length groups mod Array.length grp) in
      take (i + 1) (w :: acc) (spent +. r.cost)
  in
  take 0 [] 0.0

(* ---------------------------------------------------------------- *)
(* Passes                                                            *)
(* ---------------------------------------------------------------- *)

type pass = {
  probe : probe;
  setups : Samples.t;
  mutable rounds : int;
  mutable step_wall : float;  (** stepping and finishing, setup excluded *)
  mutable failures : string list;
  mutable digests : (int * int * float * string) list;  (** world, rounds, cost, digest *)
}

let new_pass () =
  { probe = new_probe (); setups = Samples.create (); rounds = 0; step_wall = 0.0;
    failures = []; digests = [] }

let step sim = Span.with_ "sim.step" (fun () -> Sim.Simulator.step sim)

(* A run stops starting worlds past this many times its --seconds, so
   it ends in time on a much slower host. *)
let overrun = 4.0

(* Step each world of [worlds] to the end and check its output.
   [drain] runs after every step, outside all spans. *)
let run_pass ?(p = new_pass ()) cfg table ~worlds ~perturb ~drain ~give_up =
  let fail msg = p.failures <- msg :: p.failures in
  List.iter
    (fun world ->
      if Clock.now () < give_up then begin
        let t0 = Clock.now () in
        let sim = build cfg world p.probe in
        Samples.add p.setups (Clock.now () -. t0);
        p.probe.phash <- 0;
        p.probe.placements <- 0;
        let expected = Hashtbl.find_opt table (cfg.name, world) in
        let t1 = Clock.now () in
        while step sim do
          drain ~force:false
        done;
        let report = (Span.with_ "sim.finish" (fun () -> Sim.Simulator.finish sim)).report in
        let wall = Clock.now () -. t1 in
        p.step_wall <- p.step_wall +. wall;
        p.rounds <- p.rounds + report.rounds;
        drain ~force:true;
        (match Sim.Simulator.ledger_check sim with
        | Ok () -> ()
        | Error e -> fail (Printf.sprintf "world %d: ledger check: %s" world e));
        let got = digest cfg world p.probe report in
        p.digests <- (world, report.rounds, wall, got) :: p.digests;
        match expected with
        | Some (r : recorded) ->
            let want =
              if perturb then String.map (function '0' -> '1' | _ -> '0') r.digest else r.digest
            in
            if got <> want then
              fail (Printf.sprintf "world %d: digest %s, recorded %s" world got want)
        | None -> fail (Printf.sprintf "world %d: no digest recorded" world)
      end)
    worlds;
  p

let ms = 1e3
let no_drain ~force:_ = ()

let end_to_end cfg table ~seed ~seconds ~perturb =
  let give_up = Clock.now () +. (overrun *. seconds) in
  let worlds = sequence cfg table ~seed ~budget:seconds in
  let p = run_pass cfg table ~worlds ~perturb ~drain:no_drain ~give_up in
  let q s x = ms *. Samples.quantile s x in
  let metrics =
    [
      ("setup_s", Samples.median p.setups);
      ("rounds_per_s", float_of_int p.rounds /. p.step_wall);
      ("round_p50_ms", q p.probe.round_s 0.50);
      ("round_p99_ms", q p.probe.round_s 0.99);
    ]
  in
  (metrics, p.rounds, List.rev p.failures)

(* ---------------------------------------------------------------- *)
(* Traced run                                                        *)
(* ---------------------------------------------------------------- *)

(* Each world of the first half of the run's work is stepped twice in a
   row, plainly and then traced, so both passes see the same heap and
   cache state; the per-layer numbers come from the traced pass. *)
let layers cfg table ~seed ~seconds ~perturb ~spans_path =
  let give_up = Clock.now () +. (overrun *. seconds) in
  let worlds = sequence cfg table ~seed ~budget:(seconds /. 2.0) in
  let o = Progobs.create () in
  Span.reset ();
  Progobs.reset ~capacity:65536;
  let drain ~force = if force || Obs.Trace.length () >= 16384 then Progobs.drain o in
  let plain = new_pass () and traced = new_pass () in
  let plain_wall = ref 0.0 and traced_wall = ref 0.0 in
  let timed_pass wall p ~drain worlds =
    let t0 = Clock.now () in
    ignore (run_pass ~p cfg table ~worlds ~perturb ~drain ~give_up : pass);
    wall := !wall +. (Clock.now () -. t0)
  in
  List.iter
    (fun w ->
      timed_pass plain_wall plain ~drain:no_drain [ w ];
      Span.enabled := true;
      Progobs.with_enabled (fun () -> timed_pass traced_wall traced ~drain [ w ]);
      Span.enabled := false)
    worlds;
  let agg = Span.aggregate () in
  Option.iter (fun path -> Span.write ~workload:cfg.name path) spans_path;
  let get name = Hashtbl.find_opt agg name in
  let med name = Option.fold ~none:0.0 ~some:(fun a -> Samples.median a.Span.durations) (get name) in
  let tot name = Option.fold ~none:0.0 ~some:(fun a -> Samples.total a.Span.durations) (get name) in
  let self name = Option.fold ~none:0.0 ~some:(fun a -> a.Span.self) (get name) in
  let count name = Option.fold ~none:0 ~some:(fun a -> Samples.count a.Span.durations) (get name) in
  let round =
    Option.fold ~none:(Samples.create ()) ~some:(fun a -> a.Span.durations) (get "hire.round")
  in
  let round_total = Samples.total round in
  let metrics =
    [
      ("workload.generate_s", med "workload.generate");
      ("sim.cluster_create_s", med "sim.cluster_create");
      ("sim.scenario_build_s", med "sim.scenario_build");
      ("schedulers.create_s", med "schedulers.create");
      ("sim.init_s", med "sim.init");
      ("sim.events", float_of_int (count "sim.step"));
      ("sim.step_self_s", self "sim.step");
      ("sim.finish_s", tot "sim.finish");
      ("hire.round_s.total", round_total);
      ("hire.round_s.p50", Samples.quantile round 0.50);
      ("hire.round_s.p99", Samples.quantile round 0.99);
      ("hire.rounds", float_of_int (Samples.count round));
      ("hire.submit_s", tot "hire.submit");
      ("hire.task_complete_s", tot "hire.task_complete");
      ("trace_overhead_ratio", (!traced_wall /. !plain_wall) -. 1.0);
    ]
    @ Progobs.metrics o ~round_total
  in
  (metrics, plain.rounds + traced.rounds, List.rev (plain.failures @ traced.failures))

(* Every pool world run to completion: the lines of digests.tsv. *)
let record cfg =
  let table = Hashtbl.create 1 in
  for world = 1 to cfg.pool do
    let p =
      run_pass cfg table ~worlds:[ world ] ~perturb:false ~drain:no_drain ~give_up:infinity
    in
    List.iter
      (fun (w, rounds, cost, d) -> Printf.printf "%s\t%d\t%d\t%.4f\t%s\n%!" cfg.name w rounds cost d)
      p.digests
  done
