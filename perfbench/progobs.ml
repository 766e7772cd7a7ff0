(* The program's own observability, read from outside: per-event
   samples from the obs trace ring, totals from the obs registry. *)

type t = {
  round_s : Samples.t;  (** rounds that built a network, i.e. had work *)
  build_s : Samples.t;
  arcs : Samples.t;
  solve_s : Samples.t;
  mutable built : bool;  (** a [network_built] since the last [round_end] *)
}

let create () =
  { round_s = Samples.create (); build_s = Samples.create (); arcs = Samples.create ();
    solve_s = Samples.create (); built = false }

(* Empty the registry and size the ring for the events between two
   drains. *)
let reset ~capacity =
  Obs.Registry.reset ();
  Obs.Trace.set_capacity capacity

let with_enabled f =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

(* Move the ring's events into [t]. *)
let drain t =
  List.iter
    (fun (r : Obs.Trace.record) ->
      let add s k =
        match Obs.Trace.field r k with
        | Some (Obs.Trace.Float f) -> Samples.add s f
        | Some (Obs.Trace.Int i) -> Samples.add s (float_of_int i)
        | _ -> ()
      in
      match r.name with
      | "network_built" ->
          t.built <- true;
          add t.build_s "build_s";
          add t.arcs "arcs"
      | "solver_profile" -> add t.solve_s "wall_s"
      | "round_end" ->
          if t.built then add t.round_s "round_s";
          t.built <- false
      | _ -> ())
    (Obs.Trace.records ());
  Obs.Trace.clear ()

let counter name = float_of_int (Obs.Registry.counter_value (Obs.Registry.counter name))
let hist_sum name = Obs.Histogram.sum (Obs.Registry.histogram name)

(* Build and solve layers; [round_total] is the rounds' summed wall
   time, from which extract/apply is derived. *)
let metrics t ~round_total =
  let q = Samples.quantile in
  let bucket = counter "flow.queue.bucket" and heap = counter "flow.queue.heap" in
  [
    ("hire.build_s.total", Samples.total t.build_s);
    ("hire.build_s.p50", q t.build_s 0.50);
    ("hire.build_s.p99", q t.build_s 0.99);
    ("hire.net.arcs_mean", Samples.mean t.arcs);
    ( "hire.net.touched_ratio",
      hist_sum "hire.net.touched_arcs" /. Float.max 1.0 (hist_sum "hire.net.total_arcs") );
    ("hire.extract_apply_s", round_total -. Samples.total t.build_s -. Samples.total t.solve_s);
    ("flow.solve_s.total", Samples.total t.solve_s);
    ("flow.solve_s.p50", q t.solve_s 0.50);
    ("flow.solve_s.p99", q t.solve_s 0.99);
    ("flow.solves", counter "flow.solves");
    ("flow.queue.bucket_ratio", bucket /. Float.max 1.0 (bucket +. heap));
  ]
