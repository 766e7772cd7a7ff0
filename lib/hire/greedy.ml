module Vec = Prelude.Vec
module Fat_tree = Topology.Fat_tree
module Int_tbl = Prelude.Int_tbl

let place (view : View.t) ~jobs ~(params : Cost_model.params) =
  let topo = view.View.topo in
  let sharing = view.View.sharing in
  let servers = Fat_tree.servers topo in
  (* One new task per machine per round, mirroring the flow network's
     capacity-1 M→K arcs, so in-round ledger reads stay accurate. *)
  let used_this_round = Int_tbl.create 64 in
  let placements = ref [] in
  let place_on tg_id machine =
    Int_tbl.replace used_this_round machine ();
    placements := (tg_id, machine) :: !placements
  in
  let place_server_task (ts : Pending.tg_state) =
    let demand = ts.tg.Poly_req.demand in
    let found = ref None in
    Array.iter
      (fun s ->
        if
          !found = None
          && (not (Int_tbl.mem used_this_round s))
          && view.View.alive s
          && Vec.fits ~demand ~available:(view.View.server_available s)
        then found := Some s)
      servers;
    match !found with
    | Some s ->
        place_on ts.tg.Poly_req.tg_id s;
        true
    | None -> false
  in
  let place_network_task (ts : Pending.tg_state) (ninfo : Poly_req.network_info) ~taken =
    let service = ninfo.Poly_req.service in
    let per_switch, per_instance =
      if params.sharing_aware then (ninfo.Poly_req.per_switch, ts.tg.Poly_req.demand)
      else
        ( Vec.zero (Vec.dim ts.tg.Poly_req.demand),
          Vec.add ninfo.Poly_req.per_switch ts.tg.Poly_req.demand )
    in
    let found = ref None in
    Array.iter
      (fun s ->
        let shape_ok =
          match ninfo.Poly_req.shape with
          | Comp_store.Single_tor -> Fat_tree.kind topo s = Fat_tree.Tor
          | Comp_store.Single | Comp_store.Chain | Comp_store.Tree | Comp_store.Spine_leaf ->
              true
        in
        if
          !found = None && shape_ok
          && (not (Int_tbl.mem used_this_round s))
          && (not (List.exists (Int.equal s) ts.placed_on))
          && (not (List.mem s taken))
          && Sharing.can_place sharing ~switch:s ~service ~per_switch ~per_instance
        then found := Some s)
      (Sharing.switch_ids sharing);
    match !found with
    | Some s ->
        place_on ts.tg.Poly_req.tg_id s;
        Some s
    | None -> None
  in
  (* Same FIFO selection and queue bound as Flow_network.build. *)
  let jobs =
    List.filter Pending.has_pending_work jobs
    |> List.sort (fun (a : Pending.job_state) b ->
           Float.compare a.poly.Poly_req.arrival b.poly.Poly_req.arrival)
  in
  let budget = ref params.max_queue_tgs in
  List.iter
    (fun (job : Pending.job_state) ->
      List.iter
        (fun (ts : Pending.tg_state) ->
          if !budget > 0 && ts.Pending.remaining > 0 then begin
            decr budget;
            match ts.tg.Poly_req.kind with
            | Poly_req.Server_tg ->
                let k = ref 0 in
                while !k < ts.Pending.remaining && place_server_task ts do
                  incr k
                done
            | Poly_req.Network_tg ninfo ->
                (* Distinct switches per instance within the round, on
                   top of the placed_on exclusion. *)
                let taken = ref [] in
                let continue_ = ref true in
                let k = ref 0 in
                while !k < ts.Pending.remaining && !continue_ do
                  (match place_network_task ts ninfo ~taken:!taken with
                  | Some s ->
                      taken := s :: !taken;
                      incr k
                  | None -> continue_ := false)
                done
          end)
        (Pending.materialized job))
    jobs;
  List.rev !placements
