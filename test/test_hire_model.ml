(* Tests for the HIRE resource model: flavor vectors, the CompStore
   catalogue, CompReq validation, the model transformer, non-linear
   sharing, locality, and the cost model. *)

module Flavor = Hire.Flavor
module Comp_store = Hire.Comp_store
module Comp_req = Hire.Comp_req
module Poly_req = Hire.Poly_req
module Transformer = Hire.Transformer
module Sharing = Hire.Sharing
module Locality = Hire.Locality
module Cost_model = Hire.Cost_model
module Pending = Hire.Pending
module Vec = Prelude.Vec
module Rng = Prelude.Rng
module Fat_tree = Topology.Fat_tree

let store = Comp_store.default ()

(* ------------------------------------------------------------------ *)
(* Flavor                                                             *)
(* ------------------------------------------------------------------ *)

let test_flavor_status () =
  let open Flavor in
  let f = of_bits [ One; Zero; X ] in
  Alcotest.(check bool) "undecided vs all-x" true (status ~active:(all_x 3) f = Undecided);
  let active = of_bits [ One; Zero; X ] in
  Alcotest.(check bool) "materialized" true (status ~active f = Materialized);
  let active = of_bits [ Zero; One; X ] in
  Alcotest.(check bool) "dropped" true (status ~active f = Dropped)

let test_flavor_apply () =
  let open Flavor in
  let active = apply ~active:(all_x 3) (of_bits [ One; Zero; X ]) in
  Alcotest.(check bool) "applied" true (equal active (of_bits [ One; Zero; X ]));
  Alcotest.(check bool) "contradiction raises" true
    (try
       ignore (apply ~active (of_bits [ Zero; X; X ]));
       false
     with Invalid_argument _ -> true)

let test_flavor_compatible () =
  let open Flavor in
  Alcotest.(check bool) "compatible" true
    (compatible (of_bits [ One; X ]) (of_bits [ X; Zero ]));
  Alcotest.(check bool) "incompatible" false
    (compatible (of_bits [ One; X ]) (of_bits [ Zero; X ]))

let test_flavor_builder () =
  let open Flavor in
  let b = Builder.create () in
  let frags = Builder.alternatives b 2 in
  Alcotest.(check int) "two coordinates" 2 (Builder.size b);
  let f0 = Builder.finalize b frags.(0) and f1 = Builder.finalize b frags.(1) in
  Alcotest.(check bool) "one-hot 0" true (equal f0 (of_bits [ One; Zero ]));
  Alcotest.(check bool) "one-hot 1" true (equal f1 (of_bits [ Zero; One ]));
  Alcotest.(check bool) "variants exclusive" false (compatible f0 f1)

let prop_flavor_apply_monotone =
  (* Applying a fragment can never flip a decided coordinate. *)
  QCheck.Test.make ~name:"apply only fills x coordinates" ~count:200
    QCheck.(list_of_size (Gen.return 6) (int_range 0 2))
    (fun bits ->
      let of_int = function 0 -> Flavor.Zero | 1 -> Flavor.One | _ -> Flavor.X in
      let f = Flavor.of_bits (List.map of_int bits) in
      let active = Flavor.all_x 6 in
      let applied = Flavor.apply ~active f in
      Flavor.status ~active:applied f = Flavor.Materialized)

(* ------------------------------------------------------------------ *)
(* CompStore                                                          *)
(* ------------------------------------------------------------------ *)

let test_store_has_paper_catalogue () =
  let expected =
    [ "sharp"; "incbricks"; "netcache"; "distcache"; "netchain"; "harmonia"; "hovercraft"; "r2p2" ]
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " present") true (Comp_store.find_service store name <> None))
    expected;
  Alcotest.(check int) "8 services" 8 (List.length (Comp_store.services store))

let test_store_switch_counts () =
  let svc = Comp_store.service_exn store in
  (* Tab. 3 formulas. *)
  Alcotest.(check int) "sharp log2" 5 ((svc "sharp").switch_count ~group_size:32);
  Alcotest.(check int) "netcache min 3" 3 ((svc "netcache").switch_count ~group_size:4);
  Alcotest.(check int) "netcache log2" 7 ((svc "netcache").switch_count ~group_size:100);
  Alcotest.(check int) "netchain min 3" 3 ((svc "netchain").switch_count ~group_size:100);
  Alcotest.(check int) "netchain scales" 6 ((svc "netchain").switch_count ~group_size:2000);
  Alcotest.(check int) "harmonia tiny" 1 ((svc "harmonia").switch_count ~group_size:100);
  Alcotest.(check int) "harmonia big" 2 ((svc "harmonia").switch_count ~group_size:10_000)

let test_store_netcache_registration () =
  (* NetCache: 8 shared stages per switch (Tab. 3). *)
  let nc = Comp_store.service_exn store "netcache" in
  Alcotest.(check (float 1e-9)) "8 stages" 8.0
    nc.per_switch.(Topology.Resource.Switch.stages);
  let sh = Comp_store.sharable_dims nc in
  Alcotest.(check bool) "stages sharable" true sh.(Topology.Resource.Switch.stages);
  Alcotest.(check bool) "sram not sharable" false sh.(Topology.Resource.Switch.sram)

let test_store_demand_draw_in_range () =
  let rng = Rng.create 5 in
  List.iter
    (fun svc ->
      for _ = 1 to 50 do
        let d = Comp_store.draw_instance_demand svc rng ~group_size:20 in
        let lo, hi = svc.Comp_store.per_instance_range ~group_size:20 in
        Array.iteri
          (fun i x ->
            Alcotest.(check bool)
              (Printf.sprintf "%s dim %d in range" svc.Comp_store.name i)
              true
              (x >= lo.(i) -. 1e-9 && x <= Float.max lo.(i) hi.(i) +. 1e-9))
          d
      done)
    (Comp_store.services store)

let test_store_templates () =
  Alcotest.(check bool) "coordinator has netchain" true
    (List.mem "netchain" (Comp_store.template_exn store "coordinator").inc_impls);
  Alcotest.(check (option string)) "template of sharp" (Some "aggregator")
    (Comp_store.template_of_service store "sharp");
  Alcotest.(check (option string)) "unknown service" None
    (Comp_store.template_of_service store "nonsense")

let test_store_custom_p4 () =
  let s = Comp_store.default () in
  let svc =
    Comp_store.custom_p4 ~name:"my-filter" ~version:`P4_16 ~switches:2 ~recirc:5.0
      ~stages:6.0 ~sram_mb:1.5 ~shared_stages:2.0 ()
  in
  Comp_store.register_custom_p4 s svc;
  Alcotest.(check (option string)) "under custom-p4 template" (Some "custom-p4")
    (Comp_store.template_of_service s "my-filter");
  Alcotest.(check bool) "p4-16 feature" true (svc.Comp_store.feature = Comp_store.P4_16);
  Alcotest.(check int) "fixed switch count" 2 (svc.Comp_store.switch_count ~group_size:500);
  let lo, hi = svc.Comp_store.per_instance_range ~group_size:1 in
  Alcotest.(check bool) "fixed demand" true (Vec.equal lo hi);
  (* A CompReq using the custom service validates and transforms. *)
  let req =
    {
      Comp_req.priority = Workload.Job.Batch;
      composites =
        [
          {
            Comp_req.comp_id = "f";
            template = "custom-p4";
            base = { Comp_req.instances = 3; cpu = 1.0; mem = 1.0; duration = 10.0 };
            inc_alternatives = [ "my-filter" ];
          };
        ];
      connections = [];
    }
  in
  Alcotest.(check bool) "validates" true (Result.is_ok (Comp_req.validate s req));
  let ids = Transformer.Id_gen.create () in
  let poly = Transformer.transform s ids (Rng.create 1) ~job_id:1 ~arrival:0.0 req in
  Alcotest.(check int) "network group of 2 switches" 2
    (List.hd (Poly_req.network_groups poly)).Poly_req.count

let test_store_extensible () =
  let s = Comp_store.default () in
  let custom =
    {
      Comp_store.name = "custom-agg";
      feature = Comp_store.P4_16;
      shape = Comp_store.Single;
      switch_count = (fun ~group_size:_ -> 2);
      per_switch = Vec.of_list [ 0.0; 4.0; 0.0 ];
      per_instance_range = (fun ~group_size:_ -> (Vec.zero 3, Vec.of_list [ 1.0; 2.0; 3.0 ]));
      server_saving = 0.05;
      duration_saving = 0.05;
    }
  in
  Comp_store.add_service s custom;
  Comp_store.add_template s
    { Comp_store.tpl_name = "custom-tpl"; inc_impls = [ "custom-agg" ]; has_server_impl = true };
  Alcotest.(check bool) "registered" true (Comp_store.find_service s "custom-agg" <> None);
  Alcotest.(check (option string)) "template found" (Some "custom-tpl")
    (Comp_store.template_of_service s "custom-agg")

(* ------------------------------------------------------------------ *)
(* CompReq                                                            *)
(* ------------------------------------------------------------------ *)

let server_spec n = { Comp_req.instances = n; cpu = 2.0; mem = 4.0; duration = 60.0 }

let simple_req ?(inc = []) () =
  {
    Comp_req.priority = Workload.Job.Batch;
    composites =
      [
        { Comp_req.comp_id = "web"; template = "server"; base = server_spec 4; inc_alternatives = [] };
        {
          Comp_req.comp_id = "coord";
          template = "coordinator";
          base = server_spec 6;
          inc_alternatives = inc;
        };
      ];
    connections = [ ("web", "coord") ];
  }

let test_comp_req_validate_ok () =
  match Comp_req.validate store (simple_req ~inc:[ "netchain" ] ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_comp_req_validate_catches () =
  let bad_service = simple_req ~inc:[ "bogus" ] () in
  Alcotest.(check bool) "unknown service" true
    (Result.is_error (Comp_req.validate store bad_service));
  let wrong_template =
    {
      (simple_req ()) with
      Comp_req.composites =
        [
          {
            Comp_req.comp_id = "c";
            template = "server";
            base = server_spec 2;
            inc_alternatives = [ "netchain" ] (* server template has no INC impls *);
          };
        ];
      connections = [];
    }
  in
  Alcotest.(check bool) "service not in template" true
    (Result.is_error (Comp_req.validate store wrong_template));
  let dup =
    {
      (simple_req ()) with
      Comp_req.composites =
        [
          { Comp_req.comp_id = "x"; template = "server"; base = server_spec 1; inc_alternatives = [] };
          { Comp_req.comp_id = "x"; template = "server"; base = server_spec 1; inc_alternatives = [] };
        ];
      connections = [];
    }
  in
  Alcotest.(check bool) "duplicate ids" true (Result.is_error (Comp_req.validate store dup));
  let bad_conn = { (simple_req ()) with Comp_req.connections = [ ("web", "nope") ] } in
  Alcotest.(check bool) "bad connection" true (Result.is_error (Comp_req.validate store bad_conn))

let test_comp_req_of_job () =
  let job =
    {
      Workload.Job.id = 9;
      arrival = 3.0;
      priority = Workload.Job.Service;
      groups =
        [
          { Workload.Job.tg_index = 0; count = 2; cpu = 1.0; mem = 2.0; duration = 5.0 };
          { Workload.Job.tg_index = 1; count = 3; cpu = 2.0; mem = 3.0; duration = 7.0 };
        ];
    }
  in
  let req = Comp_req.of_job job in
  Alcotest.(check int) "two composites" 2 (List.length req.composites);
  Alcotest.(check int) "chained" 1 (List.length req.connections);
  Alcotest.(check bool) "validates" true (Result.is_ok (Comp_req.validate store req));
  Alcotest.(check bool) "no inc yet" false (Comp_req.wants_inc req)

let test_comp_req_with_inc_alternative () =
  let req = simple_req () in
  let req = Comp_req.with_inc_alternative req ~comp_id:"coord" ~service:"netchain" in
  Alcotest.(check bool) "wants inc" true (Comp_req.wants_inc req);
  (* Idempotent. *)
  let req2 = Comp_req.with_inc_alternative req ~comp_id:"coord" ~service:"netchain" in
  let coord = Option.get (Comp_req.composite req2 "coord") in
  Alcotest.(check int) "no duplicate" 1 (List.length coord.inc_alternatives)

(* ------------------------------------------------------------------ *)
(* Transformer                                                        *)
(* ------------------------------------------------------------------ *)

let transform ?(req = simple_req ~inc:[ "netchain" ] ()) () =
  let ids = Transformer.Id_gen.create () in
  Transformer.transform store ids (Rng.create 11) ~job_id:1 ~arrival:0.0 req

let test_transform_groups () =
  let poly = transform () in
  (* web: 1 server TG; coord: server variant (1) + netchain variant
     (reduced server + 1 chain network TG) = 4 total. *)
  Alcotest.(check int) "4 task groups" 4 (List.length poly.Poly_req.task_groups);
  Alcotest.(check int) "1 network group" 1 (List.length (Poly_req.network_groups poly));
  Alcotest.(check bool) "has inc" true (Poly_req.has_inc poly);
  Alcotest.(check int) "2 flavor bits" 2 poly.Poly_req.flavor_len

let test_transform_netchain_shape () =
  let poly = transform () in
  let net = List.hd (Poly_req.network_groups poly) in
  (match net.Poly_req.kind with
  | Poly_req.Network_tg n ->
      Alcotest.(check string) "service" "netchain" n.Poly_req.service;
      Alcotest.(check bool) "chain shape" true (n.Poly_req.shape = Comp_store.Chain)
  | Poly_req.Server_tg -> Alcotest.fail "expected network group");
  Alcotest.(check int) "3 switches for small group" 3 net.Poly_req.count;
  Alcotest.(check int) "switch demand dims" 3 (Vec.dim net.Poly_req.demand)

let test_transform_savings () =
  let poly = transform () in
  let coord_groups =
    List.filter (fun tg -> tg.Poly_req.comp_id = "coord") poly.Poly_req.task_groups
  in
  let server_variants =
    List.filter (fun tg -> not (Poly_req.is_network tg)) coord_groups
  in
  (match List.sort (fun a b -> compare b.Poly_req.count a.Poly_req.count) server_variants with
  | [ full; reduced ] ->
      Alcotest.(check int) "full variant" 6 full.Poly_req.count;
      Alcotest.(check bool) "reduced variant smaller" true
        (reduced.Poly_req.count < full.Poly_req.count);
      Alcotest.(check bool) "reduced duration shorter" true
        (reduced.Poly_req.duration < full.Poly_req.duration)
  | _ -> Alcotest.fail "expected two server variants for coord")

let test_transform_exclusive_flavors () =
  let poly = transform () in
  let coord_groups =
    List.filter (fun tg -> tg.Poly_req.comp_id = "coord") poly.Poly_req.task_groups
  in
  let net = List.find Poly_req.is_network coord_groups in
  let full_server =
    List.find (fun tg -> (not (Poly_req.is_network tg)) && tg.Poly_req.count = 6) coord_groups
  in
  Alcotest.(check bool) "exclusive" false
    (Flavor.compatible net.Poly_req.flavor full_server.Poly_req.flavor)

let test_transform_connections () =
  let poly = transform () in
  let web = List.find (fun tg -> tg.Poly_req.comp_id = "web") poly.Poly_req.task_groups in
  (* web connects to all coord groups (3 of them). *)
  Alcotest.(check int) "web connected to coord groups" 3 (List.length web.Poly_req.connected)

let test_transform_distcache_two_tiers () =
  let req =
    {
      Comp_req.priority = Workload.Job.Batch;
      composites =
        [
          {
            Comp_req.comp_id = "cache";
            template = "cache";
            base = server_spec 12;
            inc_alternatives = [ "distcache" ];
          };
        ];
      connections = [];
    }
  in
  let poly = transform ~req () in
  let nets = Poly_req.network_groups poly in
  Alcotest.(check int) "spine and leaf" 2 (List.length nets);
  let roles =
    List.sort compare
      (List.filter_map
         (fun tg ->
           match tg.Poly_req.kind with
           | Poly_req.Network_tg n -> Some n.Poly_req.role
           | Poly_req.Server_tg -> None)
         nets)
  in
  Alcotest.(check (list string)) "roles" [ "leaf"; "spine" ] roles

let test_transform_invalid_raises () =
  Alcotest.(check bool) "invalid raises" true
    (try
       ignore (transform ~req:(simple_req ~inc:[ "bogus" ] ()) ());
       false
     with Invalid_argument _ -> true)

let test_transform_unique_ids () =
  let ids = Transformer.Id_gen.create () in
  let p1 =
    Transformer.transform store ids (Rng.create 1) ~job_id:1 ~arrival:0.0
      (simple_req ~inc:[ "netchain" ] ())
  in
  let p2 =
    Transformer.transform store ids (Rng.create 2) ~job_id:2 ~arrival:1.0
      (simple_req ~inc:[ "harmonia" ] ())
  in
  let all =
    List.map (fun tg -> tg.Poly_req.tg_id) (p1.Poly_req.task_groups @ p2.Poly_req.task_groups)
  in
  Alcotest.(check int) "globally unique" (List.length all)
    (List.length (List.sort_uniq compare all))

(* ------------------------------------------------------------------ *)
(* Api                                                                *)
(* ------------------------------------------------------------------ *)

let test_api_listing1 () =
  (* The paper's List. 1 flow. *)
  let open Hire.Api in
  let c4 = server ~id:"c4" ~instances:12 ~cpu:16.0 ~mem:8.5 ~duration:300.0 in
  let c5 =
    server ~id:"c5" ~instances:6 ~cpu:16.0 ~mem:32.0 ~duration:300.0
    |> with_alternative store ~service:"netchain"
  in
  let req = request_exn store ~priority:Service [ c4; c5 ] ~connections:[ connect c4 c5 ] in
  Alcotest.(check bool) "wants inc" true (Comp_req.wants_inc req);
  Alcotest.(check string) "template rewritten" "coordinator"
    (Option.get (Comp_req.composite req "c5")).Comp_req.template;
  Alcotest.(check bool) "validates" true (Result.is_ok (Comp_req.validate store req))

let test_api_rejects_conflicting_templates () =
  let open Hire.Api in
  let c =
    server ~id:"x" ~instances:4 ~cpu:1.0 ~mem:1.0 ~duration:10.0
    |> with_alternative store ~service:"netchain"
  in
  Alcotest.(check bool) "cross-template alternative rejected" true
    (try
       ignore (with_alternative store ~service:"netcache" c);
       false
     with Invalid_argument _ -> true)

let test_api_multiple_alternatives_same_template () =
  let open Hire.Api in
  let c =
    server ~id:"cache" ~instances:4 ~cpu:1.0 ~mem:1.0 ~duration:10.0
    |> with_alternative store ~service:"netcache"
    |> with_alternative store ~service:"distcache"
  in
  Alcotest.(check int) "two alternatives" 2 (List.length c.Comp_req.inc_alternatives);
  let req = request_exn store [ c ] in
  Alcotest.(check bool) "validates" true (Result.is_ok (Comp_req.validate store req))

let test_api_unknown_service () =
  let open Hire.Api in
  Alcotest.(check bool) "unknown service rejected" true
    (try
       ignore
         (with_alternative store ~service:"warp-drive"
            (server ~id:"x" ~instances:1 ~cpu:1.0 ~mem:1.0 ~duration:1.0));
       false
     with Invalid_argument _ -> true)

let test_api_request_error () =
  let open Hire.Api in
  let a = server ~id:"dup" ~instances:1 ~cpu:1.0 ~mem:1.0 ~duration:1.0 in
  match request store [ a; a ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate ids accepted"

(* ------------------------------------------------------------------ *)
(* Sharing                                                            *)
(* ------------------------------------------------------------------ *)

let mk_sharing ?(supported = fun _ -> [ "netcache"; "netchain" ]) () =
  let topo = Fat_tree.create ~k:4 in
  (topo, Sharing.create ~topo ~capacity:(Vec.of_list [ 100.0; 48.0; 22.0 ]) ~supported)

let reg = Vec.of_list [ 0.0; 8.0; 0.0 ]
let inst = Vec.of_list [ 0.0; 2.0; 6.0 ]

let test_sharing_registration_once () =
  let topo, sh = mk_sharing () in
  let sw = (Fat_tree.tor_switches topo).(0) in
  Sharing.place sh ~switch:sw ~service:"netcache" ~per_switch:reg ~per_instance:inst;
  let a1 = Sharing.available sh sw in
  Alcotest.(check (float 1e-9)) "stages after first" (48.0 -. 8.0 -. 2.0) a1.(1);
  Sharing.place sh ~switch:sw ~service:"netcache" ~per_switch:reg ~per_instance:inst;
  let a2 = Sharing.available sh sw in
  (* Second instance shares the 8-stage registration. *)
  Alcotest.(check (float 1e-9)) "stages after second" (48.0 -. 8.0 -. 4.0) a2.(1);
  Alcotest.(check (float 1e-9)) "sram accumulates" (22.0 -. 12.0) a2.(2);
  Alcotest.(check int) "2 instances" 2 (Sharing.instances sh ~switch:sw ~service:"netcache")

let test_sharing_release_refunds_registration_last () =
  let topo, sh = mk_sharing () in
  let sw = (Fat_tree.tor_switches topo).(0) in
  Sharing.place sh ~switch:sw ~service:"netcache" ~per_switch:reg ~per_instance:inst;
  Sharing.place sh ~switch:sw ~service:"netcache" ~per_switch:reg ~per_instance:inst;
  Sharing.release sh ~switch:sw ~service:"netcache" ~per_instance:inst;
  let a = Sharing.available sh sw in
  Alcotest.(check (float 1e-9)) "registration kept" (48.0 -. 8.0 -. 2.0) a.(1);
  Sharing.release sh ~switch:sw ~service:"netcache" ~per_instance:inst;
  let a = Sharing.available sh sw in
  Alcotest.(check (float 1e-9)) "fully refunded" 48.0 a.(1);
  Alcotest.(check (float 1e-9)) "sram refunded" 22.0 a.(2);
  Alcotest.(check int) "no active services" 0 (Sharing.n_active sh sw)

let test_sharing_effective_demand () =
  let topo, sh = mk_sharing () in
  let sw = (Fat_tree.tor_switches topo).(0) in
  let first = Sharing.effective_demand sh ~switch:sw ~service:"netcache" ~per_switch:reg ~per_instance:inst in
  Alcotest.(check (float 1e-9)) "first pays registration" 10.0 first.(1);
  Sharing.place sh ~switch:sw ~service:"netcache" ~per_switch:reg ~per_instance:inst;
  let second = Sharing.effective_demand sh ~switch:sw ~service:"netcache" ~per_switch:reg ~per_instance:inst in
  Alcotest.(check (float 1e-9)) "second does not" 2.0 second.(1)

let test_sharing_support_and_capacity_checks () =
  let topo, sh = mk_sharing () in
  let sw = (Fat_tree.tor_switches topo).(0) in
  Alcotest.(check bool) "unsupported service" false
    (Sharing.can_place sh ~switch:sw ~service:"sharp" ~per_switch:reg ~per_instance:inst);
  let huge = Vec.of_list [ 0.0; 0.0; 30.0 ] in
  Alcotest.(check bool) "too big" false
    (Sharing.can_place sh ~switch:sw ~service:"netcache" ~per_switch:reg ~per_instance:huge);
  Alcotest.(check bool) "place raises" true
    (try
       Sharing.place sh ~switch:sw ~service:"netcache" ~per_switch:reg ~per_instance:huge;
       false
     with Invalid_argument _ -> true)

let test_sharing_release_without_place_raises () =
  let topo, sh = mk_sharing () in
  let sw = (Fat_tree.tor_switches topo).(0) in
  Alcotest.(check bool) "raises" true
    (try
       Sharing.release sh ~switch:sw ~service:"netcache" ~per_instance:inst;
       false
     with Invalid_argument _ -> true)

let test_sharing_total_used () =
  let topo, sh = mk_sharing () in
  let sw = (Fat_tree.tor_switches topo).(0) in
  Sharing.place sh ~switch:sw ~service:"netcache" ~per_switch:reg ~per_instance:inst;
  let used = Sharing.total_used sh in
  Alcotest.(check (float 1e-9)) "stage usage" 10.0 used.(1);
  Alcotest.(check (float 1e-9)) "sram usage" 6.0 used.(2)

let test_sharing_non_switch_rejected () =
  let topo, sh = mk_sharing () in
  let server = (Fat_tree.servers topo).(0) in
  Alcotest.(check bool) "server id rejected" true
    (try
       ignore (Sharing.available sh server);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Locality                                                           *)
(* ------------------------------------------------------------------ *)

let test_census_counts () =
  let topo = Fat_tree.create ~k:4 in
  let census = Locality.Task_census.create topo in
  let s0 = (Fat_tree.servers topo).(0) in
  let tor = Fat_tree.tor_of_server topo s0 in
  Locality.Task_census.add census ~tg_id:1 ~machine:s0;
  Locality.Task_census.add census ~tg_id:1 ~machine:s0;
  Alcotest.(check int) "total" 2 (Locality.Task_census.total census ~tg_id:1);
  Alcotest.(check int) "under server" 2 (Locality.Task_census.count_under census ~tg_id:1 ~node:s0);
  Alcotest.(check int) "under tor" 2 (Locality.Task_census.count_under census ~tg_id:1 ~node:tor);
  let core = (Fat_tree.core_switches topo).(0) in
  Alcotest.(check int) "under core" 2 (Locality.Task_census.count_under census ~tg_id:1 ~node:core);
  Locality.Task_census.remove census ~tg_id:1 ~machine:s0;
  Alcotest.(check int) "after remove" 1 (Locality.Task_census.total census ~tg_id:1)

let test_census_switch_tasks () =
  let topo = Fat_tree.create ~k:4 in
  let census = Locality.Task_census.create topo in
  let tor = (Fat_tree.tor_switches topo).(0) in
  Locality.Task_census.add census ~tg_id:2 ~machine:tor;
  Alcotest.(check (list int)) "switches" [ tor ] (Locality.Task_census.switches census ~tg_id:2);
  Alcotest.(check int) "under itself" 1
    (Locality.Task_census.count_under census ~tg_id:2 ~node:tor)

let test_upsilon_prefers_colocated_subtree () =
  let topo = Fat_tree.create ~k:4 in
  let census = Locality.Task_census.create topo in
  let s0 = (Fat_tree.servers topo).(0) in
  let tor_near = Fat_tree.tor_of_server topo s0 in
  let tor_far = (Fat_tree.tor_switches topo).(7) in
  Locality.Task_census.add census ~tg_id:1 ~machine:s0;
  let memo = Locality.Memo.create () in
  let key = Locality.Memo.fresh memo in
  let near = Locality.upsilon ~memo ~key topo census ~tg_ids:[ 1 ] ~node:tor_near ~group_size:1 in
  let far = Locality.upsilon ~memo ~key topo census ~tg_ids:[ 1 ] ~node:tor_far ~group_size:1 in
  Alcotest.(check bool) "near subtree scores better (lower)" true (near < far);
  Alcotest.(check (float 1e-9)) "far subtree has nothing" 1.0 far

(* Reference Υ: the plain recursive walk of Eq. 6, with no memo and no
   skipping of empty subtrees.  [Locality.upsilon] must match it bit for
   bit, because shortcut costs are rounded from it and placements
   depend on their order. *)
let naive_upsilon topo census ~tg_ids ~node ~group_size =
  if group_size <= 0 then 1.0
  else begin
    let total_related n =
      List.fold_left
        (fun acc tg_id -> acc + Locality.Task_census.count_under census ~tg_id ~node:n)
        0 tg_ids
    in
    let gs = float_of_int group_size in
    let rec go n =
      if Fat_tree.is_server topo n then
        Float.min 1.0 (float_of_int (max 0 (group_size - total_related n)) /. gs)
      else begin
        match Fat_tree.children topo n with
        | [] -> 1.0
        | kids ->
            let sum =
              List.fold_left
                (fun acc kid ->
                  acc
                  +.
                  if Fat_tree.is_server topo kid then
                    float_of_int (max 0 (group_size - total_related kid)) /. gs
                  else go kid)
                0.0 kids
            in
            sum /. float_of_int (List.length kids)
      end
    in
    Float.max 0.0 (Float.min 1.0 (go node))
  end

(* Random censuses on k ∈ {4,6,8}: tasks of groups 1..4 on any node
   (possibly none), a related set of 1–3 ids (duplicates allowed, some
   possibly never placed), and a group size that is 0, the related
   total, or arbitrary.  Two contexts share one memo with interleaved
   keys, so a stale entry read under the wrong key would show. *)
let prop_upsilon_matches_naive =
  let gen =
    QCheck.Gen.(
      let* k = oneofl [ 4; 6; 8 ] in
      let n = Fat_tree.node_count (Fat_tree.create ~k) in
      let* tasks = list_size (int_range 0 40) (pair (int_range 1 4) (int_range 0 (n - 1))) in
      let related = list_size (int_range 1 3) (int_range 1 5) in
      let* r1 = related and* r2 = related in
      let* size_mode = int_range 0 2 and* size_any = int_range 0 60 in
      return (k, tasks, r1, r2, size_mode, size_any))
  in
  let print (k, tasks, r1, r2, mode, any) =
    let ints l = String.concat ";" (List.map string_of_int l) in
    Printf.sprintf "k=%d tasks=[%s] r1=[%s] r2=[%s] mode=%d any=%d" k
      (String.concat ";" (List.map (fun (g, m) -> Printf.sprintf "%d@%d" g m) tasks))
      (ints r1) (ints r2) mode any
  in
  QCheck.Test.make ~name:"upsilon equals the naive walk at every node" ~count:300
    (QCheck.make ~print gen)
    (fun (k, tasks, r1, r2, size_mode, size_any) ->
      let topo = Fat_tree.create ~k in
      let census = Locality.Task_census.create topo in
      List.iter (fun (tg_id, machine) -> Locality.Task_census.add census ~tg_id ~machine) tasks;
      let group_size related =
        match size_mode with
        | 0 -> 0
        | 1 ->
            List.fold_left
              (fun acc tg_id -> acc + Locality.Task_census.total census ~tg_id)
              0 related
        | _ -> size_any
      in
      let memo = Locality.Memo.create () in
      let ctxs = List.map (fun r -> (r, group_size r, Locality.Memo.fresh memo)) [ r1; r2 ] in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      List.for_all
        (fun node ->
          List.for_all
            (fun (tg_ids, group_size, key) ->
              same
                (naive_upsilon topo census ~tg_ids ~node ~group_size)
                (Locality.upsilon ~memo ~key topo census ~tg_ids ~node ~group_size))
            ctxs)
        (List.init (Fat_tree.node_count topo) Fun.id))

let test_gain_propagates_and_decays () =
  let topo = Fat_tree.create ~k:4 in
  let census = Locality.Task_census.create topo in
  let tor = (Fat_tree.tor_switches topo).(0) in
  Locality.Task_census.add census ~tg_id:1 ~machine:tor;
  let gain = Locality.Gain.compute topo census ~related:[ 1 ] ~gamma:64 ~xi:2 in
  Alcotest.(check int) "source gain" 64 (Locality.Gain.at gain tor);
  let agg = List.hd (Fat_tree.parents topo tor) in
  Alcotest.(check int) "one hop decayed" 32 (Locality.Gain.at gain agg);
  Alcotest.(check (float 1e-9)) "normalized source" 1.0 (Locality.Gain.normalized gain tor);
  (* A ToR in another pod is 4 switch-hops away: 64/2^4 = 4. *)
  let far_tor = (Fat_tree.tor_switches topo).(7) in
  Alcotest.(check int) "far decayed" 4 (Locality.Gain.at gain far_tor)

let test_gain_empty_sources () =
  let topo = Fat_tree.create ~k:4 in
  let census = Locality.Task_census.create topo in
  let gain = Locality.Gain.compute topo census ~related:[ 99 ] ~gamma:64 ~xi:2 in
  Alcotest.(check (float 1e-9)) "no gain anywhere" 0.0
    (Locality.Gain.normalized gain (Fat_tree.tor_switches topo).(0))

(* ------------------------------------------------------------------ *)
(* Cost model                                                         *)
(* ------------------------------------------------------------------ *)

let params = Cost_model.default_params

let test_phi_pref_shape () =
  Alcotest.(check (float 1e-9)) "fresh job max" 3.0 (Cost_model.phi_pref ~waiting:0.1 params);
  Alcotest.(check (float 1e-9)) "past upper zero" 0.0 (Cost_model.phi_pref ~waiting:3.0 params);
  let mid = Cost_model.phi_pref ~waiting:1.2 params in
  Alcotest.(check bool) "decays" true (mid > 0.0 && mid < 3.0);
  let later = Cost_model.phi_pref ~waiting:1.8 params in
  Alcotest.(check bool) "monotone" true (later < mid)

let test_phi_w_shape () =
  Alcotest.(check (float 1e-9)) "zero at arrival" 0.0 (Cost_model.phi_w ~waiting:0.0 params);
  Alcotest.(check (float 1e-9)) "one past threshold" 1.0 (Cost_model.phi_w ~waiting:1.0 params);
  let mid = Cost_model.phi_w ~waiting:0.25 params in
  Alcotest.(check bool) "rising" true (mid > 0.0 && mid < 1.0)

let test_phi_new () =
  Alcotest.(check (float 1e-9)) "active service free" 0.0
    (Cost_model.phi_new ~service_active:true ~n_active:3 ~max_possible:8);
  Alcotest.(check (float 1e-9)) "empty switch" 1.0
    (Cost_model.phi_new ~service_active:false ~n_active:0 ~max_possible:8);
  let busy = Cost_model.phi_new ~service_active:false ~n_active:8 ~max_possible:8 in
  Alcotest.(check (float 1e-9)) "busy switch halves" 0.5 busy

let test_phi_tor () =
  let topo = Fat_tree.create ~k:4 in
  Alcotest.(check (float 1e-9)) "tor 0" 0.0
    (Cost_model.phi_tor topo ~switch:(Fat_tree.tor_switches topo).(0));
  Alcotest.(check (float 1e-9)) "agg 0.5" 0.5
    (Cost_model.phi_tor topo ~switch:(Fat_tree.agg_switches topo).(0));
  Alcotest.(check (float 1e-9)) "core 1" 1.0
    (Cost_model.phi_tor topo ~switch:(Fat_tree.core_switches topo).(0))

let test_phi_delay_monotonicity () =
  let base = Cost_model.phi_delay ~waiting:10.0 ~max_waiting:100.0 ~placed:0 ~total:10 in
  let waited = Cost_model.phi_delay ~waiting:50.0 ~max_waiting:100.0 ~placed:0 ~total:10 in
  Alcotest.(check bool) "longer wait costs more to postpone" true (waited > base);
  let nearly_done = Cost_model.phi_delay ~waiting:10.0 ~max_waiting:100.0 ~placed:9 ~total:10 in
  Alcotest.(check bool) "mostly-placed costs more to postpone" true (nearly_done > base)

let test_flatten_and_edges () =
  Alcotest.(check int) "flatten scales" 500 (Cost_model.flatten [ 0.5 ] ~penalty:0.0 params);
  Alcotest.(check int) "penalty added" 1500 (Cost_model.flatten [ 0.5 ] ~penalty:1.0 params);
  Alcotest.(check int) "empty components" 1000 (Cost_model.flatten [] ~penalty:1.0 params);
  Alcotest.(check int) "s_to_f" 1000 (Cost_model.s_to_f params);
  let g_to_p = Cost_model.g_to_p ~phi_delay:0.0 params in
  Alcotest.(check int) "postpone carries penalty 5" 5000 g_to_p;
  Alcotest.(check bool) "f_to_p carries penalty 3" true
    (Cost_model.f_to_p ~phi_w:0.0 params = 3000)

let test_fallback_penalty () =
  let plain = Cost_model.f_to_g ~phi_xhat:0.2 ~phi_pref:0.0 params in
  let fb = Cost_model.f_to_g ~phi_xhat:0.2 ~phi_pref:0.0 ~fallback:true params in
  Alcotest.(check bool) "fallback variant costs more" true (fb > plain)

let test_flatten_weights () =
  let w = Cost_model.flatten ~weights:[| 1.0; 3.0 |] [ 0.0; 1.0 ] ~penalty:0.0 params in
  Alcotest.(check int) "weighted" 750 w

(* ------------------------------------------------------------------ *)
(* Pending                                                            *)
(* ------------------------------------------------------------------ *)

let test_pending_lifecycle () =
  let poly = transform () in
  let job = Pending.of_poly poly in
  Alcotest.(check int) "materialized web TG" 1 (List.length (Pending.materialized job));
  Alcotest.(check int) "3 undecided" 3 (List.length (Pending.undecided job));
  Alcotest.(check bool) "flavor open" true (Pending.flavor_open job);
  (* Decide the INC variant. *)
  let net_ts =
    List.find (fun ts -> Poly_req.is_network ts.Pending.tg) (Pending.undecided job)
  in
  let dropped = Pending.decide job net_ts in
  Alcotest.(check int) "server variant dropped" 1 (List.length dropped);
  Alcotest.(check bool) "flavor closed" false (Pending.flavor_open job);
  Alcotest.(check int) "3 materialized now" 3 (List.length (Pending.materialized job))

let test_pending_force_fallback () =
  let poly = transform () in
  let job = Pending.of_poly poly in
  let dropped = Pending.force_server_fallback job in
  Alcotest.(check bool) "network dropped" true
    (List.exists Poly_req.is_network (List.map (fun ts -> ts.Pending.tg) dropped));
  Alcotest.(check bool) "locked" true job.Pending.inc_flavor_locked;
  Alcotest.(check bool) "no network group materialized" true
    (List.for_all
       (fun ts -> not (Poly_req.is_network ts.Pending.tg))
       (Pending.materialized job))

let test_pending_place_and_progress () =
  let poly = transform () in
  let job = Pending.of_poly poly in
  let web = List.hd (Pending.materialized job) in
  Alcotest.(check bool) "work pending" true (Pending.has_pending_work job);
  for i = 1 to web.Pending.tg.Poly_req.count do
    Pending.place job web ~machine:(100 + i)
  done;
  Alcotest.(check int) "no remaining" 0 web.Pending.remaining;
  Alcotest.(check bool) "still pending (other composites)" true (Pending.has_pending_work job);
  Alcotest.(check bool) "over-place raises" true
    (try
       Pending.place job web ~machine:1;
       false
     with Invalid_argument _ -> true)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "hire-model"
    [
      ( "flavor",
        Alcotest.test_case "status" `Quick test_flavor_status
        :: Alcotest.test_case "apply" `Quick test_flavor_apply
        :: Alcotest.test_case "compatible" `Quick test_flavor_compatible
        :: Alcotest.test_case "builder" `Quick test_flavor_builder
        :: qt [ prop_flavor_apply_monotone ] );
      ( "comp_store",
        [
          Alcotest.test_case "paper catalogue" `Quick test_store_has_paper_catalogue;
          Alcotest.test_case "switch counts" `Quick test_store_switch_counts;
          Alcotest.test_case "netcache registration" `Quick test_store_netcache_registration;
          Alcotest.test_case "demand ranges" `Quick test_store_demand_draw_in_range;
          Alcotest.test_case "templates" `Quick test_store_templates;
          Alcotest.test_case "extensible" `Quick test_store_extensible;
          Alcotest.test_case "custom p4" `Quick test_store_custom_p4;
        ] );
      ( "comp_req",
        [
          Alcotest.test_case "validate ok" `Quick test_comp_req_validate_ok;
          Alcotest.test_case "validate catches" `Quick test_comp_req_validate_catches;
          Alcotest.test_case "of_job" `Quick test_comp_req_of_job;
          Alcotest.test_case "with_inc_alternative" `Quick test_comp_req_with_inc_alternative;
        ] );
      ( "transformer",
        [
          Alcotest.test_case "groups" `Quick test_transform_groups;
          Alcotest.test_case "netchain shape" `Quick test_transform_netchain_shape;
          Alcotest.test_case "savings" `Quick test_transform_savings;
          Alcotest.test_case "exclusive flavors" `Quick test_transform_exclusive_flavors;
          Alcotest.test_case "connections" `Quick test_transform_connections;
          Alcotest.test_case "distcache two tiers" `Quick test_transform_distcache_two_tiers;
          Alcotest.test_case "invalid raises" `Quick test_transform_invalid_raises;
          Alcotest.test_case "unique ids" `Quick test_transform_unique_ids;
        ] );
      ( "api",
        [
          Alcotest.test_case "listing 1 flow" `Quick test_api_listing1;
          Alcotest.test_case "conflicting templates" `Quick test_api_rejects_conflicting_templates;
          Alcotest.test_case "multi alternatives" `Quick test_api_multiple_alternatives_same_template;
          Alcotest.test_case "unknown service" `Quick test_api_unknown_service;
          Alcotest.test_case "request error" `Quick test_api_request_error;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "registration once" `Quick test_sharing_registration_once;
          Alcotest.test_case "release refunds" `Quick test_sharing_release_refunds_registration_last;
          Alcotest.test_case "effective demand" `Quick test_sharing_effective_demand;
          Alcotest.test_case "support/capacity" `Quick test_sharing_support_and_capacity_checks;
          Alcotest.test_case "release without place" `Quick test_sharing_release_without_place_raises;
          Alcotest.test_case "total used" `Quick test_sharing_total_used;
          Alcotest.test_case "non-switch rejected" `Quick test_sharing_non_switch_rejected;
        ] );
      ( "locality",
        [
          Alcotest.test_case "census counts" `Quick test_census_counts;
          Alcotest.test_case "census switch tasks" `Quick test_census_switch_tasks;
          Alcotest.test_case "upsilon" `Quick test_upsilon_prefers_colocated_subtree;
          Alcotest.test_case "gain propagation" `Quick test_gain_propagates_and_decays;
          Alcotest.test_case "gain empty" `Quick test_gain_empty_sources;
        ]
        @ qt [ prop_upsilon_matches_naive ] );
      ( "cost_model",
        [
          Alcotest.test_case "phi_pref" `Quick test_phi_pref_shape;
          Alcotest.test_case "phi_w" `Quick test_phi_w_shape;
          Alcotest.test_case "phi_new" `Quick test_phi_new;
          Alcotest.test_case "phi_tor" `Quick test_phi_tor;
          Alcotest.test_case "phi_delay" `Quick test_phi_delay_monotonicity;
          Alcotest.test_case "flatten/edges" `Quick test_flatten_and_edges;
          Alcotest.test_case "fallback penalty" `Quick test_fallback_penalty;
          Alcotest.test_case "flatten weights" `Quick test_flatten_weights;
        ] );
      ( "pending",
        [
          Alcotest.test_case "lifecycle" `Quick test_pending_lifecycle;
          Alcotest.test_case "force fallback" `Quick test_pending_force_fallback;
          Alcotest.test_case "place/progress" `Quick test_pending_place_and_progress;
        ] );
    ]
