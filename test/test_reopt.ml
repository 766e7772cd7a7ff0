(* Tests for the re-optimizing solve path (docs/PERFORMANCE.md):
   identity oracles for the Fast SSP kernel (packed-key heap over the
   graph's arrays) and the cursor-based flow decomposition, each against
   a frozen copy of the implementation it replaced, plus Fast-vs-Classic
   solver agreement and touched-arc flow-reset exactness.  The
   end-to-end property that the persistent builder (with its sparse
   flow resets) matches a full rebuild lives in test_incremental. *)

module Graph = Flow.Graph
module Mcmf = Flow.Mcmf
module Heap = Prelude.Heap
module Int_tbl = Prelude.Int_tbl
module Rng = Prelude.Rng

(* ------------------------------------------------------------------ *)
(* Reference: the Fast SSP on a Heap.Int_pair queue                    *)
(* ------------------------------------------------------------------ *)

(* A frozen copy of the Fast SSP as it ran before the packed-key heap:
   early-terminating Dijkstra over [Graph.iter_out] with a
   [Heap.Int_pair] queue, generation stamps and settled-only potential
   updates, unbudgeted.  The production kernel must augment along the
   same paths, so it must leave the same flow on every arc. *)
module Ref_ssp = struct
  let infinity_dist = max_int / 4

  let spfa g excess =
    let n = Graph.node_count g in
    let dist = Array.make n infinity_dist in
    let in_queue = Array.make n false in
    let q = Queue.create () in
    for v = 0 to n - 1 do
      if excess.(v) > 0 then begin
        dist.(v) <- 0;
        Queue.push v q;
        in_queue.(v) <- true
      end
    done;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      in_queue.(v) <- false;
      Graph.iter_out g v (fun a ->
          if Graph.residual_cap g a > 0 then begin
            let u = Graph.dst g a in
            let nd = dist.(v) + Graph.cost g a in
            if nd < dist.(u) then begin
              dist.(u) <- nd;
              if not in_queue.(u) then begin
                Queue.push u q;
                in_queue.(u) <- true
              end
            end
          end)
    done;
    dist

  (* Returns (shipped, unshipped). *)
  let solve g =
    let n = Graph.node_count g in
    let excess = Array.init n (Graph.supply g) in
    let pot = Array.make n 0 in
    if Graph.has_negative_cost g then begin
      let bf = spfa g excess in
      for v = 0 to n - 1 do
        if bf.(v) < infinity_dist then pot.(v) <- bf.(v)
      done
    end;
    let dist = Array.make n 0 and parent = Array.make n 0 and stamp = Array.make n 0 in
    let settled = Array.make n 0 and n_settled = ref 0 in
    let sources = Array.make n 0 and n_sources = ref 0 in
    let h = Heap.Int_pair.create () in
    let gen = ref 0 in
    let remaining = ref 0 and shipped = ref 0 in
    for v = 0 to n - 1 do
      if excess.(v) > 0 then begin
        remaining := !remaining + excess.(v);
        sources.(!n_sources) <- v;
        incr n_sources
      end
    done;
    let dijkstra () =
      Heap.Int_pair.clear h;
      n_settled := 0;
      let i = ref 0 in
      while !i < !n_sources do
        let v = sources.(!i) in
        if excess.(v) > 0 then incr i
        else begin
          decr n_sources;
          sources.(!i) <- sources.(!n_sources)
        end
      done;
      for i = 0 to !n_sources - 1 do
        let v = sources.(i) in
        dist.(v) <- 0;
        parent.(v) <- -1;
        stamp.(v) <- !gen;
        Heap.Int_pair.push h 0 v
      done;
      let target = ref (-1) in
      while !target < 0 && not (Heap.Int_pair.is_empty h) do
        let d = Heap.Int_pair.min_key h in
        let v = Heap.Int_pair.pop h in
        if d = dist.(v) && stamp.(v) = !gen then begin
          settled.(!n_settled) <- v;
          incr n_settled;
          if excess.(v) < 0 then target := v
          else
            Graph.iter_out g v (fun a ->
                if Graph.residual_cap g a > 0 then begin
                  let u = Graph.dst g a in
                  let rc = Graph.cost g a + pot.(v) - pot.(u) in
                  let rc = if rc < 0 then 0 else rc in
                  let nd = d + rc in
                  if nd < (if stamp.(u) = !gen then dist.(u) else infinity_dist) then begin
                    dist.(u) <- nd;
                    parent.(u) <- a;
                    stamp.(u) <- !gen;
                    Heap.Int_pair.push h nd u
                  end
                end)
        end
      done;
      !target
    in
    let continue_ = ref (!remaining > 0) in
    while !continue_ do
      incr gen;
      let target = dijkstra () in
      if target < 0 then continue_ := false
      else begin
        let d_target = dist.(target) in
        let bottleneck = ref (-excess.(target)) in
        let v = ref target in
        while parent.(!v) >= 0 do
          let a = parent.(!v) in
          if Graph.residual_cap g a < !bottleneck then bottleneck := Graph.residual_cap g a;
          v := Graph.src g a
        done;
        let source = !v in
        if excess.(source) < !bottleneck then bottleneck := excess.(source);
        let amount = !bottleneck in
        let v = ref target in
        while parent.(!v) >= 0 do
          let a = parent.(!v) in
          Graph.push g a amount;
          v := Graph.src g a
        done;
        excess.(source) <- excess.(source) - amount;
        excess.(target) <- excess.(target) + amount;
        shipped := !shipped + amount;
        remaining := !remaining - amount;
        for i = 0 to !n_settled - 1 do
          let u = settled.(i) in
          pot.(u) <- pot.(u) + dist.(u) - d_target
        done;
        if !remaining = 0 then continue_ := false
      end
    done;
    (!shipped, !remaining)
end

(* ------------------------------------------------------------------ *)
(* Reference: the Int_tbl flow decomposition                           *)
(* ------------------------------------------------------------------ *)

(* A frozen copy of [Mcmf.decompose] before the per-node adjacency
   cursor: remaining flow in an [Int_tbl], every "next arc with flow"
   query rescanning the node's adjacency list from its head. *)
let ref_decompose g =
  let n = Graph.node_count g in
  let rem = Int_tbl.create 256 in
  Graph.iter_arcs g (fun a ->
      let f = Graph.flow g a in
      if f > 0 then Int_tbl.replace rem a f);
  let rem_supply = Array.init n (fun v -> max 0 (Graph.supply g v)) in
  let rem_demand = Array.init n (fun v -> max 0 (-Graph.supply g v)) in
  let out_with_flow v =
    Graph.fold_out g v None (fun acc a ->
        match acc with
        | Some _ -> acc
        | None ->
            if Graph.is_forward a && Int_tbl.mem rem a && Int_tbl.find rem a > 0 then Some a
            else None)
  in
  let paths = ref [] in
  for source = 0 to n - 1 do
    while rem_supply.(source) > 0 && out_with_flow source <> None do
      let rec walk v acc_nodes acc_arcs bottleneck =
        if rem_demand.(v) > 0 then
          (List.rev (v :: acc_nodes), List.rev acc_arcs, min bottleneck rem_demand.(v))
        else
          match out_with_flow v with
          | None -> (List.rev (v :: acc_nodes), List.rev acc_arcs, bottleneck)
          | Some a ->
              let f = Int_tbl.find rem a in
              walk (Graph.dst g a) (v :: acc_nodes) (a :: acc_arcs) (min bottleneck f)
      in
      let nodes, arcs, bottleneck = walk source [] [] rem_supply.(source) in
      if bottleneck <= 0 || arcs = [] then rem_supply.(source) <- 0
      else begin
        List.iter
          (fun a ->
            let f = Int_tbl.find rem a - bottleneck in
            if f <= 0 then Int_tbl.remove rem a else Int_tbl.replace rem a f)
          arcs;
        let sink = List.nth nodes (List.length nodes - 1) in
        rem_supply.(source) <- rem_supply.(source) - bottleneck;
        rem_demand.(sink) <- max 0 (rem_demand.(sink) - bottleneck);
        paths := { Mcmf.nodes; amount = bottleneck } :: !paths
      end
    done
  done;
  List.rev !paths

(* ------------------------------------------------------------------ *)
(* Fast vs Classic solver                                              *)
(* ------------------------------------------------------------------ *)

(* Random balanced min-cost-flow instance.  [cost_lo] below 0 exercises
   the SPFA bootstrap. *)
let random_instance ?(sinks = 1) ?(dag = false) rng ~n ~extra_arcs ~cost_lo ~cost_hi =
  let g = Graph.create () in
  let first = Graph.add_nodes g n in
  (* A random spanning chain keeps most of the supply routable. *)
  for v = first + 1 to first + n - 1 do
    ignore
      (Graph.add_arc g ~src:(v - 1) ~dst:v
         ~cap:(Rng.int_in rng 1 10)
         ~cost:(Rng.int_in rng (max 0 cost_lo) cost_hi))
  done;
  for _ = 1 to extra_arcs do
    let a = Rng.int_in rng 0 (n - 1) and b = Rng.int_in rng 0 (n - 1) in
    if a <> b then begin
      (* When negative costs are in play, keep every arc pointing
         forward along the chain: the graph stays a DAG, so no negative
         cycle can form and the SPFA bootstrap terminates.  A DAG also
         rules out flow cycles, which decomposition rejects. *)
      let src, dst = if (dag || cost_lo < 0) && a > b then (b, a) else (a, b) in
      ignore
        (Graph.add_arc g ~src ~dst
           ~cap:(Rng.int_in rng 1 8)
           ~cost:(Rng.int_in rng cost_lo cost_hi))
    end
  done;
  let total = ref 0 in
  for _ = 1 to max 1 (n / 3) do
    let s = Rng.int_in rng 0 (n / 2) in
    let amt = Rng.int_in rng 1 4 in
    Graph.add_supply g s amt;
    total := !total + amt
  done;
  (* The demand is split over the last [sinks] nodes, the remainder on
     the last one. *)
  let sinks = max 1 (min sinks (n / 2)) in
  let share = !total / sinks in
  for i = 1 to sinks - 1 do
    Graph.add_supply g (n - 1 - i) (-share)
  done;
  Graph.add_supply g (n - 1) (-(!total - (share * (sinks - 1))));
  g

(* A fresh, unsolved copy of [g] with the same node and arc ids. *)
let clone g =
  let c = Graph.create () in
  ignore (Graph.add_nodes c (Graph.node_count g));
  Graph.iter_arcs g (fun a ->
      let a' =
        Graph.add_arc c ~src:(Graph.src g a) ~dst:(Graph.dst g a) ~cap:(Graph.capacity g a)
          ~cost:(Graph.cost g a)
      in
      assert (a' = a));
  for v = 0 to Graph.node_count g - 1 do
    Graph.set_supply c v (Graph.supply g v)
  done;
  c

let test_fast_equals_classic () =
  let rng = Rng.create 11 in
  for case = 1 to 40 do
    let cost_lo = if case mod 5 = 0 then -6 else 0 in
    let g1 = random_instance rng ~n:(5 + (case mod 20)) ~extra_arcs:(3 * case mod 50)
        ~cost_lo ~cost_hi:12 in
    let g2 = clone g1 in
    let rc = Mcmf.solve ~algo:Mcmf.Classic g1 in
    let rf = Mcmf.solve ~algo:Mcmf.Fast g2 in
    Alcotest.(check int) "same shipped" rc.Mcmf.shipped rf.Mcmf.shipped;
    Alcotest.(check int) "same objective" rc.Mcmf.total_cost rf.Mcmf.total_cost;
    Alcotest.(check int) "same unshipped" rc.Mcmf.unshipped rf.Mcmf.unshipped
  done

(* Every property below shares one scratch across instances of
   different sizes, so it also checks that a reused workspace (grown,
   stamped, never cleared) is invisible in the results. *)
let shared_scratch = Mcmf.scratch ()

let same_flows g1 g2 =
  let ok = ref true in
  Graph.iter_arcs g1 (fun a -> if Graph.flow g1 a <> Graph.flow g2 a then ok := false);
  !ok

(* [cost_hi] of 1 or 2 makes nearly every path length tie, which is
   where pop order decides the augmenting path. *)
let matches_reference ~cost_lo ~cost_hi seed =
  let rng = Rng.create seed in
  let n = Rng.int_in rng 4 40 in
  let g1 =
    random_instance rng ~sinks:(Rng.int_in rng 1 3) ~n ~extra_arcs:(Rng.int_in rng 0 (3 * n))
      ~cost_lo ~cost_hi
  in
  let g2 = clone g1 in
  let shipped, unshipped = Ref_ssp.solve g1 in
  let r = Mcmf.solve ~scratch:shared_scratch g2 in
  r.Mcmf.shipped = shipped && r.Mcmf.unshipped = unshipped && same_flows g1 g2

let prop_fast_matches_reference_ties =
  QCheck.Test.make ~name:"fast kernel = heap SSP per arc, tie-heavy" ~count:200
    QCheck.(pair (int_range 0 100_000) (int_range 1 2))
    (fun (seed, cost_hi) -> matches_reference ~cost_lo:0 ~cost_hi seed)

let prop_fast_matches_reference_negative =
  QCheck.Test.make ~name:"fast kernel = heap SSP per arc, negative-cost DAGs" ~count:200
    QCheck.(int_range 0 100_000)
    (matches_reference ~cost_lo:(-6) ~cost_hi:6)

let prop_decompose_matches_reference =
  QCheck.Test.make ~name:"decompose = Int_tbl decompose, path for path" ~count:200
    QCheck.(pair (int_range 0 100_000) (int_range 1 9))
    (fun (seed, cost_hi) ->
      let rng = Rng.create seed in
      let n = Rng.int_in rng 4 40 in
      let g =
        random_instance rng ~sinks:(Rng.int_in rng 1 3) ~dag:true ~n
          ~extra_arcs:(Rng.int_in rng 0 (3 * n)) ~cost_lo:0 ~cost_hi
      in
      ignore (Mcmf.solve g);
      let expected = ref_decompose g in
      Mcmf.decompose ~scratch:shared_scratch g = expected && Mcmf.decompose g = expected)

(* Zero-cost arcs both ways round let a min-cost flow carry a cycle.
   The reference decomposition loops forever once a walk enters one with
   no demand on it; the cursor version must fail closed instead.  Here
   the walk from node 0 reaches 1, and 1 <-> 2 carry flow with no demand
   anywhere. *)
let test_decompose_flow_cycle () =
  let g = Graph.create () in
  ignore (Graph.add_nodes g 3);
  List.iter
    (fun (src, dst) -> Graph.push g (Graph.add_arc g ~src ~dst ~cap:1 ~cost:0) 1)
    [ (0, 1); (1, 2); (2, 1) ];
  Graph.set_supply g 0 1;
  match Mcmf.decompose g with
  | _ -> Alcotest.fail "a walk around a flow cycle must be rejected"
  | exception Invalid_argument _ -> ()

(* The packed heap key is [dist lsl node_bits lor node]; a distance that
   does not fit must raise rather than wrap into a wrong pop order.  With
   8 nodes (ids 0..7, node_bits 3) the largest pushable distance is
   2^59 - 1. *)
let test_packed_key_overflow () =
  let two_node_path cost =
    let g = Graph.create () in
    ignore (Graph.add_nodes g 8);
    ignore (Graph.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost);
    Graph.set_supply g 0 1;
    Graph.set_supply g 1 (-1);
    g
  in
  let limit = 1 lsl 59 in
  let r = Mcmf.solve (two_node_path (limit - 1)) in
  Alcotest.(check int) "largest fitting distance ships" 1 r.Mcmf.shipped;
  Alcotest.(check int) "its cost" (limit - 1) r.Mcmf.total_cost;
  match Mcmf.solve (two_node_path limit) with
  | _ -> Alcotest.fail "a distance of 2^59 with 8 nodes must be rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Touched-arc flow reset                                              *)
(* ------------------------------------------------------------------ *)

let test_reset_touched_exact () =
  let rng = Rng.create 31 in
  for case = 1 to 15 do
    let g = random_instance rng ~n:(5 + case) ~extra_arcs:(2 * case) ~cost_lo:0 ~cost_hi:7 in
    Graph.set_flow_tracking g true;
    ignore (Mcmf.solve g);
    (* A second solve on the already-consumed residual network dirties
       more pairs (including reverse pushes); the record must dedupe and
       still restore everything. *)
    ignore (Mcmf.solve g);
    let restored = Graph.reset_touched_flows g in
    Alcotest.(check bool) "restored some pairs" true (restored >= 0);
    Graph.iter_arcs g (fun a ->
        Alcotest.(check int) "flow zero" 0 (Graph.flow g a);
        Alcotest.(check int) "residual = capacity" (Graph.capacity g a)
          (Graph.residual_cap g a))
  done;
  (* corrupt_flow is also a tracked mutation: an injected solver.flip on the
     persistent graph must not survive the reset. *)
  let g = random_instance (Rng.create 5) ~n:6 ~extra_arcs:6 ~cost_lo:0 ~cost_hi:5 in
  Graph.set_flow_tracking g true;
  let some_arc = ref (-1) in
  Graph.iter_arcs g (fun a -> if !some_arc < 0 then some_arc := a);
  Graph.corrupt_flow g !some_arc 3;
  ignore (Graph.reset_touched_flows g);
  Alcotest.(check int) "corruption undone" 0 (Graph.flow g !some_arc);
  (* Tracking off -> the call falls back to the full sweep. *)
  Graph.set_flow_tracking g false;
  ignore (Mcmf.solve g);
  let swept = Graph.reset_touched_flows g in
  Alcotest.(check int) "fallback sweeps the arena" (Graph.arc_count g) swept

let test_spec_blob_roundtrip () =
  let base = Harness.Experiment.default in
  List.iter
    (fun spec ->
      let back = Harness.Experiment.spec_of_blob (Harness.Experiment.spec_to_blob spec) in
      Alcotest.(check bool) "spec round-trips" true (back = spec))
    [ base; { base with incremental = false } ]

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "reopt"
    [
      ( "solver",
        [
          Alcotest.test_case "fast equals classic" `Quick test_fast_equals_classic;
          Alcotest.test_case "packed key overflow rejected" `Quick test_packed_key_overflow;
        ]
        @ qt [ prop_fast_matches_reference_ties; prop_fast_matches_reference_negative ] );
      ( "decompose",
        Alcotest.test_case "flow cycle rejected" `Quick test_decompose_flow_cycle
        :: qt [ prop_decompose_matches_reference ] );
      ( "graph",
        [ Alcotest.test_case "touched reset exact" `Quick test_reset_touched_exact ] );
      ( "end-to-end",
        [ Alcotest.test_case "spec blob round-trip" `Quick test_spec_blob_roundtrip ] );
    ]
