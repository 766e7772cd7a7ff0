(* Tests for the re-optimizing solve path (docs/PERFORMANCE.md): the
   monotone bucket queue's exact pop-order equivalence with the binary
   heap (tie-heavy and word-boundary keys included), Fast-vs-Classic
   solver agreement, and touched-arc flow-reset exactness.  The
   end-to-end property that the persistent builder (with its sparse
   flow resets) matches a full rebuild lives in test_incremental. *)

module Graph = Flow.Graph
module Mcmf = Flow.Mcmf
module Heap = Prelude.Heap
module Bucket_queue = Prelude.Bucket_queue
module Rng = Prelude.Rng

(* ------------------------------------------------------------------ *)
(* Bucket queue vs binary heap                                         *)
(* ------------------------------------------------------------------ *)

let drain_heap h =
  let acc = ref [] in
  while not (Heap.Int_pair.is_empty h) do
    let k = Heap.Int_pair.min_key h in
    let v = Heap.Int_pair.pop h in
    acc := (k, v) :: !acc
  done;
  List.rev !acc

let drain_bucket q =
  let acc = ref [] in
  while not (Bucket_queue.is_empty q) do
    let k = Bucket_queue.min_key q in
    let v = Bucket_queue.pop q in
    acc := (k, v) :: !acc
  done;
  List.rev !acc

let test_pop_order_equivalence () =
  let rng = Rng.create 42 in
  let h = Heap.Int_pair.create () in
  let q = Bucket_queue.create () in
  for round = 1 to 20 do
    Heap.Int_pair.clear h;
    Bucket_queue.clear q;
    let n = 50 + (round * 37) in
    (* Tiny key range -> massive ties; distinct values so the expected
       lexicographic order is unambiguous. *)
    let key_range = if round mod 2 = 0 then 8 else 300 in
    let entries =
      List.init n (fun v -> (Rng.int_in rng 0 (key_range - 1), (v * 7919) mod 100003))
    in
    List.iter
      (fun (k, v) ->
        Heap.Int_pair.push h k v;
        Bucket_queue.push q k v)
      entries;
    let from_heap = drain_heap h in
    let from_bucket = drain_bucket q in
    let expected =
      List.sort
        (fun (k1, v1) (k2, v2) ->
          if k1 <> k2 then Int.compare k1 k2 else Int.compare v1 v2)
        entries
    in
    Alcotest.(check bool) "heap pops canonical order" true (from_heap = expected);
    Alcotest.(check bool) "bucket pops canonical order" true (from_bucket = expected)
  done

(* Regression for the occupancy bitset: keys on and across the 32-bit
   word boundaries must neither vanish nor reorder. *)
let test_word_boundary_keys () =
  let q = Bucket_queue.create () in
  let keys = [ 0; 30; 31; 32; 33; 62; 63; 64; 65; 95; 96; 127; 128; 1000 ] in
  List.iteri (fun i k -> Bucket_queue.push q k i) keys;
  Alcotest.(check int) "size counts all pushes" (List.length keys) (Bucket_queue.size q);
  let drained = drain_bucket q in
  let expected = List.sort compare (List.mapi (fun i k -> (k, i)) keys) in
  Alcotest.(check bool) "word-boundary keys pop in order" true (drained = expected)

(* Dijkstra-shaped interleaving: pops are monotone and pushes land at or
   above the current front, across several generations of [clear]. *)
let test_monotone_interleaving () =
  let rng = Rng.create 7 in
  let h = Heap.Int_pair.create () in
  let q = Bucket_queue.create () in
  for _gen = 1 to 5 do
    Heap.Int_pair.clear h;
    Bucket_queue.clear q;
    for v = 0 to 9 do
      Heap.Int_pair.push h 0 v;
      Bucket_queue.push q 0 v
    done;
    let steps = ref 400 in
    while (not (Heap.Int_pair.is_empty h)) && !steps > 0 do
      decr steps;
      let hk = Heap.Int_pair.min_key h in
      let qk = Bucket_queue.min_key q in
      Alcotest.(check int) "same min key" hk qk;
      let hv = Heap.Int_pair.pop h in
      let qv = Bucket_queue.pop q in
      Alcotest.(check int) "same popped value" hv qv;
      (* Relax: push a few successors at key >= the popped key. *)
      if Rng.bernoulli rng 0.6 then
        for _ = 1 to Rng.int_in rng 1 3 do
          let nk = hk + Rng.int_in rng 0 40 in
          let nv = Rng.int_in rng 0 100000 in
          Heap.Int_pair.push h nk nv;
          Bucket_queue.push q nk nv
        done
    done;
    Alcotest.(check bool) "drained together" (Heap.Int_pair.is_empty h)
      (Bucket_queue.is_empty q)
  done

let test_push_below_front_rejected () =
  let q = Bucket_queue.create () in
  Bucket_queue.push q 5 1;
  ignore (Bucket_queue.pop q);
  Bucket_queue.push q 9 2;
  ignore (Bucket_queue.min_key q);
  (* front is now 9; pushing behind it violates monotonicity *)
  Alcotest.check_raises "push below front"
    (Invalid_argument "Bucket_queue.push: key 3 below monotone front 9") (fun () ->
      Bucket_queue.push q 3 7)

(* ------------------------------------------------------------------ *)
(* Fast vs Classic solver                                              *)
(* ------------------------------------------------------------------ *)

(* Random balanced min-cost-flow instance.  [cost_lo] below 0 exercises
   the SPFA bootstrap (and disables the bucket queue). *)
let random_instance rng ~n ~extra_arcs ~cost_lo ~cost_hi =
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
         cycle can form and the SPFA bootstrap terminates. *)
      let src, dst = if cost_lo < 0 && a > b then (b, a) else (a, b) in
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
  Graph.add_supply g (n - 1) (- !total);
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

(* The bucket queue is auto-selected on small costs; adding one dead
   (zero-capacity) very expensive arc pushes the cost envelope past the
   selection bound and forces the binary heap, without affecting any
   routable path.  The two solves must agree flow-for-flow — queue
   selection is invisible, not just objective-preserving. *)
let test_bucket_heap_flows_identical () =
  let rng = Rng.create 23 in
  for case = 1 to 25 do
    let g_bucket =
      random_instance rng ~n:(6 + (case mod 12)) ~extra_arcs:(2 * case mod 30)
        ~cost_lo:0 ~cost_hi:9
    in
    let g_heap = clone g_bucket in
    let dead =
      Graph.add_arc g_heap ~src:0 ~dst:(Graph.node_count g_heap - 1) ~cap:0
        ~cost:(1 lsl 20)
    in
    ignore dead;
    Alcotest.(check bool) "envelope raised" true (Graph.cost_ub g_heap > 1 lsl 16);
    let rb = Mcmf.solve g_bucket in
    let rh = Mcmf.solve g_heap in
    Alcotest.(check int) "same shipped" rh.Mcmf.shipped rb.Mcmf.shipped;
    Alcotest.(check int) "same objective" rh.Mcmf.total_cost rb.Mcmf.total_cost;
    Graph.iter_arcs g_bucket (fun a ->
        Alcotest.(check int) "same per-arc flow" (Graph.flow g_heap a) (Graph.flow g_bucket a))
  done

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
  Alcotest.run "reopt"
    [
      ( "bucket-queue",
        [
          Alcotest.test_case "pop order equals binary heap" `Quick
            test_pop_order_equivalence;
          Alcotest.test_case "word-boundary keys" `Quick test_word_boundary_keys;
          Alcotest.test_case "monotone interleaving" `Quick test_monotone_interleaving;
          Alcotest.test_case "push below front rejected" `Quick
            test_push_below_front_rejected;
        ] );
      ( "solver",
        [
          Alcotest.test_case "fast equals classic" `Quick test_fast_equals_classic;
          Alcotest.test_case "bucket and heap flows identical" `Quick
            test_bucket_heap_flows_identical;
        ] );
      ( "graph",
        [ Alcotest.test_case "touched reset exact" `Quick test_reset_touched_exact ] );
      ( "end-to-end",
        [ Alcotest.test_case "spec blob round-trip" `Quick test_spec_blob_roundtrip ] );
    ]
