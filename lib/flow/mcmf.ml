module Heap = Prelude.Heap
module Clock = Prelude.Clock

type result = {
  shipped : int;
  unshipped : int;
  total_cost : int;
  augmentations : int;
  elapsed_s : float;
  degraded : bool;
  profile : Obs.Solver_profile.t;
}

(* [Fast] is the production path: early-terminating Dijkstra on a
   packed-key heap over the graph's arrays, generation-stamped arrays
   and settled-only potential updates.  [Classic] is the historical
   full-settle implementation, kept as test_reopt's oracle and the
   measured baseline of bench_reopt (docs/PERFORMANCE.md); both are
   exact and produce min-cost flows, but they may break ties between
   equally-cheap paths differently, so a run must use one algorithm
   throughout. *)
type algo = Classic | Fast

let infinity_dist = max_int / 4

(* Reusable solver workspace.  Arrays are grown (never shrunk) to the
   instance size, so a scheduler that solves a similarly-sized network
   every round allocates nothing on the hot path after warm-up.

   [dist]/[parent] entries are valid only where [stamp] holds the
   current [gen] — bumping [gen] invalidates both arrays in O(1),
   replacing the per-Dijkstra O(n) fills of the classic path.  The
   [dec_*] arrays are [decompose]'s, stamped the same way by
   [dec_gen]. *)
type scratch = {
  mutable excess : int array;
  mutable pot : int array;
  mutable dist : int array;
  mutable parent : int array;
  mutable stamp : int array;
  mutable gen : int;
  mutable settled : int array;  (* nodes settled by the current Dijkstra *)
  mutable n_settled : int;
  mutable sources : int array;  (* compact positive-excess node list *)
  mutable n_sources : int;
  mutable heap : int array;  (* packed-key binary min-heap, see [heap_push] *)
  mutable heap_len : int;
  mutable node_bits : int;
  mutable max_key_dist : int;
  classic_heap : Heap.Int_pair.t;
  mutable dec_cursor : int array;  (* next unexamined residual arc per node *)
  mutable dec_demand : int array;  (* demand not yet met by a decomposed path *)
  mutable dec_rem : int array;  (* flow not yet decomposed, per arc pair *)
  mutable dec_stamp : int array;  (* pair -> [dec_gen] once [dec_rem] is loaded *)
  mutable dec_gen : int;
  mutable dec_nodes : int array;  (* the current walk's nodes, sink excluded *)
  mutable dec_arcs : int array;  (* the current walk's arcs *)
}

let scratch () =
  {
    excess = [||];
    pot = [||];
    dist = [||];
    parent = [||];
    stamp = [||];
    gen = 0;
    settled = [||];
    n_settled = 0;
    sources = [||];
    n_sources = 0;
    heap = [||];
    heap_len = 0;
    node_bits = 0;
    max_key_dist = 0;
    classic_heap = Heap.Int_pair.create ();
    dec_cursor = [||];
    dec_demand = [||];
    dec_rem = [||];
    dec_stamp = [||];
    dec_gen = 0;
    dec_nodes = [||];
    dec_arcs = [||];
  }

let ensure_scratch s n =
  if Array.length s.excess < n then begin
    let cap = max n (2 * Array.length s.excess) in
    s.excess <- Array.make cap 0;
    s.pot <- Array.make cap 0;
    s.dist <- Array.make cap 0;
    s.parent <- Array.make cap 0;
    s.stamp <- Array.make cap 0;
    s.settled <- Array.make cap 0;
    s.sources <- Array.make cap 0;
    (* Fresh stamps read as stale for any positive generation. *)
    s.gen <- max 1 s.gen
  end

(* ------------------------------------------------------------------ *)
(* Packed-key binary heap                                              *)
(* ------------------------------------------------------------------ *)

(* Entries are single ints [dist lsl node_bits lor node].  With [node]
   below [2^node_bits] and [dist] at most [max_key_dist], integer order
   on the packed keys is exactly the lexicographic (dist, node) order in
   which [Heap.Int_pair] pops, so both queues settle nodes in the same
   canonical sequence.  There is no decrease-key: Dijkstra pushes one
   entry per improvement and skips stale ones at pop time. *)
let set_key_width s n =
  let bits = ref 0 in
  while 1 lsl !bits < n do
    incr bits
  done;
  s.node_bits <- !bits;
  s.max_key_dist <- (1 lsl (62 - !bits)) - 1

let heap_push s d v =
  if d < 0 || d > s.max_key_dist then
    invalid_arg
      (Printf.sprintf "Mcmf.solve: distance %d does not fit a heap key beside %d node bits" d
         s.node_bits);
  let key = (d lsl s.node_bits) lor v in
  let len = s.heap_len in
  if len = Array.length s.heap then begin
    let grown = Array.make (max 64 (2 * len)) 0 in
    Array.blit s.heap 0 grown 0 len;
    s.heap <- grown
  end;
  let h = s.heap in
  let i = ref len in
  while !i > 0 && h.((!i - 1) lsr 1) > key do
    let p = (!i - 1) lsr 1 in
    h.(!i) <- h.(p);
    i := p
  done;
  h.(!i) <- key;
  s.heap_len <- len + 1

(* Removes and returns the minimum packed key; the heap is non-empty. *)
let heap_pop s =
  let h = s.heap in
  let top = h.(0) in
  let len = s.heap_len - 1 in
  s.heap_len <- len;
  if len > 0 then begin
    let last = h.(len) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= len then sifting := false
      else begin
        let c = if l + 1 < len && h.(l + 1) < h.(l) then l + 1 else l in
        if h.(c) < last then begin
          h.(!i) <- h.(c);
          i := c
        end
        else sifting := false
      end
    done;
    h.(!i) <- last
  end;
  top

(* SPFA (queue-based Bellman–Ford) from every positive-excess node; used
   only to bootstrap potentials when negative arc costs are present. *)
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
        end);
  done;
  dist

(* ------------------------------------------------------------------ *)
(* Classic full-settle Dijkstra (baseline algorithm)                   *)
(* ------------------------------------------------------------------ *)

(* Multi-source Dijkstra on reduced costs.  Fills [dist]/[parent];
   parent.(v) is the residual arc used to reach v, or -1.  Settles the
   whole reachable graph before the caller scans for the nearest
   deficit. *)
let dijkstra_classic g excess pot dist parent heap =
  let n = Graph.node_count g in
  Array.fill dist 0 n infinity_dist;
  Array.fill parent 0 n (-1);
  Heap.Int_pair.clear heap;
  for v = 0 to n - 1 do
    if excess.(v) > 0 then begin
      dist.(v) <- 0;
      Heap.Int_pair.push heap 0 v
    end
  done;
  while not (Heap.Int_pair.is_empty heap) do
    let d = Heap.Int_pair.min_key heap in
    let v = Heap.Int_pair.pop heap in
    (* Stale entries — superseded by a later relaxation of [v] — carry
       a key strictly above dist.(v) and are skipped without expansion.
       No decrease-key exists (or is needed): Heap.Int_pair simply
       accumulates one entry per improvement. *)
    if d = dist.(v) then
      Graph.iter_out g v (fun a ->
          if Graph.residual_cap g a > 0 then begin
            let u = Graph.dst g a in
            let rc = Graph.cost g a + pot.(v) - pot.(u) in
            (* Reduced costs are non-negative once potentials are valid;
               clamp tiny negatives caused by unreachable-node potential
               staleness. *)
            let rc = if rc < 0 then 0 else rc in
            let nd = d + rc in
            if nd < dist.(u) then begin
              dist.(u) <- nd;
              parent.(u) <- a;
              Heap.Int_pair.push heap nd u
            end
          end)
  done

(* ------------------------------------------------------------------ *)
(* Fast early-terminating Dijkstra                                     *)
(* ------------------------------------------------------------------ *)

(* Drop positive-excess nodes that have been drained since the last
   Dijkstra; the surviving order is irrelevant because the heap pops
   sources in canonical (0, node) order regardless of push order. *)
let compact_sources s =
  let i = ref 0 in
  while !i < s.n_sources do
    let v = s.sources.(!i) in
    if s.excess.(v) > 0 then incr i
    else begin
      s.n_sources <- s.n_sources - 1;
      s.sources.(!i) <- s.sources.(s.n_sources)
    end
  done

(* One Dijkstra pass that stops at the first settled deficit node and
   returns it (-1 when no deficit is reachable).  Because settling
   follows the canonical (dist, node) order, the returned target is
   exactly the minimum-(dist, node) reachable deficit — the same node
   the classic path picks with its post-settle O(n) scan — and the
   parent chain above it is final at that point.  [dist]/[parent] are
   stamped with [s.gen]; everything else in them is garbage.  The arc
   loop reads the graph's arrays [ga] directly. *)
let dijkstra_fast (ga : Graph.arrays) s =
  let excess = s.excess and pot = s.pot and dist = s.dist in
  let parent = s.parent and stamp = s.stamp in
  let head = ga.head and next = ga.next and dst = ga.dst in
  let cap = ga.cap and cost = ga.cost in
  let gen = s.gen and bits = s.node_bits in
  let mask = (1 lsl bits) - 1 in
  s.heap_len <- 0;
  s.n_settled <- 0;
  compact_sources s;
  for i = 0 to s.n_sources - 1 do
    let v = s.sources.(i) in
    dist.(v) <- 0;
    parent.(v) <- -1;
    stamp.(v) <- gen;
    heap_push s 0 v
  done;
  let target = ref (-1) in
  while !target < 0 && s.heap_len > 0 do
    let key = heap_pop s in
    let d = key lsr bits and v = key land mask in
    (* Stale-entry skip: a pop whose key exceeds the node's current
       distance was superseded by a later push (no decrease-key). *)
    if d = dist.(v) && stamp.(v) = gen then begin
      s.settled.(s.n_settled) <- v;
      s.n_settled <- s.n_settled + 1;
      if excess.(v) < 0 then target := v
      else begin
        let pot_v = pot.(v) in
        let a = ref head.(v) in
        while !a >= 0 do
          let arc = !a in
          if cap.(arc) > 0 then begin
            let u = dst.(arc) in
            (* Reduced costs are non-negative once potentials are
               valid; clamp the negatives that unreached nodes' stale
               potentials can produce. *)
            let rc = cost.(arc) + pot_v - pot.(u) in
            let nd = if rc < 0 then d else d + rc in
            if nd < (if stamp.(u) = gen then dist.(u) else infinity_dist) then begin
              dist.(u) <- nd;
              parent.(u) <- arc;
              stamp.(u) <- gen;
              heap_push s nd u
            end
          end;
          a := next.(arc)
        done
      end
    end
  done;
  !target

let solve ?budget ?scratch:s ?(algo = Fast) g =
  let t0 = Clock.now () in
  (* Only a budgeted solve starts a budget, and so evaluates the solver
     failpoints: an unbudgeted caller has no degraded path to absorb
     them. *)
  let bstate = Option.map Budget.start budget in
  let instrument = Obs.enabled () in
  let t_spfa = ref 0.0 and t_dijkstra = ref 0.0 and t_augment = ref 0.0 in
  let staged acc f =
    if instrument then begin
      let s0 = Clock.now () in
      let r = f () in
      acc := !acc +. (Clock.now () -. s0);
      r
    end
    else f ()
  in
  let n = Graph.node_count g in
  let s, scratch_reused =
    match s with
    | Some s ->
        let reused = Array.length s.excess >= n in
        ensure_scratch s n;
        (s, reused)
    | None ->
        let s = scratch () in
        ensure_scratch s n;
        (s, false)
  in
  let excess = s.excess and pot = s.pot and dist = s.dist and parent = s.parent in
  (* Fetched once: nothing in a solve adds nodes or arcs. *)
  let ga = Graph.arrays g in
  Array.blit ga.supply 0 excess 0 n;
  (* Potentials start from zero and are bootstrapped with SPFA only if
     the graph actually has a negative-cost arc (tracked by the graph,
     no O(m) rescan here). *)
  Array.fill pot 0 n 0;
  if Graph.has_negative_cost g then begin
    let bf = staged t_spfa (fun () -> spfa g excess) in
    for v = 0 to n - 1 do
      if bf.(v) < infinity_dist then pot.(v) <- bf.(v)
    done
  end;
  if instrument && scratch_reused then
    Obs.Registry.incr (Obs.Registry.counter "flow.scratch_reuse");
  let shipped = ref 0 in
  let augmentations = ref 0 in
  let exhausted = ref None in
  let within_budget () =
    match bstate with
    | None -> true
    | Some st -> (
        match Budget.check st with
        | None -> true
        | Some reason ->
            exhausted := Some reason;
            false)
  in
  (* Residual positive supply, maintained incrementally (the classic
     path rescans instead). *)
  let remaining = ref 0 in
  s.n_sources <- 0;
  for v = 0 to n - 1 do
    if excess.(v) > 0 then begin
      remaining := !remaining + excess.(v);
      s.sources.(s.n_sources) <- v;
      s.n_sources <- s.n_sources + 1
    end
  done;
  let continue_ = ref (!remaining > 0) in
  (match algo with
  | Fast ->
      set_key_width s n;
      while !continue_ do
        (* Budget checked at augmentation boundaries: an SSP prefix is a
           valid min-cost flow for its value, so stopping here leaves a
           salvageable partial solution on the graph. *)
        if not (within_budget ()) then continue_ := false
        else begin
          s.gen <- s.gen + 1;
          let target =
            staged t_dijkstra (fun () -> dijkstra_fast ga s)
          in
          if target < 0 then continue_ := false
          else
            staged t_augment (fun () ->
                let d_target = dist.(target) in
                (* Bottleneck along the path back to whichever source
                   started it; every node on it is settled, so the
                   parent chain is final. *)
                let bottleneck = ref (-excess.(target)) in
                let v = ref target in
                while parent.(!v) >= 0 do
                  let a = parent.(!v) in
                  if Graph.residual_cap g a < !bottleneck then
                    bottleneck := Graph.residual_cap g a;
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
                incr augmentations;
                (match bstate with Some st -> Budget.spend st 1 | None -> ());
                (* Settled-only Johnson update: π(u) += dist(u) − D
                   keeps every residual reduced cost non-negative
                   (settled→settled arcs are unchanged relative shifts;
                   settled→unsettled arcs gain dist(u) − D ≥ dist(w) − D
                   ≥ 0 slack from the relaxation at u's settle time;
                   unsettled→settled arcs gain D − dist(w) ≥ 0), while
                   leaving unreached potentials untouched. *)
                for i = 0 to s.n_settled - 1 do
                  let u = s.settled.(i) in
                  pot.(u) <- pot.(u) + dist.(u) - d_target
                done;
                if !remaining = 0 then continue_ := false)
        end
      done
  | Classic ->
      let remaining_supply () =
        let acc = ref 0 in
        for v = 0 to n - 1 do
          if excess.(v) > 0 then acc := !acc + excess.(v)
        done;
        !acc
      in
      while !continue_ do
        if not (within_budget ()) then continue_ := false
        else begin
          staged t_dijkstra (fun () -> dijkstra_classic g excess pot dist parent s.classic_heap);
          (* Nearest reachable deficit node. *)
          let best = ref (-1) in
          for v = 0 to n - 1 do
            if excess.(v) < 0 && dist.(v) < infinity_dist then
              if !best < 0 || dist.(v) < dist.(!best) then best := v
          done;
          match !best with
          | -1 -> continue_ := false
          | target ->
              staged t_augment (fun () ->
                  let bottleneck = ref (-excess.(target)) in
                  let v = ref target in
                  while parent.(!v) >= 0 do
                    let a = parent.(!v) in
                    if Graph.residual_cap g a < !bottleneck then
                      bottleneck := Graph.residual_cap g a;
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
                  incr augmentations;
                  (match bstate with Some st -> Budget.spend st 1 | None -> ());
                  (* Johnson potential update keeps reduced costs
                     non-negative. *)
                  for u = 0 to n - 1 do
                    if dist.(u) < infinity_dist then pot.(u) <- pot.(u) + dist.(u)
                  done;
                  if remaining_supply () = 0 then continue_ := false)
        end
      done);
  let degraded = !exhausted <> None in
  if degraded && instrument then begin
    Obs.Registry.incr (Obs.Registry.counter "flow.budget_exhausted");
    Obs.Trace.emit "solver_degraded"
      [
        ("solver", Obs.Trace.Str "ssp");
        ( "reason",
          Obs.Trace.Str (Format.asprintf "%a" Budget.pp_reason (Option.get !exhausted)) );
        ("shipped", Obs.Trace.Int !shipped);
      ]
  end;
  let elapsed_s = Clock.now () -. t0 in
  let profile =
    {
      (Obs.Solver_profile.zero ~solver:"ssp") with
      nodes = n;
      arcs = Graph.arc_count g;
      augmentations = !augmentations;
      scratch_reused;
      stages =
        (if instrument then
           [ ("spfa", !t_spfa); ("dijkstra", !t_dijkstra); ("augment", !t_augment) ]
         else []);
      wall_s = elapsed_s;
    }
  in
  if instrument then Obs.Solver_profile.emit profile;
  {
    shipped = !shipped;
    unshipped = !remaining;
    total_cost = Graph.flow_cost g;
    augmentations = !augmentations;
    elapsed_s;
    degraded;
    profile;
  }

type path = { nodes : int list; amount : int }

let ensure_decompose s ~nodes ~pairs =
  if Array.length s.dec_cursor < nodes then begin
    let cap = max nodes (2 * Array.length s.dec_cursor) in
    s.dec_cursor <- Array.make cap 0;
    s.dec_demand <- Array.make cap 0;
    s.dec_nodes <- Array.make cap 0;
    s.dec_arcs <- Array.make cap 0
  end;
  if Array.length s.dec_rem < pairs then begin
    let cap = max pairs (2 * Array.length s.dec_rem) in
    s.dec_rem <- Array.make cap 0;
    (* Zero stamps read as stale: [dec_gen] is positive once bumped. *)
    s.dec_stamp <- Array.make cap 0
  end

(* Peels paths off in a fixed order: sources by id, and out of each node
   the first forward arc (in adjacency order) with flow left.  Remaining
   flow only decreases, so an arc passed over once is never eligible
   again, and each node keeps a cursor into its adjacency list instead
   of rescanning it from the head.  Remaining flow is loaded per arc
   pair on first read (stamped with [dec_gen]), so the setup is O(n),
   not O(arcs). *)
let decompose ?scratch:s g =
  let s = match s with Some s -> s | None -> scratch () in
  let n = Graph.node_count g in
  ensure_decompose s ~nodes:n ~pairs:(Graph.arc_count g);
  s.dec_gen <- s.dec_gen + 1;
  let gen = s.dec_gen in
  let cursor = s.dec_cursor and demand = s.dec_demand in
  let rem = s.dec_rem and rem_stamp = s.dec_stamp in
  let walk_nodes = s.dec_nodes and walk_arcs = s.dec_arcs in
  let ga = Graph.arrays g in
  let next = ga.next and dst = ga.dst and supply = ga.supply in
  for v = 0 to n - 1 do
    cursor.(v) <- ga.head.(v);
    demand.(v) <- (if supply.(v) < 0 then -supply.(v) else 0)
  done;
  let remaining a =
    let p = a lsr 1 in
    if rem_stamp.(p) = gen then rem.(p)
    else begin
      let f = Int.max 0 (Graph.flow g a) in
      rem.(p) <- f;
      rem_stamp.(p) <- gen;
      f
    end
  in
  let rec out_with_flow v =
    let a = cursor.(v) in
    if a < 0 then -1
    else if a land 1 = 0 (* forward *) && remaining a > 0 then a
    else begin
      cursor.(v) <- next.(a);
      out_with_flow v
    end
  in
  let paths = ref [] in
  for source = 0 to n - 1 do
    let left = ref (Int.max 0 supply.(source)) in
    while !left > 0 && out_with_flow source >= 0 do
      (* Walk positive-flow arcs until a node with remaining demand, or
         one with no flow left out of it, collecting the bottleneck.
         Nothing changes during a walk, so a walk that revisits a node
         would circle forever: more than [n - 1] arcs means a flow
         cycle. *)
      let len = ref 0 and v = ref source and bottleneck = ref !left in
      let walking = ref true in
      while !walking do
        if demand.(!v) > 0 then begin
          bottleneck := Int.min !bottleneck demand.(!v);
          walking := false
        end
        else begin
          let a = out_with_flow !v in
          if a < 0 then walking := false
          else begin
            if !len >= n then invalid_arg "Mcmf.decompose: the flow has a cycle";
            walk_nodes.(!len) <- !v;
            walk_arcs.(!len) <- a;
            incr len;
            bottleneck := Int.min !bottleneck (remaining a);
            v := dst.(a)
          end
        end
      done;
      if !bottleneck <= 0 || !len = 0 then left := 0 (* degenerate; stop *)
      else begin
        let amount = !bottleneck and sink = !v in
        for i = 0 to !len - 1 do
          let p = walk_arcs.(i) lsr 1 in
          rem.(p) <- rem.(p) - amount
        done;
        left := !left - amount;
        demand.(sink) <- Int.max 0 (demand.(sink) - amount);
        let nodes = ref [ sink ] in
        for i = !len - 1 downto 0 do
          nodes := walk_nodes.(i) :: !nodes
        done;
        paths := { nodes = !nodes; amount } :: !paths
      end
    done
  done;
  List.rev !paths
