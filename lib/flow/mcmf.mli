(** Min-cost max-flow solver: successive shortest augmenting paths with
    Johnson node potentials.

    The solver routes as much of the positive supply as possible to the
    negative-supply (demand) nodes at minimum total cost.  When the
    instance is infeasible (demand unreachable), the remaining supply is
    simply left unshipped and reported in the result — this matches how
    flow-based schedulers use the solver (an "unscheduled" node normally
    guarantees feasibility).

    Note that this graceful-degradation semantics of [unshipped] is
    specific to this backend.  The cost-scaling backend
    ({!Cost_scaling}) is an exact method that requires a feasible
    instance; it routes stranded supply over artificial
    maximum-penalty arcs, and {!Flow_network.solve_and_extract} maps
    that artificial flow back to a nonzero [unshipped] count here.
    Equal [unshipped] values therefore mean the same thing across
    backends, but only cost-scaling pays the artificial-arc cost in
    [total_cost].

    Negative arc costs are supported: one Bellman–Ford (SPFA) pass
    bootstraps the potentials, after which Dijkstra on reduced costs runs
    each augmentation.  Complexity is O(F · m log n) where F is total
    shipped flow — the same family as Quincy/Firmament's scheduling use. *)

type result = {
  shipped : int;  (** units of supply actually routed to demands *)
  unshipped : int;  (** supply that could not reach any demand *)
  total_cost : int;  (** cost of the final flow *)
  augmentations : int;  (** number of augmenting paths used *)
  elapsed_s : float;  (** monotonic wall-clock solve time ({!Prelude.Clock}) *)
  degraded : bool;
      (** the solve was stopped by its {!Budget} (or a forced
          exhaustion) before completing.  The flow left on the graph is
          still a valid min-cost flow for its (partial) value — every
          SSP prefix is — and passes {!Verify.check}; [unshipped] counts
          what the budget left behind. *)
  profile : Obs.Solver_profile.t;
      (** structured solve profile; per-stage timings are populated only
          when [Obs.enabled ()] held during the solve *)
}

(** Reusable solver workspace: excess/potential/distance/parent arrays,
    the Dijkstra heap, and {!decompose}'s cursor, demand and
    remaining-flow arrays.  Pass the same scratch to successive [solve]
    and [decompose] calls on similarly-sized graphs and neither allocates
    on the hot path after the first round (beyond [decompose]'s result
    list).  Reusing scratch never changes results — the workspace is
    (re)initialised at every call. *)
type scratch

val scratch : unit -> scratch

(** Which SSP implementation to run.  Both are exact (same shipped flow
    and total cost); they may break ties between equally-cheap augmenting
    paths differently, so outcomes are reproducible per algorithm but
    not across algorithms — pick one per run.

    [Fast] (the default) terminates each Dijkstra at the first settled
    deficit node, invalidates its distance/parent arrays in O(1) with
    generation stamps, and updates only the settled nodes' potentials.
    Its queue is a binary min-heap of packed ints
    [dist lsl node_bits lor node], where [node_bits] is the bit width of
    the largest node id ([node_count - 1]); integer order on these keys
    is the canonical (distance, node) order.  Its arc loop reads the
    graph's arrays ({!Graph.arrays}) directly.

    Precondition of [Fast]: every tentative distance pushed on the heap
    satisfies [0 <= dist < 2^(62 - node_bits)].  Distances are sums of
    reduced arc costs along a path, so this bounds the costs.  HIRE's
    distances stay below [2^14] on the benchmark workloads (its scaled
    arc costs top out at the [6 * cost_scale] sentinel), far inside the
    bound.  A push that breaks it raises [Invalid_argument] instead of
    silently mis-ordering the heap.

    [Classic] is the historical full-settle implementation on
    {!Prelude.Heap.Int_pair}, retained as test_reopt's Fast==Classic
    oracle and the measured baseline of bench_reopt
    (docs/PERFORMANCE.md). *)
type algo = Classic | Fast

(** [solve ?budget ?scratch ?algo g] computes a min-cost max-flow
    on [g], mutating arc flows in place.  Supplies/demands are read from
    the graph's node supplies.  [budget] bounds the solve (checked
    before every augmentation); without one the solve runs to
    completion and [degraded] is always [false] — and no failpoint
    touches the solve.

    [scratch] provides a reusable workspace (exact; see {!scratch}).

    [algo] (default [Fast]) selects the implementation; see {!algo}. *)
val solve :
  ?budget:Budget.t ->
  ?scratch:scratch ->
  ?algo:algo ->
  Graph.t ->
  result

(** A single decomposed flow path: node sequence from a supply node to a
    demand node, and the amount carried. *)
type path = { nodes : int list; amount : int }

(** [decompose ?scratch g] decomposes the current flow of [g] into
    source-to-sink paths.  Paths come out in a fixed order: sources by
    node id, and at each node the first arc in adjacency order that still
    carries undecomposed flow.  Cycles cannot occur in a min-cost
    solution with non-negative reduced costs; flow on a cycle that no
    walk enters is ignored.  The graph's flow is not modified.

    [scratch] provides the reusable workspace (see {!scratch}); without
    it, [decompose] allocates a fresh one.
    @raise Invalid_argument if a walk enters a flow cycle. *)
val decompose : ?scratch:scratch -> Graph.t -> path list
