(** Independent checks of a solved flow, used by the test suite
    ([test/test_flow.ml] runs them after every solver test and in the
    SSP-vs-cost-scaling cross-check).  These re-derive properties from
    first principles rather than trusting the solver's bookkeeping. *)

type violation =
  | Capacity_exceeded of Graph.arc
  | Negative_flow of Graph.arc
  | Conservation of int  (** node whose balance does not match its shipped supply *)
  | Negative_cycle of int list  (** node cycle with negative residual cost *)

val pp_violation : Format.formatter -> violation -> unit

(** [check g] verifies that the current flow on [g]:
    - respects arc capacities and non-negativity,
    - conserves flow at every node up to unshipped supply
      (outflow - inflow must equal supply at fully-shipped nodes and be
      between 0 and supply at partially shipped source nodes; dually for
      demands),
    - admits no negative-cost cycle in the residual network (i.e. the
      flow is min-cost for its value).

    Returns [Ok ()] or the first violation found. *)
val check : Graph.t -> (unit, violation) result

(** [optimal g] checks only the negative-residual-cycle condition. *)
val optimal : Graph.t -> (unit, violation) result

(** The [solver.flip] failpoint (docs/FAILPOINTS.md), evaluated by a
    guarded round between its solve and the flow guard: when the site
    fires (any action), take one unit of flow off the first arc that
    carries flow into a zero-supply node ({!Graph.corrupt_flow}) — a
    corruption {!check} is guaranteed to catch, since such nodes must
    conserve flow exactly.  Returns the flipped arc, or [None] when the
    site did not fire or no arc is eligible. *)
val flip_failpoint : Graph.t -> Graph.arc option
