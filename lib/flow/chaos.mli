(** Seeded chaos harness for the solver-resilience layer
    (docs/RESILIENCE.md).

    When active, chaos injects three kinds of trouble ahead of the
    places built to absorb it:

    - {b forced budget exhaustion} — a budgeted solve is randomly told
      its budget is gone ({!Budget.force_exhaustion}), exercising the
      degraded/salvage path;
    - {b artificial solver delay} — a budgeted solve's wall clock is
      randomly aged ({!Budget.inject_delay}), exercising wall-cap
      exhaustion without actually sleeping;
    - {b flow corruption} — one arc of a solved flow is bit-flipped
      ({!Graph.corrupt_flow}) ahead of the runtime invariant guard,
      proving that {!Verify.check} catches it and the fallback chain
      recovers.

    Activation: set the [HIRE_CHAOS] environment variable to a seed
    (any non-empty value other than ["0"]; non-numeric strings are
    hashed), or call {!activate} programmatically in tests.  Draws come
    from {e named streams}, one {!Prelude.Rng} per injection site
    (["solve.ssp"], ["solve.cost-scaling"], ["corrupt"], …), each seeded
    by mixing the chaos seed with the stream name.  A stream's sequence
    therefore depends only on how many draws that stream has made, not
    on interleaving with other sites.  The state is process-global and
    unsynchronised, so seeds that run concurrently must run in separate
    processes (the fork pool of lib/runner).

    Scope: chaos only ever touches {e budgeted} solves and {e guarded}
    rounds — code that opted into the resilience layer.  Plain
    [Mcmf.solve]/[Cost_scaling.solve] calls without a budget are never
    perturbed, so the exact-solver test suite stays exact under
    [HIRE_CHAOS=1]. *)

(** [enabled ()] — the harness is active (env knob or {!activate}).
    The environment is consulted once, lazily. *)
val enabled : unit -> bool

(** The active seed, if any. *)
val seed : unit -> int option

(** [activate ~seed] turns chaos on programmatically (tests), replacing
    any env-derived state. *)
val activate : seed:int -> unit

(** [deactivate ()] turns chaos off, overriding the environment. *)
val deactivate : unit -> unit

(** [draw_solve ~backend] draws this budgeted solve's perturbations from
    the ["solve." ^ backend] stream: with probability ~1/4 force its
    budget spent ({!Budget.force_exhaustion}), and independently with
    probability ~1/4 return an artificial delay (seconds, up to 2ms) to
    age its wall budget by ({!Budget.inject_delay}).  [(false, 0.)] when
    chaos is off.  Each backend draws for itself at the top of every
    budgeted solve. *)
val draw_solve : backend:string -> bool * float

(** [corrupt_solution g] flips the flow of one randomly chosen forward
    arc that carries flow and ends in a zero-supply (internal) node — a
    corruption {!Verify.check} is guaranteed to catch, since internal
    nodes must conserve flow exactly.  Performed with probability ~1/2;
    returns the corrupted arc, or [None] when chaos is off, the draw
    says no, or no eligible arc exists.  Draws from the ["corrupt"]
    stream. *)
val corrupt_solution : Graph.t -> Graph.arc option
