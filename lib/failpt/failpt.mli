(** Seeded, named failpoint registry (docs/FAILPOINTS.md).

    A failpoint is a named site in the solver, durability or network
    stack ([solver.exhaust], [journal.write], [net.accept], ...) where a
    fault can be injected deterministically: the site calls {!eval} on
    its path and acts on the returned {!outcome}, exactly as it would on
    the real failure.  Sites cost one list lookup when the registry is
    armed and one [ref]-load branch when it is not, so production paths
    stay free.

    Activation: the single [HIRE_FAILPOINTS] environment variable,
    resolved lazily on first use (binaries call {!init_env} at startup
    so a bad value fails before any work), one seed, and per-site named
    RNG streams so one site's draw sequence depends only on how many
    times {e that site} was evaluated.  Tests pin the registry
    programmatically with {!activate}/{!set}/{!load} and hand it back to
    the environment with {!reset}.

    {2 Grammar}

    {[ HIRE_FAILPOINTS="seed=42;journal.fsync=1*eio;journal.crash=1*short(5)@300" ]}

    Terms are separated by [;] (or [,]).  [seed=N] seeds every site
    stream (default 0).  Every other term is [site=spec] with

    {[ spec ::= "off" | [P%][N*]action[(arg)][@K] ]}

    [P%] fires with probability [P/100] per evaluation (default:
    always); [N*] fires at most [N] times, then the site goes quiet
    (default: unlimited); [@K] passes over the site's first [K]
    evaluations without drawing, so the earliest fire is evaluation [K]
    counted from 0 (default: 0).  Actions: [enospc] [eio] [epipe]
    [econnreset] [econnaborted] [emfile] [etimedout] (POSIX errors),
    [short(k)] (write only [k] bytes, then fail), [delay(s)] (stall [s]
    seconds), [off].  What each action means at each site is the site
    table in docs/FAILPOINTS.md. *)

(** What an armed site tells its caller to do. *)
type outcome =
  | Errno of Unix.error  (** fail as if the syscall returned this errno *)
  | Short of int  (** land only [k] bytes of the write, then fail *)
  | Delay of float  (** stall for [s] seconds, then proceed normally *)

(** Arm the registry programmatically (clears every site). *)
val activate : seed:int -> unit

(** Disarm every site; {!eval} returns [None] everywhere and {!describe}
    is [""] until the next {!activate}, {!set}, {!load} or {!reset}. *)
val deactivate : unit -> unit

val enabled : unit -> bool

(** Parse a full [HIRE_FAILPOINTS]-shaped value into the registry.
    @raise Invalid_argument on an unparseable term. *)
val load : string -> unit

(** Resolve [HIRE_FAILPOINTS] from the environment now (no-op when
    unset; the registry also resolves lazily on first {!eval}).
    @raise Invalid_argument on an unparseable value. *)
val init_env : unit -> unit

(** Drop whatever was pinned programmatically: the next query resolves
    [HIRE_FAILPOINTS] afresh (new site streams).  Tests that pin the
    registry call this on exit so later tests in the same executable
    still run under the environment's schedule. *)
val reset : unit -> unit

(** [set site spec] arms one site from a [spec] term (see grammar),
    next to whatever else is armed (the environment's schedule
    included); ["off"] is equivalent to {!clear}.  Activates the
    registry with seed 0 if nothing is armed yet.
    @raise Invalid_argument on an unparseable spec. *)
val set : string -> string -> unit

val clear : string -> unit

(** [eval site] draws this site's next decision: [None] (proceed) or
    the armed {!outcome}.  When observability is on, a fire counts
    [failpt.fired] and [failpt.fired.<site>]. *)
val eval : string -> outcome option

(** The armed registry as a [HIRE_FAILPOINTS] value, for startup logs:
    ["seed=42;journal.fsync=1*eio;..."] with sites sorted by name;
    [""] when disarmed.  {!load} of it re-arms the same schedule. *)
val describe : unit -> string

(** Sites currently armed (spec not exhausted), sorted by name. *)
val armed_sites : unit -> string list
