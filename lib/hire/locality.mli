(** Locality bookkeeping for the HIRE cost model (Appendix A).

    Two metrics steer placements towards the subtrees that already host
    related tasks:

    - [Task_census] — the per-subtree running-task counters the paper's
      N nodes maintain ("a map containing a counter for the running
      tasks of a task group in the subtree rooted at N");
    - [upsilon] — the recursive server-locality metric Υ (Eq. 6):
      roughly, the average number of related tasks *not* covered by each
      child subtree (lower = better co-location);
    - [Gain] — the INC-locality gain Γ of Alg. 1: a decaying
      breadth-first propagation of a gain γ from every switch hosting a
      related task ([IncLocProp]). *)

module Fat_tree = Topology.Fat_tree

(** Counts of running/placed tasks per task group, indexed by subtree. *)
module Task_census : sig
  type t

  val create : Fat_tree.t -> t

  (** [add t ~tg_id ~machine] records one task of [tg_id] running on
      [machine] (a server for server groups, a switch for network
      groups). *)
  val add : t -> tg_id:int -> machine:int -> unit

  val remove : t -> tg_id:int -> machine:int -> unit

  (** Tasks of the group running inside the subtree rooted at [node]. *)
  val count_under : t -> tg_id:int -> node:int -> int

  val total : t -> tg_id:int -> int

  (** Machines hosting tasks of the group, with counts. *)
  val machines : t -> tg_id:int -> (int * int) list

  (** Switches among [machines]. *)
  val switches : t -> tg_id:int -> int list

  val clear_group : t -> tg_id:int -> unit

  (** Journal-checkpoint serialization (docs/JOURNAL.md): canonical
      encoding of the (machine, count) pairs per group; restore rebuilds
      the subtree rollups through {!add}, replacing the current
      contents. *)
  val encode_state : t -> Prelude.Codec.Enc.t -> unit

  val decode_state : t -> Prelude.Codec.Dec.t -> unit
end

(** Memo of Υ per switch, shared by the {!upsilon} calls of one
    context (the same census, related groups and group size).  [fresh]
    issues a new context key; a value memoised under one key is never
    returned under another, so callers may interleave contexts by
    keeping each one's key.  The census must not change while a key is
    in use. *)
module Memo : sig
  type t

  val create : unit -> t
  val fresh : t -> int
end

(** [upsilon topo census ~tg_ids ~node ~group_size] computes Υ for the
    union of the given (related) task groups at a switch [node],
    normalized to [\[0,1\]] by [group_size] (so 1 = no related task in any
    child subtree, 0 = all of them under every child).  For a server
    [node] it degrades to the fraction of related tasks not on that
    server.  Switch subtrees already scored under [key] in [memo] are
    not walked again; memoised values are bit-identical to a fresh
    walk. *)
val upsilon :
  memo:Memo.t ->
  key:int ->
  Fat_tree.t ->
  Task_census.t ->
  tg_ids:int list ->
  node:int ->
  group_size:int ->
  float

(** INC-locality gains (Alg. 1). *)
module Gain : sig
  type t

  (** [compute topo census ~related ~gamma ~xi] runs IncLocProp from
      every switch hosting a task of a related group, with initial gain
      [gamma] and decay divisor [xi > 1]. *)
  val compute :
    Fat_tree.t -> Task_census.t -> related:int list -> gamma:int -> xi:int -> t

  (** Accumulated Γ at a node (0 if never reached). *)
  val at : t -> int -> int

  (** Γ normalized to [\[0,1\]]: 1 = maximum accumulated gain among all
      nodes, 0 = none.  Returns 0 everywhere when no source exists. *)
  val normalized : t -> int -> float
end
