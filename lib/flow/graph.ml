(* Forward-star adjacency with paired residual arcs.  Arc 2k is the k-th
   user arc, arc 2k+1 its residual twin.  All per-arc attributes live in
   growable parallel int arrays.

   The arena is designed for reuse across solver rounds: [clear] empties
   it without freeing, and [mark]/[release] snapshot and restore a
   prefix so a persistent caller (lib/hire/flow_network.ml) can keep a
   long-lived topology part and rebuild only the per-round suffix. *)

type arc = int

type t = {
  mutable n : int;                 (* node count *)
  mutable m : int;                 (* residual arc count = 2 * forward arcs *)
  mutable head : int array;        (* first outgoing residual arc per node, -1 if none *)
  mutable supply_arr : int array;
  mutable next : int array;        (* next residual arc in the forward star *)
  mutable to_ : int array;         (* arc destination *)
  mutable cap : int array;         (* remaining residual capacity *)
  mutable cost_arr : int array;
  mutable orig_cap : int array;    (* initial capacity, for flow/reset *)
  mutable n_negative : int;        (* forward arcs with cost < 0 *)
  (* Touched-pair tracking (re-optimizing solves, docs/PERFORMANCE.md):
     when [track] is on, every flow mutation records its arc pair once
     (deduped through [tflag], indexed by pair id = arc/2) so
     [reset_touched_flows] can undo a solve in time proportional to the
     arcs the solve actually moved flow on, not the arena size. *)
  mutable track : bool;
  mutable touched : int array;     (* recorded pair ids *)
  mutable n_touched : int;
  mutable tflag : Bytes.t;         (* pair id -> already recorded? *)
  mutable cost_ub : int;           (* max forward cost since [clear] *)
}

let create ?(node_hint = 16) ?(arc_hint = 64) () =
  let node_hint = max 1 node_hint and arc_hint = max 1 (2 * arc_hint) in
  {
    n = 0;
    m = 0;
    head = Array.make node_hint (-1);
    supply_arr = Array.make node_hint 0;
    next = Array.make arc_hint (-1);
    to_ = Array.make arc_hint 0;
    cap = Array.make arc_hint 0;
    cost_arr = Array.make arc_hint 0;
    orig_cap = Array.make arc_hint 0;
    n_negative = 0;
    track = false;
    touched = [||];
    n_touched = 0;
    tflag = Bytes.empty;
    cost_ub = 0;
  }

let grow_int_array arr cap fill =
  if Array.length arr >= cap then arr
  else begin
    let narr = Array.make cap fill in
    Array.blit arr 0 narr 0 (Array.length arr);
    narr
  end

(* The target capacity is computed once so all parallel arrays grow to
   the same size in one pass; doubling each independently would repeat
   the blits and let lengths drift apart. *)
let ensure_node_capacity t len =
  if Array.length t.head < len then begin
    let cap = max len (2 * Array.length t.head) in
    t.head <- grow_int_array t.head cap (-1);
    t.supply_arr <- grow_int_array t.supply_arr cap 0
  end

let ensure_arc_capacity t len =
  if Array.length t.next < len then begin
    let cap = max len (2 * Array.length t.next) in
    t.next <- grow_int_array t.next cap (-1);
    t.to_ <- grow_int_array t.to_ cap 0;
    t.cap <- grow_int_array t.cap cap 0;
    t.cost_arr <- grow_int_array t.cost_arr cap 0;
    t.orig_cap <- grow_int_array t.orig_cap cap 0
  end

let add_node t =
  ensure_node_capacity t (t.n + 1);
  let id = t.n in
  t.head.(id) <- -1;
  t.supply_arr.(id) <- 0;
  t.n <- t.n + 1;
  id

let add_nodes t count =
  if count <= 0 then invalid_arg "Graph.add_nodes: count must be positive";
  let first = add_node t in
  for _ = 2 to count do
    ignore (add_node t)
  done;
  first

let node_count t = t.n
let arc_count t = t.m / 2

let check_node t v name =
  if v < 0 || v >= t.n then invalid_arg (Printf.sprintf "Graph.%s: bad node %d" name v)

let add_half t ~src ~dst ~cap ~cost =
  let a = t.m in
  ensure_arc_capacity t (a + 1);
  t.to_.(a) <- dst;
  t.cap.(a) <- cap;
  t.orig_cap.(a) <- cap;
  t.cost_arr.(a) <- cost;
  t.next.(a) <- t.head.(src);
  t.head.(src) <- a;
  t.m <- t.m + 1;
  a

let add_arc t ~src ~dst ~cap ~cost =
  check_node t src "add_arc";
  check_node t dst "add_arc";
  if cap < 0 then invalid_arg "Graph.add_arc: negative capacity";
  let fwd = add_half t ~src ~dst ~cap ~cost in
  let (_ : arc) = add_half t ~src:dst ~dst:src ~cap:0 ~cost:(-cost) in
  if cost < 0 then t.n_negative <- t.n_negative + 1;
  if cost > t.cost_ub then t.cost_ub <- cost;
  fwd

let set_supply t v s =
  check_node t v "set_supply";
  t.supply_arr.(v) <- s

let add_supply t v s =
  check_node t v "add_supply";
  t.supply_arr.(v) <- t.supply_arr.(v) + s

let supply t v =
  check_node t v "supply";
  t.supply_arr.(v)

let total_positive_supply t =
  let acc = ref 0 in
  for v = 0 to t.n - 1 do
    if t.supply_arr.(v) > 0 then acc := !acc + t.supply_arr.(v)
  done;
  !acc

let rev a = a lxor 1
let is_forward a = a land 1 = 0

(* ------------------------------------------------------------------ *)
(* Touched-pair tracking                                               *)
(* ------------------------------------------------------------------ *)

let clear_touched t =
  for i = 0 to t.n_touched - 1 do
    Bytes.unsafe_set t.tflag t.touched.(i) '\000'
  done;
  t.n_touched <- 0

let set_flow_tracking t on =
  if on && not t.track then begin
    t.track <- true;
    t.n_touched <- 0
  end
  else if (not on) && t.track then begin
    clear_touched t;
    t.track <- false
  end

(* Record the pair of arc [a] as flow-carrying, once.  The dedup flag
   bounds the list by the number of distinct pairs mutated since the
   last reset, so a sparse reset never costs more than a full one. *)
let record_touch t a =
  let p = a lsr 1 in
  if p >= Bytes.length t.tflag then begin
    let cap = max (p + 1) (max 1024 (2 * Bytes.length t.tflag)) in
    let nb = Bytes.make cap '\000' in
    Bytes.blit t.tflag 0 nb 0 (Bytes.length t.tflag);
    t.tflag <- nb
  end;
  if Bytes.unsafe_get t.tflag p = '\000' then begin
    Bytes.unsafe_set t.tflag p '\001';
    if t.n_touched = Array.length t.touched then begin
      let cap = max 256 (2 * t.n_touched) in
      let arr = Array.make cap 0 in
      Array.blit t.touched 0 arr 0 t.n_touched;
      t.touched <- arr
    end;
    t.touched.(t.n_touched) <- p;
    t.n_touched <- t.n_touched + 1
  end
let dst t a = t.to_.(a)
let src t a = t.to_.(rev a)
let cost t a = t.cost_arr.(a)
let capacity t a = t.orig_cap.(a)
let residual_cap t a = t.cap.(a)

let flow t a =
  if not (is_forward a) then invalid_arg "Graph.flow: not a forward arc";
  t.orig_cap.(a) - t.cap.(a)

let push t a amount =
  if amount < 0 || amount > t.cap.(a) then
    invalid_arg
      (Printf.sprintf "Graph.push: amount %d exceeds residual capacity %d on arc %d" amount
         t.cap.(a) a);
  if t.track then record_touch t a;
  t.cap.(a) <- t.cap.(a) - amount;
  t.cap.(rev a) <- t.cap.(rev a) + amount

let corrupt_flow t a delta =
  if not (is_forward a) then invalid_arg "Graph.corrupt_flow: not a forward arc";
  if t.track then record_touch t a;
  t.cap.(a) <- t.cap.(a) - delta;
  t.cap.(rev a) <- t.cap.(rev a) + delta

(* ------------------------------------------------------------------ *)
(* In-place patching (incremental network maintenance)                 *)
(* ------------------------------------------------------------------ *)

let has_negative_cost t = t.n_negative > 0

let set_cost t a c =
  if not (is_forward a) then invalid_arg "Graph.set_cost: not a forward arc";
  if a >= t.m then invalid_arg "Graph.set_cost: arc out of range";
  let old = t.cost_arr.(a) in
  if old <> c then begin
    if old < 0 then t.n_negative <- t.n_negative - 1;
    if c < 0 then t.n_negative <- t.n_negative + 1;
    if c > t.cost_ub then t.cost_ub <- c;
    t.cost_arr.(a) <- c;
    t.cost_arr.(rev a) <- -c
  end

let cost_ub t = t.cost_ub

let set_cap t a c =
  if not (is_forward a) then invalid_arg "Graph.set_cap: not a forward arc";
  if a >= t.m then invalid_arg "Graph.set_cap: arc out of range";
  if c < 0 then invalid_arg "Graph.set_cap: negative capacity";
  t.orig_cap.(a) <- c;
  t.cap.(a) <- c;
  t.cap.(rev a) <- 0

let retire_node t v =
  check_node t v "retire_node";
  t.supply_arr.(v) <- 0;
  t.head.(v) <- -1

let clear t =
  t.n <- 0;
  t.m <- 0;
  t.n_negative <- 0;
  t.cost_ub <- 0;
  clear_touched t

type mark = {
  mk_n : int;
  mk_m : int;
  mk_head : int array;
  mk_supply : int array;
  mk_n_negative : int;
}

(* The head-array prefix must be part of the snapshot: residual twins of
   later (suffix) arcs are linked into the adjacency lists of earlier
   nodes, so truncating [m] alone would leave dangling arc ids at the
   front of those lists. *)
let mark t =
  {
    mk_n = t.n;
    mk_m = t.m;
    mk_head = Array.sub t.head 0 t.n;
    mk_supply = Array.sub t.supply_arr 0 t.n;
    mk_n_negative = t.n_negative;
  }

let release t mk =
  if mk.mk_n > t.n || mk.mk_m > t.m then
    invalid_arg "Graph.release: mark does not precede the current state";
  t.n <- mk.mk_n;
  t.m <- mk.mk_m;
  Array.blit mk.mk_head 0 t.head 0 mk.mk_n;
  Array.blit mk.mk_supply 0 t.supply_arr 0 mk.mk_n;
  t.n_negative <- mk.mk_n_negative

let iter_out t v f =
  check_node t v "iter_out";
  let a = ref t.head.(v) in
  while !a >= 0 do
    f !a;
    a := t.next.(!a)
  done

let fold_out t v init f =
  let acc = ref init in
  iter_out t v (fun a -> acc := f !acc a);
  !acc

let iter_arcs t f =
  let a = ref 0 in
  while !a < t.m do
    f !a;
    a := !a + 2
  done

let reset_flows t =
  for a = 0 to t.m - 1 do
    t.cap.(a) <- t.orig_cap.(a)
  done;
  (* A full reset leaves no flow anywhere; start the next recording
     epoch empty so sparse resets stay exact. *)
  clear_touched t

let reset_flow = reset_flows

let reset_touched_flows t =
  if not t.track then begin
    reset_flows t;
    arc_count t
  end
  else begin
    let restored = ref 0 in
    for i = 0 to t.n_touched - 1 do
      let p = t.touched.(i) in
      Bytes.unsafe_set t.tflag p '\000';
      let a = p * 2 in
      (* Pairs recorded in a suffix that has since been released fall
         beyond [m]; their slots are fully re-initialized by the next
         [add_arc], so only the flag needs clearing. *)
      if a < t.m then begin
        t.cap.(a) <- t.orig_cap.(a);
        t.cap.(a + 1) <- t.orig_cap.(a + 1);
        incr restored
      end
    done;
    t.n_touched <- 0;
    !restored
  end

let flow_cost t =
  let acc = ref 0 in
  iter_arcs t (fun a -> acc := !acc + (flow t a * t.cost_arr.(a)));
  !acc

let conserves t =
  let balance = Array.make t.n 0 in
  iter_arcs t (fun a ->
      let f = flow t a in
      balance.(src t a) <- balance.(src t a) + f;
      balance.(dst t a) <- balance.(dst t a) - f);
  let bad = ref None in
  for v = t.n - 1 downto 0 do
    if balance.(v) <> t.supply_arr.(v) then bad := Some v
  done;
  match !bad with None -> Ok t.n | Some v -> Error v

let pp fmt t =
  Format.fprintf fmt "flow graph: %d nodes, %d arcs@." t.n (arc_count t);
  iter_arcs t (fun a ->
      Format.fprintf fmt "  %d -> %d  cap=%d cost=%d flow=%d@." (src t a) (dst t a)
        (capacity t a) (cost t a) (flow t a))
