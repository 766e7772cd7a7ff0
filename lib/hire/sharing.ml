module Vec = Prelude.Vec
module Fat_tree = Topology.Fat_tree
module Int_tbl = Prelude.Int_tbl

type sw_state = {
  avail : Vec.t;  (* mutated in place *)
  supported : (string, unit) Hashtbl.t;
  n_supported : int;  (* size of [supported], which never changes *)
  counts : (string, int) Hashtbl.t;  (* running instances per service *)
  registered : (string, Vec.t) Hashtbl.t;  (* per-switch part currently charged *)
  mutable alive : bool;  (* fault injection: dead switches host nothing *)
}

type t = { cap : Vec.t; states : sw_state Int_tbl.t; ids : int array }

let create ~topo ~capacity ~supported =
  let ids = Fat_tree.switches topo in
  let states = Int_tbl.create (Array.length ids) in
  Array.iter
    (fun id ->
      let sup = Hashtbl.create 8 in
      List.iter (fun s -> Hashtbl.replace sup s ()) (supported id);
      Int_tbl.replace states id
        {
          avail = Vec.copy capacity;
          supported = sup;
          n_supported = Hashtbl.length sup;
          counts = Hashtbl.create 4;
          registered = Hashtbl.create 4;
          alive = true;
        })
    ids;
  { cap = Vec.copy capacity; states; ids }

let state t switch =
  match Int_tbl.find_opt t.states switch with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Sharing: %d is not a switch" switch)

let capacity t = Vec.copy t.cap
let available t switch = Vec.copy (state t switch).avail

let is_alive t switch = (state t switch).alive
let set_alive t switch alive = (state t switch).alive <- alive

(* Liveness masks capability: schedulers route every placement decision
   through [supports]/[can_place], so a dead switch offers no service.
   [supported_services] stays the static capability set — counting
   INC-capable hardware must not fluctuate with the fault plan. *)
let supports t ~switch ~service =
  let st = state t switch in
  st.alive && Hashtbl.mem st.supported service

let supported_services t switch =
  Hashtbl.fold (fun k () acc -> k :: acc) (state t switch).supported []
  |> List.sort String.compare

let n_supported t switch = (state t switch).n_supported

let active_services t switch =
  Hashtbl.fold (fun k c acc -> if c > 0 then k :: acc else acc) (state t switch).counts []
  |> List.sort String.compare

let n_active t switch =
  Hashtbl.fold (fun _ c acc -> if c > 0 then acc + 1 else acc) (state t switch).counts 0

let instances t ~switch ~service =
  match Hashtbl.find_opt (state t switch).counts service with Some c -> c | None -> 0

let effective_demand t ~switch ~service ~per_switch ~per_instance =
  if instances t ~switch ~service > 0 then Vec.copy per_instance
  else Vec.add per_switch per_instance

let can_place t ~switch ~service ~per_switch ~per_instance =
  supports t ~switch ~service
  && Vec.fits
       ~demand:(effective_demand t ~switch ~service ~per_switch ~per_instance)
       ~available:(state t switch).avail

let place t ~switch ~service ~per_switch ~per_instance =
  if not (can_place t ~switch ~service ~per_switch ~per_instance) then
    invalid_arg
      (Printf.sprintf "Sharing.place: service %s does not fit on switch %d" service switch);
  let st = state t switch in
  let first = instances t ~switch ~service = 0 in
  Vec.sub_into st.avail per_instance;
  if first then begin
    Vec.sub_into st.avail per_switch;
    Hashtbl.replace st.registered service (Vec.copy per_switch)
  end;
  Hashtbl.replace st.counts service (instances t ~switch ~service + 1)

(* Defensive ledger check: a refund beyond capacity means a double
   release (or a release with the wrong demand) corrupted the ledger —
   fail loudly instead of silently inflating the switch.  Tolerates
   floating-point drift from repeated charge/refund cycles. *)
let check_over_release st cap ~switch =
  Array.iteri
    (fun i x ->
      let c = cap.(i) in
      let eps = 1e-6 *. (1.0 +. Float.abs c) in
      if x > c +. eps then
        invalid_arg
          (Printf.sprintf "Sharing.release: over-release on switch %d (dimension %d)" switch i)
      else if x > c then st.avail.(i) <- c)
    st.avail

let release t ~switch ~service ~per_instance =
  let st = state t switch in
  let c = instances t ~switch ~service in
  if c <= 0 then
    invalid_arg
      (Printf.sprintf "Sharing.release: no instance of %s on switch %d" service switch);
  Vec.add_into st.avail per_instance;
  if c = 1 then begin
    (match Hashtbl.find_opt st.registered service with
    | Some reg -> Vec.add_into st.avail reg
    | None -> ());
    Hashtbl.remove st.registered service;
    Hashtbl.remove st.counts service
  end
  else Hashtbl.replace st.counts service (c - 1);
  check_over_release st t.cap ~switch

let utilization t switch =
  let st = state t switch in
  Topology.Resource.utilization ~capacity:t.cap ~available:st.avail

let total_used t =
  let acc = Vec.zero (Vec.dim t.cap) in
  Array.iter
    (fun id ->
      let st = state t id in
      Vec.add_into acc (Vec.sub t.cap st.avail))
    t.ids;
  acc

let switch_ids t = t.ids

(* ------------------------------------------------------------------ *)
(* Snapshot / restore (journal checkpoints, docs/JOURNAL.md)           *)
(* ------------------------------------------------------------------ *)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* The static capability set ([supported]) and capacity are reproduced
   by rebuilding the cluster from its seed, so only the dynamic ledger
   state is serialized.  Switches are walked in [ids] order — a fixed
   array — and table contents in sorted-key order, so the same ledger
   state always encodes to the same bytes. *)
let encode_state t e =
  let module Enc = Prelude.Codec.Enc in
  Enc.array e
    (fun e id ->
      let st = state t id in
      Enc.float_array e st.avail;
      Enc.bool e st.alive;
      Enc.list e
        (fun e (s, c) ->
          Enc.string e s;
          Enc.uint e c)
        (sorted_bindings st.counts);
      Enc.list e
        (fun e (s, v) ->
          Enc.string e s;
          Enc.float_array e v)
        (sorted_bindings st.registered))
    t.ids

let decode_state t d =
  let module Dec = Prelude.Codec.Dec in
  let n = Dec.uint d in
  if n <> Array.length t.ids then
    raise
      (Prelude.Codec.Error
         (Printf.sprintf "Sharing: snapshot has %d switches, ledger has %d" n
            (Array.length t.ids)));
  Array.iter
    (fun id ->
      let st = state t id in
      let avail = Dec.float_array d in
      if Array.length avail <> Array.length st.avail then
        raise (Prelude.Codec.Error "Sharing: snapshot dimension mismatch");
      Array.blit avail 0 st.avail 0 (Array.length avail);
      st.alive <- Dec.bool d;
      Hashtbl.reset st.counts;
      List.iter (fun (s, c) -> Hashtbl.replace st.counts s c)
        (Dec.list d (fun d ->
             let s = Dec.string d in
             let c = Dec.uint d in
             (s, c)));
      Hashtbl.reset st.registered;
      List.iter (fun (s, v) -> Hashtbl.replace st.registered s v)
        (Dec.list d (fun d ->
             let s = Dec.string d in
             let v = Dec.float_array d in
             (s, v))))
    t.ids
