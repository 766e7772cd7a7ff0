module Vec = Prelude.Vec
module Fat_tree = Topology.Fat_tree

type params = {
  cost_scale : int;
  pref_lower : float;
  pref_upper : float;
  w_threshold : float;
  gamma : int;
  xi : int;
  max_shortcuts : int;
  max_flavor_decisions : int;
  max_queue_tgs : int;
  locality_aware : bool;
  sharing_aware : bool;
  server_fallback_penalty : float;
}

let default_params =
  {
    cost_scale = 1000;
    pref_lower = 0.5;
    pref_upper = 2.0;
    w_threshold = 0.5;
    gamma = 64;
    xi = 2;
    max_shortcuts = 50;
    max_flavor_decisions = 250;
    max_queue_tgs = 800;
    locality_aware = true;
    sharing_aware = true;
    server_fallback_penalty = 3.5;
  }

(* [Float.max 0.0 (Float.min 1.0 x)] by comparisons alone: NaN stays
   NaN and -0.0 becomes 0.0, as there, but without the C calls
   ([sign_bit]) of [Float.min]/[Float.max]. *)
let[@inline] clamp01 x = if x > 1.0 then 1.0 else if x > 0.0 || Float.is_nan x then x else 0.0

(* [Float.max 0.0 x], likewise. *)
let[@inline] nonneg x = if x > 0.0 || Float.is_nan x then x else 0.0

(* A flattened average plus penalty, scaled to integer cost units. *)
let[@inline] scaled avg ~penalty params =
  let v = (clamp01 avg +. nonneg penalty) *. float_of_int params.cost_scale in
  int_of_float (Float.round v)

let flatten ?weights components ~penalty params =
  let components = Array.of_list components in
  let n = Array.length components in
  let avg =
    if n = 0 then 0.0
    else begin
      match weights with
      | None -> Array.fold_left ( +. ) 0.0 components /. float_of_int n
      | Some w ->
          if Array.length w <> n then invalid_arg "Cost_model.flatten: weight mismatch";
          let total_w = Array.fold_left ( +. ) 0.0 w in
          if total_w <= 0.0 then 0.0
          else begin
            let acc = ref 0.0 in
            Array.iteri (fun i c -> acc := !acc +. (w.(i) *. c)) components;
            !acc /. total_w
          end
    end
  in
  scaled avg ~penalty params

(* ------------------------------------------------------------------ *)
(* Φ functions                                                        *)
(* ------------------------------------------------------------------ *)

let phi_floor_p ~active ~max_possible =
  if max_possible <= 0 then 0.0 else clamp01 (float_of_int active /. float_of_int max_possible)

let phi_tor topo ~switch =
  (* Hops to the closest server: ToR 1, agg 2, core 3; normalized so a
     ToR costs 0 and a core costs 1. *)
  let hops =
    match Fat_tree.kind topo switch with
    | Fat_tree.Tor -> 1
    | Fat_tree.Agg -> 2
    | Fat_tree.Core -> 3
    | Fat_tree.Server -> invalid_arg "Cost_model.phi_tor: not a switch"
  in
  float_of_int (hops - 1) /. 2.0

let phi_loc ~related_placed ~upsilon ~gamma_norm ~server_weight =
  if not related_placed then 0.5
  else begin
    let ws = clamp01 server_weight in
    clamp01 ((ws *. upsilon) +. ((1.0 -. ws) *. (1.0 -. gamma_norm)))
  end

let phi_new ~service_active ~n_active ~max_possible =
  if service_active then 0.0
  else begin
    let delta = if max_possible <= 0 then 0.0 else float_of_int n_active /. float_of_int max_possible in
    1.0 /. (delta +. 1.0)
  end

let phi_pref ~waiting params =
  if waiting >= params.pref_upper then 0.0
  else if waiting <= params.pref_lower then 3.0
  else begin
    let ratio = (waiting -. params.pref_lower) /. (params.pref_upper -. params.pref_lower) in
    3.0 *. -.tanh ((ratio *. 3.0) -. 3.0)
  end

let phi_prio = function Workload.Job.Service -> 0.0 | Workload.Job.Batch -> 1.0

let phi_delay ~waiting ~max_waiting ~placed ~total =
  let frac = if total <= 0 then 0.0 else clamp01 (float_of_int placed /. float_of_int total) in
  let wr = if max_waiting <= 0.0 then 0.0 else clamp01 (waiting /. max_waiting) in
  clamp01 (wr *. exp frac /. exp 1.0)

let phi_w ~waiting params =
  if waiting >= params.w_threshold then 1.0
  else begin
    let ratio = clamp01 (waiting /. params.w_threshold) in
    (0.5 *. cos ((ratio -. 1.0) *. Float.pi)) +. 0.5
  end

let phi_xhat ~estimate ~max_estimate =
  if max_estimate <= 0.0 then 0.0 else clamp01 (estimate /. max_estimate)

(* ------------------------------------------------------------------ *)
(* Edge assembly                                                      *)
(* ------------------------------------------------------------------ *)

let balance_inverted util = clamp01 (1.0 -. Vec.stddev util)

let ms_to_k ~util params =
  flatten [ Vec.avg util; balance_inverted util ] ~penalty:0.0 params

let mn_to_k ~util ~phi_tor ~phi_floor params =
  flatten [ Vec.avg util; balance_inverted util; phi_tor; phi_floor ] ~penalty:0.0 params

(* The shortcut costs run once per candidate arc, so they are computed in
   place, with no intermediate vectors or component lists.  Every sum is
   the left fold from 0.0 in coordinate order that [Vec.avg],
   [Vec.stddev] and [flatten] perform, so each cost is the same int as
   the vector form (kept as the reference in test/test_hire_model.ml). *)

let check_dims op a b =
  if Array.length a <> Array.length b then
    invalid_arg
      (Printf.sprintf "Cost_model.%s: dimension mismatch (%d vs %d)" op (Array.length a)
         (Array.length b))

(* Coordinate [i] of the clamped demand-to-availability ratio (d ⊘ r),
   with [Vec.div]'s zero-divisor rule. *)
let[@inline] fit_ratio demand available i =
  let r = available.(i) in
  clamp01 (if Float.abs r < Vec.eps then 0.0 else demand.(i) /. r)

(* [0.0 +. avg +. dev] of the fit ratio: the first two terms of a
   shortcut's flatten fold, dev being the clamped population stddev.
   The stddev's mean is the same fold as avg, so it is reused. *)
let[@inline] fit_terms demand available =
  let n = Array.length demand in
  let sum = ref 0.0 in
  for i = 0 to n - 1 do
    sum := !sum +. fit_ratio demand available i
  done;
  let avg = if n = 0 then 0.0 else !sum /. float_of_int n in
  let dev =
    if n < 2 then 0.0
    else begin
      let ss = ref 0.0 in
      for i = 0 to n - 1 do
        let d = fit_ratio demand available i -. avg in
        ss := !ss +. (d *. d)
      done;
      clamp01 (sqrt (!ss /. float_of_int n))
    end
  in
  0.0 +. avg +. dev

let gs_shortcut ~demand ~available ~phi_loc ~phi_prio params =
  check_dims "gs_shortcut" demand available;
  let avg = (fit_terms demand available +. phi_loc +. 1.0 +. phi_prio) /. 5.0 in
  scaled avg ~penalty:0.0 params

let gn_shortcut ~demand ~available ~capacity ~phi_loc ~phi_new ~phi_prio params =
  check_dims "gn_shortcut" demand available;
  check_dims "gn_shortcut" demand capacity;
  (* Switches are the scarce resource: unlike servers (load-balanced),
     INC placements are packed best-fit — the cost grows with the
     head-room that would remain, fighting SRAM fragmentation.  This is
     avg (max(0, r - d) ⊘ c). *)
  let n = Array.length demand in
  let free = ref 0.0 in
  for i = 0 to n - 1 do
    let remaining = nonneg (available.(i) -. demand.(i)) in
    let c = capacity.(i) in
    free := !free +. if Float.abs c < Vec.eps then 0.0 else remaining /. c
  done;
  let free_after = if n = 0 then 0.0 else !free /. float_of_int n in
  let avg =
    (fit_terms demand available +. free_after +. phi_loc +. phi_new +. phi_prio) /. 6.0
  in
  scaled avg ~penalty:0.0 params

let g_to_p ~phi_delay params = flatten [ phi_delay ] ~penalty:5.0 params

let f_to_g ~phi_xhat ~phi_pref ?(fallback = false) params =
  let penalty =
    phi_pref +. if fallback then params.server_fallback_penalty else 0.0
  in
  flatten [ phi_xhat ] ~penalty params
let f_to_p ~phi_w params = flatten [ phi_w ] ~penalty:3.0 params
let s_to_f params = flatten [] ~penalty:1.0 params
