(* Growable float sample buffers with exact order statistics. *)

type t = { mutable data : float array; mutable n : int }

let create () = { data = Array.make 256 0.0; n = 0 }

let add t v =
  if t.n = Array.length t.data then begin
    let bigger = Array.make (2 * t.n) 0.0 in
    Array.blit t.data 0 bigger 0 t.n;
    t.data <- bigger
  end;
  t.data.(t.n) <- v;
  t.n <- t.n + 1

let count t = t.n
let to_array t = Array.sub t.data 0 t.n
let total t = Array.fold_left ( +. ) 0.0 (to_array t)
let mean t = if t.n = 0 then 0.0 else total t /. float_of_int t.n

(* Linear interpolation between the closest ranks, so a quantile moves
   with every sample instead of snapping to one of them. *)
let quantile_of_sorted a q =
  match Array.length a with
  | 0 -> 0.0
  | n ->
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let quantile t q =
  let a = to_array t in
  Array.sort Float.compare a;
  quantile_of_sorted a q

let median t = quantile t 0.5
