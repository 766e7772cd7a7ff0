type violation =
  | Capacity_exceeded of Graph.arc
  | Negative_flow of Graph.arc
  | Conservation of int
  | Negative_cycle of int list

let pp_violation fmt = function
  | Capacity_exceeded a -> Format.fprintf fmt "capacity exceeded on arc %d" a
  | Negative_flow a -> Format.fprintf fmt "negative flow on arc %d" a
  | Conservation v -> Format.fprintf fmt "flow not conserved at node %d" v
  | Negative_cycle vs ->
      Format.fprintf fmt "negative residual cycle: %s"
        (String.concat " -> " (List.map string_of_int vs))

let check_bounds g =
  let bad = ref None in
  Graph.iter_arcs g (fun a ->
      if !bad = None then begin
        let f = Graph.flow g a in
        if f > Graph.capacity g a then bad := Some (Capacity_exceeded a)
        else if f < 0 then bad := Some (Negative_flow a)
      end);
  match !bad with None -> Ok () | Some v -> Error v

let check_conservation g =
  let n = Graph.node_count g in
  let balance = Array.make n 0 in
  Graph.iter_arcs g (fun a ->
      let f = Graph.flow g a in
      balance.(Graph.src g a) <- balance.(Graph.src g a) + f;
      balance.(Graph.dst g a) <- balance.(Graph.dst g a) - f);
  let bad = ref None in
  for v = 0 to n - 1 do
    if !bad = None then begin
      let s = Graph.supply g v in
      let b = balance.(v) in
      let ok =
        if s > 0 then b >= 0 && b <= s (* source: may be partially shipped *)
        else if s < 0 then b <= 0 && b >= s (* demand: may be partially filled *)
        else b = 0
      in
      if not ok then bad := Some (Conservation v)
    end
  done;
  match !bad with None -> Ok () | Some v -> Error v

(* Bellman–Ford negative-cycle detection over the residual network.  A
   flow is min-cost for its value iff the residual network has no
   negative-cost cycle (Klein's optimality criterion). *)
let optimal g =
  let n = Graph.node_count g in
  if n = 0 then Ok ()
  else begin
    let dist = Array.make n 0 in
    let parent_arc = Array.make n (-1) in
    let updated_node = ref (-1) in
    for _round = 1 to n do
      updated_node := -1;
      for v = 0 to n - 1 do
        Graph.iter_out g v (fun a ->
            if Graph.residual_cap g a > 0 then begin
              let u = Graph.dst g a in
              let nd = dist.(v) + Graph.cost g a in
              if nd < dist.(u) then begin
                dist.(u) <- nd;
                parent_arc.(u) <- a;
                updated_node := u
              end
            end)
      done
    done;
    if !updated_node < 0 then Ok ()
    else begin
      (* Walk parents n times to land inside the cycle, then collect it. *)
      let v = ref !updated_node in
      for _ = 1 to n do
        if parent_arc.(!v) >= 0 then v := Graph.src g parent_arc.(!v)
      done;
      let start = !v in
      let cycle = ref [ start ] in
      let cur = ref (Graph.src g parent_arc.(start)) in
      while !cur <> start && List.length !cycle <= n do
        cycle := !cur :: !cycle;
        cur := Graph.src g parent_arc.(!cur)
      done;
      Error (Negative_cycle !cycle)
    end
  end

let check g =
  match check_bounds g with
  | Error _ as e -> e
  | Ok () -> (
      match check_conservation g with
      | Error _ as e -> e
      | Ok () -> optimal g)

let flip_failpoint g =
  match Failpt.eval "solver.flip" with
  | None -> None
  | Some _ -> (
      (* The first arc carrying flow into a zero-supply node: its balance
         must be exactly zero, so taking one unit off always surfaces as
         a conservation violation instead of hiding in the slack of a
         partially shipped supply/demand node. *)
      let target = ref None in
      Graph.iter_arcs g (fun a ->
          if !target = None && Graph.flow g a > 0 && Graph.supply g (Graph.dst g a) = 0
          then target := Some a);
      match !target with
      | None -> None
      | Some a ->
          Graph.corrupt_flow g a (-1);
          Some a)
