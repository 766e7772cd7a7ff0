module Fat_tree = Topology.Fat_tree
module Int_tbl = Prelude.Int_tbl

module Task_census = struct
  (* Per task group we keep counts by machine plus rollups by ToR and by
     pod, so [count_under] answers in O(1) for any node of the
     hierarchy.  A machine is tagged (tor, pod) as follows: servers and
     ToRs by their own ToR; aggs by their pod only; cores by neither. *)
  type group_counts = {
    by_machine : int Int_tbl.t;
    by_tor : int Int_tbl.t;
    by_pod : int Int_tbl.t;
    mutable total : int;
  }

  type t = { topo : Fat_tree.t; groups : group_counts Int_tbl.t }

  let create topo = { topo; groups = Int_tbl.create 64 }

  let group t tg_id =
    match Int_tbl.find_opt t.groups tg_id with
    | Some g -> g
    | None ->
        let g =
          {
            by_machine = Int_tbl.create 8;
            by_tor = Int_tbl.create 8;
            by_pod = Int_tbl.create 8;
            total = 0;
          }
        in
        Int_tbl.replace t.groups tg_id g;
        g

  let bump tbl key delta =
    let v = (match Int_tbl.find_opt tbl key with Some v -> v | None -> 0) + delta in
    if v <= 0 then Int_tbl.remove tbl key else Int_tbl.replace tbl key v

  let tags t machine =
    let open Fat_tree in
    match kind t.topo machine with
    | Server -> (Some (tor_of_server t.topo machine), Some (node t.topo machine).pod)
    | Tor -> (Some machine, Some (node t.topo machine).pod)
    | Agg -> (None, Some (node t.topo machine).pod)
    | Core -> (None, None)

  let adjust t ~tg_id ~machine delta =
    let g = group t tg_id in
    bump g.by_machine machine delta;
    let tor, pod = tags t machine in
    (match tor with Some x -> bump g.by_tor x delta | None -> ());
    (match pod with Some p -> bump g.by_pod p delta | None -> ());
    g.total <- g.total + delta;
    if g.total < 0 then invalid_arg "Task_census: negative total"

  let add t ~tg_id ~machine = adjust t ~tg_id ~machine 1
  let remove t ~tg_id ~machine = adjust t ~tg_id ~machine (-1)

  (* Lookups by exception, not [find_opt]: Υ calls this once per related
     group and scored node, and an option would be allocated each time. *)
  let count_under t ~tg_id ~node =
    match Int_tbl.find t.groups tg_id with
    | exception Not_found -> 0
    | g -> (
        let get tbl key = match Int_tbl.find tbl key with v -> v | exception Not_found -> 0 in
        match Fat_tree.kind t.topo node with
        | Fat_tree.Core -> g.total
        | Fat_tree.Agg -> get g.by_pod (Fat_tree.node t.topo node).pod
        | Fat_tree.Tor -> get g.by_tor node
        | Fat_tree.Server -> get g.by_machine node)

  let total t ~tg_id =
    match Int_tbl.find_opt t.groups tg_id with None -> 0 | Some g -> g.total

  let machines t ~tg_id =
    match Int_tbl.find_opt t.groups tg_id with
    | None -> []
    | Some g ->
        Int_tbl.fold (fun m c acc -> (m, c) :: acc) g.by_machine []
        |> List.sort (fun (m1, c1) (m2, c2) ->
               match Int.compare m1 m2 with 0 -> Int.compare c1 c2 | c -> c)

  let fold_machines t ~tg_id f init =
    match Int_tbl.find_opt t.groups tg_id with
    | None -> init
    | Some g -> Int_tbl.fold f g.by_machine init

  let switches t ~tg_id =
    fold_machines t ~tg_id
      (fun m _ acc -> if Fat_tree.is_switch t.topo m then m :: acc else acc)
      []
    |> List.sort Int.compare

  let clear_group t ~tg_id = Int_tbl.remove t.groups tg_id

  (* Checkpoint serialization (docs/JOURNAL.md).  Only the primary
     (machine, count) pairs are written — the ToR/pod rollups and totals
     are re-derived through [adjust] on restore, so a decoded census is
     structurally identical to one built live.  Groups and machines are
     written in sorted order for canonical bytes. *)
  let encode_state t e =
    let module Enc = Prelude.Codec.Enc in
    let group_ids =
      Int_tbl.fold (fun tg_id _ acc -> tg_id :: acc) t.groups [] |> List.sort Int.compare
    in
    Enc.list e
      (fun e tg_id ->
        Enc.int e tg_id;
        Enc.list e
          (fun e (m, c) ->
            Enc.int e m;
            Enc.uint e c)
          (machines t ~tg_id))
      group_ids

  let decode_state t d =
    let module Dec = Prelude.Codec.Dec in
    Int_tbl.reset t.groups;
    let (_ : unit list) =
      Dec.list d (fun d ->
          let tg_id = Dec.int d in
          List.iter
            (fun (machine, c) ->
              for _ = 1 to c do
                add t ~tg_id ~machine
              done)
            (Dec.list d (fun d ->
                 let m = Dec.int d in
                 let c = Dec.uint d in
                 (m, c))))
    in
    ()
end

module Memo = struct
  (* Stamped per-node arrays: [value.(n)] holds Υ's unclamped subtree
     average at switch [n] for context [seen.(n)].  Keys are never
     reused, so an entry can only ever be read back under the context
     that wrote it. *)
  type t = { mutable next : int; mutable seen : int array; mutable value : float array }

  let create () = { next = 0; seen = [||]; value = [||] }

  let fresh t =
    t.next <- t.next + 1;
    t.next

  let ensure t n =
    if Array.length t.seen <> n then begin
      t.seen <- Array.make n 0;
      t.value <- Array.make n 0.0
    end
end

(* Tasks of the related groups under [node].  A plain recursion, not a
   fold with a closure: Υ runs once per shortcut candidate. *)
let rec total_related census node = function
  | [] -> 0
  | tg_id :: rest -> Task_census.count_under census ~tg_id ~node + total_related census node rest

let server_term census tg_ids ~group_size node =
  float_of_int (max 0 (group_size - total_related census node tg_ids)) /. float_of_int group_size

(* Recursive Eq. 6 at switch [n]: the average over children of "related
   tasks missing from that child's subtree", unclamped and memoised
   under [key].  A subtree holding no related task scores exactly 1.0
   (every leaf is gs/gs, and n copies of 1.0 average to 1.0), so it is
   not walked.  Children are folded left to right, so memoised and fresh
   values are the same floats. *)
let rec subtree_score memo key topo census tg_ids ~group_size n =
  if memo.Memo.seen.(n) = key then memo.Memo.value.(n)
  else begin
    let v =
      if total_related census n tg_ids = 0 then 1.0
      else begin
        match Fat_tree.children topo n with
        | [] -> 1.0
        | kids ->
            let sum =
              List.fold_left
                (fun acc kid ->
                  acc
                  +.
                  if Fat_tree.is_server topo kid then server_term census tg_ids ~group_size kid
                  else subtree_score memo key topo census tg_ids ~group_size kid)
                0.0 kids
            in
            sum /. float_of_int (List.length kids)
      end
    in
    memo.Memo.seen.(n) <- key;
    memo.Memo.value.(n) <- v;
    v
  end

let upsilon ~memo ~key topo census ~tg_ids ~node ~group_size =
  if group_size <= 0 then 1.0
  else if Fat_tree.is_server topo node then
    Float.min 1.0 (server_term census tg_ids ~group_size node)
  else begin
    Memo.ensure memo (Fat_tree.node_count topo);
    Float.max 0.0 (Float.min 1.0 (subtree_score memo key topo census tg_ids ~group_size node))
  end

module Gain = struct
  (* [table.(n)] is the accumulated Γ at switch [n] (switch ids are
     [0 .. n_switches - 1], see [Fat_tree.switches]); [||] when there
     is no source.  Γ is 0 at every server. *)
  type t = { table : int array; max_gain : int }

  (* IncLocProp from [start]: a breadth-first walk over switches that
     adds [gamma] at the start, [gamma / xi] one hop away, and so on
     until the gain reaches 0.  A node's level is its hop distance
     whatever order a level is walked in, so the integer sums do not
     depend on it.  [seen] marks the switches this walk reached. *)
  let inc_loc_prop topo table seen ~start ~gamma ~xi =
    Bytes.fill seen 0 (Bytes.length seen) '\000';
    let visit = ref [ start ] in
    let g = ref gamma in
    while !g > 0 && not (List.is_empty !visit) do
      let next = ref [] in
      List.iter
        (fun n ->
          if Bytes.get seen n = '\000' then begin
            Bytes.set seen n '\001';
            table.(n) <- table.(n) + !g;
            let push nb =
              if Fat_tree.is_switch topo nb && Bytes.get seen nb = '\000' then next := nb :: !next
            in
            List.iter push (Fat_tree.parents topo n);
            List.iter push (Fat_tree.children topo n)
          end)
        !visit;
      visit := !next;
      g := !g / xi
    done

  (* Every source-less result shares this one empty table, so a round
     that keeps many such results alive keeps no tables for them. *)
  let empty = { table = [||]; max_gain = 0 }

  let compute topo census ~related ~gamma ~xi =
    if xi <= 1 then invalid_arg "Gain.compute: xi must be > 1";
    let sources =
      List.concat_map (fun tg_id -> Task_census.switches census ~tg_id) related
      |> List.sort_uniq Int.compare
    in
    match sources with
    | [] -> empty
    | _ ->
        let n = Array.length (Fat_tree.switches topo) in
        let table = Array.make n 0 and seen = Bytes.create n in
        List.iter (fun start -> inc_loc_prop topo table seen ~start ~gamma ~xi) sources;
        { table; max_gain = Array.fold_left Int.max 0 table }

  let at t node = if node >= 0 && node < Array.length t.table then t.table.(node) else 0

  let normalized t node =
    if t.max_gain <= 0 then 0.0 else float_of_int (at t node) /. float_of_int t.max_gain
end
