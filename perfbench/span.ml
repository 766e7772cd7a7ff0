(* In-memory span recorder for the traced pass.  Spans are taken only
   around calls the benchmark makes into the library (or around the
   scheduler record it wraps), kept in memory, and written out once at
   the end of the run.  Disabled, [with_] is a plain call. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  start : float;
  stop : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let reset () =
  recorded := [];
  stack := [];
  next_id := 0

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = Prelude.Clock.now () in
    let close () =
      stack := List.tl !stack;
      recorded := { id; name; parent; start; stop = Prelude.Clock.now () } :: !recorded
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let duration s = s.stop -. s.start

(* Per name: every duration, and the summed self time (duration minus
   the part covered by direct children). *)
type agg = { durations : Samples.t; mutable self : float }

let aggregate () =
  let child_time = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    !recorded;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let a =
        match Hashtbl.find_opt by_name s.name with
        | Some a -> a
        | None ->
            let a = { durations = Samples.create (); self = 0.0 } in
            Hashtbl.add by_name s.name a;
            a
      in
      Samples.add a.durations (duration s);
      a.self <-
        a.self +. duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id))
    (List.rev !recorded);
  by_name

(* One JSON object per span, oldest first. *)
let write ~workload path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start\":%.9f,\"end\":%.9f,\"workload\":%S}\n"
        s.id s.name s.parent s.start s.stop workload)
    (List.rev !recorded);
  close_out oc

(* [f ()] inside span [name], its wall time added to [samples] whether
   or not spans are being recorded. *)
let timed samples name f =
  let t0 = Prelude.Clock.now () in
  let v = with_ name f in
  Samples.add samples (Prelude.Clock.now () -. t0);
  v
