module Rng = Prelude.Rng

(* Non-numeric seeds and stream names are hashed with an explicit fold
   rather than the polymorphic [Hashtbl.hash] (banned from lib/flow by
   [make lint-compare]); any stable string -> int map works. *)
let string_seed s =
  String.fold_left (fun h c -> (((h * 31) + Char.code c) land 0x3FFFFFFF)) 5381 s

(* Draws come from named streams, each its own [Rng.t] seeded by
   mix(seed, name).  A stream's draw sequence then depends only on how
   many draws *that stream* has made — not on what any other stream did
   in between — so one injection site's decisions never shift because
   another site drew more or less often.  Streams are created on first
   use.  The state is process-global and unsynchronised: a process runs
   at most one simulation at a time (the runner forks one child per
   cell). *)
type t = { seed : int; mutable streams : (string * Rng.t) list }

(* [None] until the first query, then the resolved state; [activate] and
   [deactivate] pin it regardless of the environment. *)
let current : t option ref = ref None
let resolved = ref false

let activate ~seed =
  current := Some { seed; streams = [] };
  resolved := true

let deactivate () =
  current := None;
  resolved := true

let resolve () =
  if not !resolved then begin
    resolved := true;
    match Sys.getenv_opt "HIRE_CHAOS" with
    | None | Some "" | Some "0" -> current := None
    | Some s ->
        let seed = match int_of_string_opt s with Some n -> n | None -> string_seed s in
        activate ~seed
  end

let get () =
  resolve ();
  !current

let enabled () = get () <> None
let seed () = Option.map (fun t -> t.seed) (get ())

let stream t name =
  match List.find_opt (fun (n, _) -> String.equal n name) t.streams with
  | Some (_, rng) -> rng
  | None ->
      let rng = Rng.create (t.seed lxor string_seed name) in
      t.streams <- (name, rng) :: t.streams;
      rng

let count name =
  if Obs.enabled () then Obs.Registry.incr (Obs.Registry.counter name)

let draw_solve ~backend =
  match get () with
  | None -> (false, 0.0)
  | Some t ->
      let rng = stream t ("solve." ^ backend) in
      let forced = Rng.bernoulli rng 0.25 in
      if forced then count "chaos.forced_exhaustions";
      let delay =
        if Rng.bernoulli rng 0.25 then begin
          count "chaos.delays";
          Rng.float rng 0.002
        end
        else 0.0
      in
      (forced, delay)

let corrupt_solution g =
  match get () with
  | None -> None
  | Some t ->
      let rng = stream t "corrupt" in
      if not (Rng.bernoulli rng 0.5) then None
      else begin
        (* Only arcs into zero-supply nodes: their balance must be exactly
           zero, so the ±1 flip always surfaces as a Verify violation
           (capacity or conservation) instead of hiding in the slack of a
           partially shipped supply/demand node. *)
        let cands = ref [] in
        Graph.iter_arcs g (fun a ->
            if Graph.flow g a > 0 && Graph.supply g (Graph.dst g a) = 0 then
              cands := a :: !cands);
        match !cands with
        | [] -> None
        | l ->
            let arr = Array.of_list l in
            let a = arr.(Rng.int rng (Array.length arr)) in
            let delta = if Rng.bool rng then 1 else -1 in
            Graph.corrupt_flow g a delta;
            count "chaos.flow_flips";
            Some a
      end
