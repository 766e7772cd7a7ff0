module Rng = Prelude.Rng

type outcome =
  | Errno of Unix.error
  | Short of int
  | Delay of float

(* A stable string -> int map with no dependence on the polymorphic
   hash, so a site's stream is the same on every build. *)
let string_seed s =
  String.fold_left (fun h c -> (((h * 31) + Char.code c) land 0x3FFFFFFF)) 5381 s

type site = {
  spec : string;  (* the term this site was armed with, for {!describe} *)
  prob : float;  (* fire probability per evaluation *)
  mutable left : int;  (* remaining fires; -1 = unlimited *)
  mutable skip : int;  (* evaluations still to pass over before any draw *)
  action : outcome;
  rng : Rng.t;  (* private stream: draws depend only on this site *)
}

type t = { seed : int; mutable sites : (string * site) list }

(* [None] until the first query, then the resolved state; [activate] and
   [deactivate] pin it regardless of the environment. *)
let current : t option ref = ref None
let resolved = ref false

let activate ~seed =
  current := Some { seed; sites = [] };
  resolved := true

let deactivate () =
  current := None;
  resolved := true

let errno_of_action = function
  | "enospc" -> Some Unix.ENOSPC
  | "eio" -> Some Unix.EIO
  | "epipe" -> Some Unix.EPIPE
  | "econnreset" -> Some Unix.ECONNRESET
  | "econnaborted" -> Some Unix.ECONNABORTED
  | "emfile" -> Some Unix.EMFILE
  | "etimedout" -> Some Unix.ETIMEDOUT
  | _ -> None

let bad spec reason =
  invalid_arg (Printf.sprintf "HIRE_FAILPOINTS: bad spec %S (%s)" spec reason)

(* [spec ::= "off" | [P%][N*]action[(arg)][@K]] — returns [None] for "off". *)
let parse_spec spec =
  let s = String.trim spec in
  if String.equal s "off" then None
  else begin
    let skip, s =
      match String.index_opt s '@' with
      | None -> (0, s)
      | Some i -> (
          let tail = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt tail with
          | Some k when k >= 0 -> (k, String.sub s 0 i)
          | _ -> bad spec "skip must be a non-negative integer")
    in
    let prob, s =
      match String.index_opt s '%' with
      | None -> (1.0, s)
      | Some i -> (
          let head = String.sub s 0 i in
          let rest = String.sub s (i + 1) (String.length s - i - 1) in
          match float_of_string_opt head with
          | Some p when p >= 0.0 && p <= 100.0 -> (p /. 100.0, rest)
          | _ -> bad spec "percentage must be a number in [0,100]")
    in
    let left, s =
      match String.index_opt s '*' with
      | None -> (-1, s)
      | Some i -> (
          let head = String.sub s 0 i in
          let rest = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt head with
          | Some n when n >= 0 -> (n, rest)
          | _ -> bad spec "count must be a non-negative integer")
    in
    let name, arg =
      match String.index_opt s '(' with
      | None -> (s, None)
      | Some i ->
          if String.length s = 0 || s.[String.length s - 1] <> ')' then
            bad spec "unterminated argument"
          else
            ( String.sub s 0 i,
              Some (String.sub s (i + 1) (String.length s - i - 2)) )
    in
    let action =
      match (errno_of_action name, name, arg) with
      | Some e, _, None -> Errno e
      | Some _, _, Some _ -> bad spec "errno actions take no argument"
      | None, "short", Some a -> (
          match int_of_string_opt a with
          | Some k when k >= 0 -> Short k
          | _ -> bad spec "short(k) needs a non-negative byte count")
      | None, "delay", Some a -> (
          match float_of_string_opt a with
          | Some d when d >= 0.0 && Float.is_finite d -> Delay d
          | _ -> bad spec "delay(s) needs a non-negative finite duration")
      | None, ("short" | "delay"), None -> bad spec "missing argument"
      | None, _, _ -> bad spec "unknown action"
    in
    Some (prob, left, skip, action)
  end

let arm t name spec =
  let sites = List.remove_assoc name t.sites in
  match parse_spec spec with
  | None -> t.sites <- sites
  | Some (prob, left, skip, action) ->
      let rng = Rng.create (t.seed lxor string_seed name) in
      t.sites <-
        (name, { spec = String.trim spec; prob; left; skip; action; rng }) :: sites

(* Full HIRE_FAILPOINTS value: ';'/','-separated [seed=N] and
   [site=spec] terms.  The seed term is applied first regardless of
   position so site streams are always derived from it. *)
let load value =
  let terms =
    String.split_on_char ';' value
    |> List.concat_map (String.split_on_char ',')
    |> List.map String.trim
    |> List.filter (fun s -> not (String.equal s ""))
  in
  let split_term term =
    match String.index_opt term '=' with
    | None -> invalid_arg (Printf.sprintf "HIRE_FAILPOINTS: bad term %S (want site=spec)" term)
    | Some i ->
        ( String.trim (String.sub term 0 i),
          String.trim (String.sub term i (String.length term - i) |> fun s ->
                       String.sub s 1 (String.length s - 1)) )
  in
  let kvs = List.map split_term terms in
  let seed =
    match List.assoc_opt "seed" kvs with
    | None -> 0
    | Some v -> (
        match int_of_string_opt v with
        | Some n -> n
        | None -> invalid_arg (Printf.sprintf "HIRE_FAILPOINTS: bad seed %S" v))
  in
  activate ~seed;
  let t = Option.get !current in
  List.iter (fun (k, v) -> if not (String.equal k "seed") then arm t k v) kvs

let resolve () =
  if not !resolved then begin
    resolved := true;
    match Sys.getenv_opt "HIRE_FAILPOINTS" with
    | None | Some "" | Some "0" -> current := None
    | Some v -> load v
  end

let init_env () = resolve ()

(* Programmatic arming adds to whatever the environment armed. *)
let set name spec =
  resolve ();
  let t =
    match !current with
    | Some t -> t
    | None ->
        activate ~seed:0;
        Option.get !current
  in
  arm t name spec

let clear name =
  resolve ();
  match !current with
  | None -> ()
  | Some t -> t.sites <- List.remove_assoc name t.sites

let reset () =
  current := None;
  resolved := false

let enabled () =
  resolve ();
  !current <> None

let eval name =
  resolve ();
  match !current with
  | None -> None
  | Some t -> (
      match List.assoc_opt name t.sites with
      | None -> None
      | Some s ->
          if s.left = 0 then None
          else if s.skip > 0 then begin
            s.skip <- s.skip - 1;
            None
          end
          else if not (Rng.bernoulli s.rng s.prob) then None
          else begin
            if s.left > 0 then s.left <- s.left - 1;
            if Obs.enabled () then begin
              Obs.Registry.incr (Obs.Registry.counter "failpt.fired");
              Obs.Registry.incr (Obs.Registry.counter ("failpt.fired." ^ name))
            end;
            Some s.action
          end)

let armed_sites () =
  resolve ();
  match !current with
  | None -> []
  | Some t ->
      List.filter_map (fun (n, s) -> if s.left <> 0 then Some n else None) t.sites
      |> List.sort String.compare

let describe () =
  resolve ();
  match !current with
  | None -> ""
  | Some t ->
      let sites =
        List.sort (fun (a, _) (b, _) -> String.compare a b) t.sites
        |> List.map (fun (n, s) -> Printf.sprintf "%s=%s" n s.spec)
      in
      String.concat ";" (Printf.sprintf "seed=%d" t.seed :: sites)
