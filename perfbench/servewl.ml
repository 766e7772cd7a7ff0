(* The serve-openloop workload (run by hand; too unsteady on a small
   host to be one of BENCHMARK.json's workloads): a forked admission
   server ([Admission.start] + [Net.serve] on a Unix socket, default
   config, ticks on, WAL fsync on disk) driven by an open-loop client
   from this process, then SIGKILLed and recovered in-process.

   Submissions and their send times come from the seed.  Each latency is
   measured from the time its request was due, so a server stall also
   delays everything queued behind it; the generator's own lateness is
   measured too, and a run whose generator fell behind is invalid.

   The traced run adds an in-process replay of the same submissions and
   tick cadence, straight through [Protocol] and [Admission], once
   plain and once with spans and the program's obs switched on. *)

module Admission = Server.Admission
module Protocol = Server.Protocol
module Json = Server.Json
module Clock = Prelude.Clock
module Rng = Prelude.Rng

type params = {
  k : int;
  rate : float;  (** offered submissions per second *)
  conns : int;
  setups : int;  (** servers started per run for the set-up median *)
  recoveries : int;
}

let params ~smoke =
  let conns = max 1 (min 2 (Domain.recommended_domain_count ())) in
  if smoke then { k = 4; rate = 40.0; conns; setups = 2; recoveries = 1 }
  else { k = 8; rate = 60.0; conns; setups = 5; recoveries = 3 }

let config = Admission.default_config

(* A lateness p99 above this means the generator could not keep its
   schedule, so the latencies do not describe the offered load. *)
let max_late_p99_s = 0.02

let spec p ~seed = { Harness.Experiment.default with k = p.k; horizon = 0.0; seed }

(* ---------------------------------------------------------------- *)
(* The offered load                                                  *)
(* ---------------------------------------------------------------- *)

type req = { due : float;  (** seconds after the load starts *) line : string }

(* A narrow job mix, so that every seed offers the server about the
   same scheduling work. *)
let synth rng i ~seed =
  let groups =
    List.init 2 (fun g ->
        {
          Workload.Job.tg_index = g;
          count = Rng.int_in rng 2 4;
          cpu = Rng.float_in rng 1.0 3.0;
          mem = Rng.float_in rng 1.0 3.0;
          duration = Rng.float_in rng 5.0 10.0;
        })
  in
  let priority = if Rng.bernoulli rng 0.3 then Workload.Job.Service else Workload.Job.Batch in
  (* No INC: in this workload scheduling should do little (sim-k16-inc
     covers INC), and with INC "auto" admissions some seeds leave work
     pending that makes every later flush spin to the drain horizon. *)
  Protocol.render_submit
    { Protocol.priority; groups; inc = Protocol.No_inc;
      client_id = Some (Printf.sprintf "s%d-%d" seed i) }

(* One submission per 1/[p.rate] slot, at a seeded point of its slot:
   every 1 s tick then flushes the same batch of [p.rate] ± 1, short of
   the 64 that would flush early, so the run measures the server rather
   than the burstiness of the draw. *)
let schedule p ~seed ~seconds =
  let rng = Rng.create seed in
  Array.init
    (int_of_float (seconds *. p.rate))
    (fun i ->
      let due = (float_of_int i +. Rng.float rng 1.0) /. p.rate in
      { due; line = synth rng i ~seed })

(* ---------------------------------------------------------------- *)
(* Server process and client connections                             *)
(* ---------------------------------------------------------------- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat src f) in
      let oc = open_out_bin (Filename.concat dst f) in
      output_string oc (really_input_string ic (in_channel_length ic));
      close_in ic;
      close_out oc)
    (Sys.readdir src)

type conn = { fd : Unix.file_descr; buf : Buffer.t; inflight : int Queue.t }

let connect sock ~deadline =
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> { fd; buf = Buffer.create 4096; inflight = Queue.create () }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Clock.now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.001;
        go ()
  in
  go ()

let send c line =
  let data = Bytes.unsafe_of_string (line ^ "\n") in
  let rec write off =
    if off < Bytes.length data then write (off + Unix.write c.fd data off (Bytes.length data - off))
  in
  write 0

(* Read once from [c]; the complete lines received so far. *)
let read_lines c =
  let chunk = Bytes.create 65536 in
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then failwith "server closed the connection";
  Buffer.add_subbytes c.buf chunk 0 n;
  let all = Buffer.contents c.buf in
  let parts = String.split_on_char '\n' all in
  let rec split = function
    | [ rest ] ->
        Buffer.clear c.buf;
        Buffer.add_string c.buf rest;
        []
    | line :: more -> line :: split more
    | [] -> []
  in
  split parts

let rec read_reply c =
  match read_lines c with [] -> read_reply c | line :: _ -> line

type server = { pid : int; dir : string; sock : string; first : conn; setup_s : float }

(* Fork a server on a fresh state directory; set-up time runs from the
   fork to the first accepted connection. *)
let start_server p ~seed dir =
  mkdir_p dir;
  let sock = Filename.concat dir "sock" in
  flush_all ();
  let t0 = Clock.now () in
  match Unix.fork () with
  | 0 ->
      Unix._exit
        (try
           let engine = Admission.start ~dir:(Filename.concat dir "journal") ~config (spec p ~seed) in
           ignore
             (Server.Net.serve ~engine ~listen:(Server.Net.Unix_sock sock)
                ~tick_interval:config.round_interval ()
               : Sim.Simulator.result);
           0
         with _ -> 1)
  | pid ->
      let first = connect sock ~deadline:(t0 +. 20.0) in
      { pid; dir; sock; first; setup_s = Clock.now () -. t0 }

let stop_server s =
  send s.first "{\"op\":\"shutdown\"}";
  ignore (read_reply s.first : string);
  Unix.close s.first.fd;
  ignore (Unix.waitpid [] s.pid : int * Unix.process_status)

let kill_server s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid : int * Unix.process_status)

(* ---------------------------------------------------------------- *)
(* Open-loop load                                                    *)
(* ---------------------------------------------------------------- *)

type load = {
  ack_s : Samples.t;  (** acknowledged submissions, from due time *)
  late_s : Samples.t;  (** send time minus due time *)
  acked : int list;  (** admission ids *)
  refused : int;  (** rejected, errored, or never answered *)
}

let admitted_id line =
  match Json.parse line with
  | Ok v when Json.member "ok" v = Some (Json.Bool true) ->
      Option.bind (Json.member "id" v) Json.to_int
  | _ -> None

let drive conns reqs =
  let n = Array.length reqs in
  let ack_s = Samples.create () and late_s = Samples.create () in
  let acked = ref [] and answered = ref 0 and next = ref 0 in
  let t0 = Clock.now () +. 0.01 in
  let last_due = if n = 0 then 0.0 else reqs.(n - 1).due in
  let give_up = t0 +. last_due +. 10.0 in
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  let conn_of fd = List.find (fun c -> c.fd = fd) (Array.to_list conns) in
  while (!next < n || !answered < !next) && Clock.now () < give_up do
    while !next < n && t0 +. reqs.(!next).due <= Clock.now () do
      let c = conns.(!next mod Array.length conns) in
      Samples.add late_s (Clock.now () -. (t0 +. reqs.(!next).due));
      send c reqs.(!next).line;
      Queue.push !next c.inflight;
      incr next
    done;
    let timeout =
      if !next < n then Float.max 0.0 (t0 +. reqs.(!next).due -. Clock.now ()) else 0.05
    in
    let readable =
      match Unix.select fds [] [] timeout with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun fd ->
        let c = conn_of fd in
        let lines = read_lines c in
        let at = Clock.now () in
        List.iter
          (fun line ->
            let i = Queue.pop c.inflight in
            incr answered;
            match admitted_id line with
            | Some id ->
                acked := id :: !acked;
                Samples.add ack_s (at -. (t0 +. reqs.(i).due))
            | None -> ())
          lines)
      readable
  done;
  { ack_s; late_s; acked = !acked; refused = n - List.length !acked }

(* ---------------------------------------------------------------- *)
(* Recovery                                                          *)
(* ---------------------------------------------------------------- *)

(* Recover a copy of the crashed journal; checks that every acked
   admission survived and that the finished world's ledgers hold. *)
let recover_copy ~crashed ~dir ~acked ~fail =
  copy_dir crashed dir;
  let t0 = Clock.now () in
  let r = Admission.recover ~dir ~config () in
  let wall = Clock.now () -. t0 in
  let engine = r.Admission.engine in
  let lost = List.filter (fun id -> Admission.status engine id = None) acked in
  if lost <> [] then
    fail (Printf.sprintf "%d acked admission(s) missing after recovery" (List.length lost));
  ignore (Admission.finish engine : Sim.Simulator.result);
  (match Sim.Simulator.ledger_check (Sim.Service.sim (Admission.service engine)) with
  | Ok () -> ()
  | Error e -> fail ("recovered world: ledger check: " ^ e));
  (wall, r.Admission.replayed)

(* ---------------------------------------------------------------- *)
(* In-process replay of the same schedule (traced run)               *)
(* ---------------------------------------------------------------- *)

type replay = {
  parse : Samples.t;
  submit : Samples.t;
  barrier : Samples.t;
  flush : Samples.t;  (** flushes that injected something *)
  batch : Samples.t;
  mutable rejects : int;
  mutable events : int;
  mutable io_errors : int;
  mutable wall : float;
}

(* Submissions are applied in due order, each followed by its ack
   barrier, with a flush at every tick boundary of due time and
   whenever the batch fills: the live server's cadence without the
   socket. *)
let replay p ~seed ~dir reqs ~after_flush ~fail =
  let r =
    { parse = Samples.create (); submit = Samples.create (); barrier = Samples.create ();
      flush = Samples.create (); batch = Samples.create (); rejects = 0; events = 0;
      io_errors = 0; wall = 0.0 }
  in
  let t0 = Clock.now () in
  let e = Span.with_ "server.start" (fun () -> Admission.start ~dir ~config (spec p ~seed)) in
  let flush () =
    let t = Clock.now () in
    let n = Span.with_ "server.flush" (fun () -> Admission.flush e) in
    if n > 0 then begin
      Samples.add r.flush (Clock.now () -. t);
      Samples.add r.batch (float_of_int n)
    end;
    after_flush ()
  in
  let next_tick = ref config.round_interval in
  Array.iter
    (fun q ->
      while q.due >= !next_tick do
        flush ();
        next_tick := !next_tick +. config.round_interval
      done;
      (match Span.timed r.parse "server.parse" (fun () -> Protocol.parse_request q.line) with
      | Ok (Protocol.Submit js) -> (
          match Span.timed r.submit "server.submit" (fun () -> Admission.submit e js) with
          | Admission.Admitted _ -> ()
          | Admission.Rejected _ -> r.rejects <- r.rejects + 1)
      | _ -> fail "replay: request did not parse as a submission");
      if not (Span.timed r.barrier "journal.barrier" (fun () -> Admission.ack_barrier e)) then
        fail "replay: ack barrier failed";
      if Admission.batch_due e then flush ())
    reqs;
  flush ();
  r.events <- Sim.Simulator.events_processed (Sim.Service.sim (Admission.service e));
  r.io_errors <- (Admission.stats e).Admission.io_errors;
  ignore (Span.with_ "server.finish" (fun () -> Admission.finish e) : Sim.Simulator.result);
  after_flush ();
  r.wall <- Clock.now () -. t0;
  r

(* ---------------------------------------------------------------- *)
(* Runs                                                              *)
(* ---------------------------------------------------------------- *)

let ms = 1e3

let run ~smoke ~seed ~seconds ~traced ~perturb ~spans_path =
  let p = params ~smoke in
  let work = Printf.sprintf ".perfbench/serve-%d" (Unix.getpid ()) in
  let failures = ref [] in
  let fail m = failures := m :: !failures in
  Fun.protect ~finally:(fun () -> rm_rf work) @@ fun () ->
  let setups = Samples.create () in
  if not traced then
    for i = 2 to p.setups do
      let s = start_server p ~seed (Printf.sprintf "%s/setup-%d" work i) in
      Samples.add setups s.setup_s;
      stop_server s
    done;
  (* 80% of the run offers load; recovery takes most of the rest. *)
  let reqs = schedule p ~seed ~seconds:(seconds *. if traced then 0.5 else 0.8) in
  let s = start_server p ~seed (work ^ "/load") in
  Samples.add setups s.setup_s;
  let load, server_rss =
    Fun.protect ~finally:(fun () -> kill_server s) @@ fun () ->
    let conns =
      Array.init p.conns (fun i ->
          if i = 0 then s.first else connect s.sock ~deadline:(Clock.now () +. 10.0))
    in
    let load = drive conns reqs in
    let rss = Rss.peak_mb (string_of_int s.pid) in
    Array.iter (fun c -> Unix.close c.fd) conns;
    (load, rss)
  in
  let late_p99 = Samples.quantile load.late_s 0.99 in
  if late_p99 > max_late_p99_s then
    fail (Printf.sprintf "load generator fell behind: lateness p99 %.1f ms" (ms *. late_p99));
  let acked = if perturb then -1 :: load.acked else load.acked in
  let crashed = Filename.concat s.dir "journal" in
  let recover i = recover_copy ~crashed ~dir:(Printf.sprintf "%s/rec-%d" work i) ~acked ~fail in
  let ack_p50 = ms *. Samples.quantile load.ack_s 0.50 in
  let metrics =
    if not traced then begin
      let walls = Samples.create () in
      for i = 1 to p.recoveries do
        let wall, _ = recover i in
        Samples.add walls wall
      done;
      [
        ("setup_s", Samples.median setups);
        ("ack_p50_ms", ack_p50);
        ("ack_p99_ms", ms *. Samples.quantile load.ack_s 0.99);
        ("recover_s", Samples.median walls);
        ("peak_rss_mb", server_rss);
      ]
    end
    else begin
      let rec_wall, replayed = recover 0 in
      let plain = replay p ~seed ~dir:(work ^ "/replay-plain") reqs ~after_flush:ignore ~fail in
      let o = Progobs.create () in
      Span.reset ();
      Progobs.reset ~capacity:(1 lsl 20);
      Span.enabled := true;
      let r =
        Fun.protect ~finally:(fun () -> Span.enabled := false) @@ fun () ->
        Progobs.with_enabled (fun () ->
            replay p ~seed ~dir:(work ^ "/replay-traced") reqs
              ~after_flush:(fun () -> Progobs.drain o) ~fail)
      in
      Option.iter (fun path -> Span.write ~workload:"serve-openloop" path) spans_path;
      let q s x = Samples.quantile s x in
      let round_total = Samples.total o.round_s in
      Progobs.metrics o ~round_total
      @ [
        ("sim.events", float_of_int r.events);
        ("hire.round_s.total", round_total);
        ("hire.round_s.p50", q o.round_s 0.50);
        ("hire.round_s.p99", q o.round_s 0.99);
        ("hire.rounds", float_of_int (Samples.count o.round_s));
        ("server.parse_s.p50", q r.parse 0.50);
        ("server.submit_s.p50", q r.submit 0.50);
        ("server.submit_s.p99", q r.submit 0.99);
        ("journal.barrier_s.p50", q r.barrier 0.50);
        ("journal.barrier_s.p99", q r.barrier 0.99);
        ("journal.fsync_s", Progobs.hist_sum "journal.fsync_s");
        ("journal.appends", Progobs.counter "journal.appends");
        ("journal.bytes", Progobs.counter "journal.bytes");
        ("journal.commits", Progobs.counter "journal.commits");
        ("server.flush_s.p50", q r.flush 0.50);
        ("server.flush_s.p99", q r.flush 0.99);
        ("server.flush_batch_mean", Samples.mean r.batch);
        ( "server.net_self_ms",
          ack_p50 -. (ms *. (q r.parse 0.50 +. q r.submit 0.50 +. q r.barrier 0.50)) );
        ("journal.replayed_records", float_of_int replayed);
        ("server.recover_s_per_krecord", rec_wall /. Float.max 1e-3 (float_of_int replayed /. 1e3));
        ("server.rejects", float_of_int (load.refused + plain.rejects + r.rejects));
        ("journal.io_errors", float_of_int (plain.io_errors + r.io_errors));
        ("loadgen.late_p99_ms", ms *. late_p99);
        ("trace_overhead_ratio", (r.wall /. plain.wall) -. 1.0);
      ]
    end
  in
  (metrics, Array.length reqs, load.refused, List.rev !failures)
