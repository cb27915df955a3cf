(* The daemon-mix workload: a daemon process behind a Unix socket,
   driven from this process by [nproc] connections in a closed loop,
   each keeping [window] requests outstanding.  About 95% of requests
   are hot — the built-in LaRCS programs on the E8 topologies, whose
   compiled programs and topologies the daemon caches — and 5% are
   cold: a rotating set of torus specs longer than the daemon's
   topology cache bound, so each one builds its topology and hop
   matrix afresh. *)

open Oregami
module Memo = Prelude.Memo

let name = "daemon-mix"

let programs =
  [ "nbody"; "matmul"; "fft"; "topsort"; "divconq"; "annealing"; "jacobi"; "sor";
    "voting"; "spawned"; "matmul3d" ]

let e8_topologies = [ "hypercube:3"; "mesh:4x4"; "torus:4x4"; "ring:8" ]

let hot =
  Array.of_list
    (List.concat_map (fun p -> List.map (fun t -> p ^ " " ^ t) e8_topologies) programs)

(* 72 specs against the default cache bound of 64 *)
let cold =
  Array.of_list
    (List.concat_map
       (fun r -> List.init 8 (fun c -> Printf.sprintf "nbody torus:%dx%d" r (16 + c)))
       (List.init 9 (fun r -> 16 + r)))

let cold_percent = 5
let window = 4

(* the request sequence of a seed: hot picks and the cold rotation *)
let sequence seed =
  let rng = Prelude.Rng.create (1000003 + seed) in
  let rotation = Array.copy cold in
  Prelude.Rng.shuffle rng rotation;
  let next_cold = ref 0 in
  fun () ->
    if Prelude.Rng.int rng 100 < cold_percent then begin
      let line = rotation.(!next_cold mod Array.length rotation) in
      incr next_cold;
      (line, false)
    end
    else (Prelude.Rng.pick rng hot, true)

(* ------------------------------------------------------------------ *)
(* the daemon process                                                 *)

(* the child: serve until SIGTERM, then report the peak heap.  It
   also drains when the benchmark process dies without stopping it. *)
let child sock =
  let parent = Unix.getppid () in
  let orphan_watch ctl =
    let watch () =
      while Unix.getppid () = parent do
        Thread.delay 0.2
      done;
      Daemon.shutdown ctl
    in
    ignore (Thread.create watch ())
  in
  let code = Daemon.run ~ready:orphan_watch (Daemon.default_config (Daemon.Unix_socket sock)) in
  Printf.printf "top_heap_words %d\n%!" (Gc.quick_stat ()).Gc.top_heap_words;
  exit code

type proc = { pid : int; out : Unix.file_descr; sock : string }

(* the running daemon, for [kill] when the benchmark itself fails *)
let live = ref None

let kill () =
  Option.iter
    (fun p ->
      (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
      (try Sys.remove p.sock with Sys_error _ -> ()))
    !live;
  live := None

let spawn sock =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--daemon-child"; sock |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let p = { pid; out = rd; sock } in
  live := Some p;
  p

let rec connect sock tries =
  match Daemon.connect (Daemon.Unix_socket sock) with
  | fd -> fd
  | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) when tries > 0 ->
    Unix.sleepf 0.005;
    connect sock (tries - 1)

(* SIGTERM, wait for the drain; returns the child's peak heap in MB *)
let stop p =
  Unix.kill p.pid Sys.sigterm;
  let ic = Unix.in_channel_of_descr p.out in
  let report = try Some (input_line ic) with End_of_file -> None in
  close_in_noerr ic;
  let status = snd (Unix.waitpid [] p.pid) in
  live := None;
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> failwith (Printf.sprintf "daemon exited %d" n)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> failwith "daemon died of a signal");
  if Sys.file_exists p.sock then failwith "daemon left its socket file behind";
  match report with
  | Some l -> (
    match String.split_on_char ' ' l with
    | [ "top_heap_words"; w ] ->
      float_of_string w *. float_of_int (Sys.word_size / 8) /. 1048576.0
    | _ -> failwith ("unexpected daemon report: " ^ l))
  | None -> failwith "daemon reported no heap size"

(* ------------------------------------------------------------------ *)
(* the closed-loop client                                             *)

type answer = {
  request : string;
  is_hot : bool;
  conn : int;
  t_send : float;
  t_recv : float;
  line : string;
}

type conn = {
  index : int;
  fd : Unix.file_descr;
  mutable ord : int;  (* the daemon numbers each connection's requests *)
  pending : (int, string * bool * float) Hashtbl.t;
  mutable partial : string;
}

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let send c (line, is_hot) =
  c.ord <- c.ord + 1;
  Hashtbl.replace c.pending c.ord (line, is_hot, Prelude.Clock.now ());
  write_all c.fd (line ^ "\n")

let field i line = List.nth_opt (String.split_on_char '\t' line) i

(* keep [window] requests outstanding on every connection until
   [next] runs dry or [until] passes, then collect what is in flight *)
let closed_loop conns ~next ~until =
  let answers = ref [] in
  let outstanding () = List.fold_left (fun a c -> a + Hashtbl.length c.pending) 0 conns in
  let feed c =
    if Prelude.Clock.now () < until then
      match next () with Some r -> send c r | None -> ()
  in
  List.iter (fun c -> for _ = 1 to window do feed c done) conns;
  let buf = Bytes.create 65536 in
  let idle = ref 0 in
  while outstanding () > 0 do
    let live = List.filter (fun c -> Hashtbl.length c.pending > 0) conns in
    match Unix.select (List.map (fun c -> c.fd) live) [] [] 1.0 with
    | [], _, _ ->
      incr idle;
      if !idle > 60 then failwith "daemon stopped answering"
    | ready, _, _ ->
      idle := 0;
      List.iter
        (fun c ->
          if List.mem c.fd ready then begin
            let n = Unix.read c.fd buf 0 (Bytes.length buf) in
            if n = 0 then failwith "daemon closed a connection";
            let t_recv = Prelude.Clock.now () in
            let lines = String.split_on_char '\n' (c.partial ^ Bytes.sub_string buf 0 n) in
            let rec consume = function
              | [] -> ()
              | [ rest ] -> c.partial <- rest
              | line :: rest ->
                let id = Option.bind (field 0 line) int_of_string_opt in
                (match Option.bind id (Hashtbl.find_opt c.pending) with
                | None -> failwith ("unexpected daemon answer: " ^ line)
                | Some (request, is_hot, t_send) ->
                  Hashtbl.remove c.pending (Option.get id);
                  answers := { request; is_hot; conn = c.index; t_send; t_recv; line } :: !answers;
                  feed c);
                consume rest
            in
            consume lines
          end)
        live
  done;
  List.rev !answers

let list_source l =
  let rest = ref l in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tl ->
      rest := tl;
      Some x

(* a daemon with its load connections, set up and warmed *)
type session = {
  proc : proc;
  control_in : in_channel;
  control_out : out_channel;
  conns : conn list;
}

let control_ask s line =
  output_string s.control_out (line ^ "\n");
  flush s.control_out;
  input_line s.control_in

let open_session sock ~nconns =
  let proc = spawn sock in
  let fd = connect sock 4000 in
  let s =
    {
      proc;
      control_in = Unix.in_channel_of_descr fd;
      control_out = Unix.out_channel_of_descr (Unix.dup ~cloexec:true fd);
      conns =
        List.init nconns (fun index ->
            { index; fd = connect sock 10; ord = 0; pending = Hashtbl.create 16; partial = "" });
    }
  in
  if control_ask s "ping" <> "pong" then failwith "daemon did not answer ping";
  let warm =
    closed_loop s.conns
      ~next:(list_source (List.map (fun l -> (l, true)) (Array.to_list hot)))
      ~until:infinity
  in
  (s, warm)

let close_session s =
  List.iter (fun c -> Unix.close c.fd) s.conns;
  close_out_noerr s.control_out;
  close_in_noerr s.control_in;
  stop s.proc

(* ------------------------------------------------------------------ *)
(* checking answers                                                   *)

(* every column but the id (0) and the elapsed milliseconds (7) *)
let masked line =
  String.concat "\t" (List.filteri (fun i _ -> i <> 0 && i <> 7) (String.split_on_char '\t' line))

let parse line =
  match Service.parse_request ~id:1 line with
  | Ok (Some r) -> r
  | Ok None | Error _ -> failwith ("unparseable request: " ^ line)

(* answers compared with an in-process [Service.run_request] oracle;
   returns the failures and the oracle table *)
let check_answers answers =
  let oracle = Hashtbl.create 128 in
  let errors = ref [] and failed = ref 0 in
  List.iter
    (fun a ->
      let want =
        match Hashtbl.find_opt oracle a.request with
        | Some w -> w
        | None ->
          let w = Service.render Service.Tsv (Service.run_request (parse a.request)) in
          Hashtbl.replace oracle a.request w;
          w
      in
      let bad msg =
        incr failed;
        if List.length !errors < 5 then errors := Printf.sprintf "%s: %s" a.request msg :: !errors
      in
      if field 3 a.line <> Some "ok" then bad ("daemon answered " ^ a.line)
      else if masked a.line <> masked want then
        bad (Printf.sprintf "answer %S, oracle %S" a.line want))
    answers;
  (!failed, !errors, oracle)

(* quality of the hot set's mappings, recomputed in process; the
   completion column of every hot answer must agree *)
let hot_quality oracle =
  let errors = ref [] in
  let rows =
    Array.to_list
      (Array.map
         (fun line ->
           let req = parse line in
           let source, bindings =
             Result.get_ok (Service.load_program req.Service.rq_program)
           in
           let compiled = Result.get_ok (Larcs.Compile.compile_source ~bindings source) in
           let topo = Result.get_ok (Topology.of_string req.Service.rq_topology) in
           let ctx = Ctx.of_compiled ~options:req.Service.rq_options compiled topo in
           match Driver.run ctx with
           | Error e ->
             errors := (line ^ ": " ^ e) :: !errors;
             None
           | Ok (m, _) ->
             let s = Metrics.summary m in
             (match Check.mapping m s with
             | Error e -> errors := (line ^ ": output check: " ^ e) :: !errors
             | Ok () -> ());
             (match Option.map (field 6) (Hashtbl.find_opt oracle line) with
             | Some (Some c) when c <> string_of_int s.Metrics.completion_time ->
               errors := (line ^ ": completion differs from the daemon's") :: !errors
             | Some _ | None -> ());
             Some (s, (Netsim.run m).Netsim.makespan))
         hot)
  in
  let rows = List.filter_map Fun.id rows in
  let mean f = Stat.mean (List.map (fun r -> float_of_int (f r)) rows) in
  ( mean (fun (s, _) -> s.Metrics.completion_time),
    mean (fun (_, mk) -> mk),
    mean (fun (s, _) -> s.Metrics.max_link_contention),
    !errors )

(* ------------------------------------------------------------------ *)
(* the runs                                                           *)

let setups = 7

let elapsed_s a = Option.fold ~none:nan ~some:float_of_string (field 7 a.line) /. 1e3

type run = {
  setup_times : float list;
  warm : answer list;  (* the warm-up passes of every set-up *)
  answers : answer list;  (* the measured window *)
  window_s : float;
  stats : string;  (* the daemon's [stats] line after the window *)
  heap_mb : float;
  sent : string list;  (* the request sequence, in order *)
}

let drive ~sock ~seed ~seconds =
  let nconns = Prelude.Pool.default_jobs () in
  let setup_times = ref [] and warm = ref [] in
  let rec set_up k =
    let (s, w), dt = Prelude.Clock.time (fun () -> open_session sock ~nconns) in
    setup_times := dt :: !setup_times;
    warm := w @ !warm;
    if k > 1 then begin
      ignore (close_session s);
      set_up (k - 1)
    end
    else s
  in
  let s = set_up setups in
  let gen = sequence seed in
  let sent = ref [] in
  let next () =
    let r = gen () in
    sent := fst r :: !sent;
    Some r
  in
  let t0 = Prelude.Clock.now () in
  let answers = closed_loop s.conns ~next ~until:(t0 +. seconds) in
  let t1 = List.fold_left (fun acc a -> Float.max acc a.t_recv) t0 answers in
  let stats = control_ask s "stats" in
  let heap_mb = close_session s in
  {
    setup_times = !setup_times;
    warm = !warm;
    answers;
    window_s = t1 -. t0;
    stats;
    heap_mb;
    sent = List.rev !sent;
  }

let latency_ms a = (a.t_recv -. a.t_send) *. 1e3

type outcome = { attempted : int; failed : int; errors : string list }

(* both runs check every answer, warm-up included *)
let checked warm answers =
  let all = warm @ answers in
  let failed, errors, oracle = check_answers all in
  let completion, makespan, contention, qerrors = hot_quality oracle in
  ( {
      attempted = List.length all + Array.length hot;
      failed = failed + List.length qerrors;
      errors = errors @ qerrors;
    },
    (completion, makespan, contention) )

let measure ~sock ~seed ~seconds =
  let r = drive ~sock ~seed ~seconds in
  let answers = r.answers in
  let o, (completion, makespan, contention) = checked r.warm answers in
  let lats = List.map latency_ms answers in
  let hot_n = List.length (List.filter (fun a -> a.is_hot) answers) in
  Printf.printf "%s: %d requests (%d hot, %d cold) on %d connections, window %d\n" name
    (List.length answers) hot_n (List.length answers - hot_n) (Prelude.Pool.default_jobs ()) window;
  let metrics =
    [
      ("setup_s", Stat.median r.setup_times, "s");
      ("map_s", Stat.median (List.map elapsed_s answers), "s");
      ("completion_model", completion, "model-units");
      ("sim_makespan", makespan, "sim-units");
      ("max_contention", contention, "messages");
      ("peak_heap_mb", r.heap_mb, "MB");
      ("throughput_rps", float_of_int (List.length answers) /. r.window_s, "1/s");
      ("latency_p50_ms", Stat.median lats, "ms");
      ("latency_p99_ms", Stat.percentile 99.0 lats, "ms");
    ]
  in
  ( o,
    metrics,
    Printf.sprintf "samples: %d requests (latency_*), %d set-ups" (List.length lats) setups )

(* a number from the daemon's stats line: [(key N)], looked up inside
   the [(within (size ...) ...)] group when [within] is given *)
let stats_field ?within stats key =
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length stats then failwith ("no " ^ sub ^ " in " ^ stats)
      else if String.sub stats i n = sub then i + n
      else go (i + 1)
    in
    go from
  in
  let from = match within with Some c -> find (Printf.sprintf "(%s (size " c) 0 | None -> 0 in
  let at = find (Printf.sprintf "(%s " key) from in
  float_of_string (String.sub stats at (String.index_from stats at ')' - at))

(* in-process replay of the first requests through the public layers:
   [Service.load_program] + LaRCS compile and [Topology]/[Distcache]
   behind LRU caches of the daemon's bound, then the traced pipeline *)
let replay tr c lines =
  let bound = 64 in
  let programs = Memo.create ~bound () and topologies = Memo.create ~bound () in
  (* the shipped service path on its own caches, for the overhead
     ratio; it takes turns with the traced replay at going first, and
     each starts from a collected heap *)
  let caches = Service.caches ~bound () in
  let untraced = ref [] in
  let service req =
    Gc.full_major ();
    untraced := snd (Prelude.Clock.time (fun () -> Service.run_request ~caches req)) :: !untraced
  in
  let coverage = ref [] and traced = ref [] and errors = ref [] in
  List.iteri
    (fun i line ->
      let req = parse line in
      if i mod 2 = 0 then service req;
      Gc.full_major ();
      let span name f = Trace.span tr name f in
      let result, run_inner =
        span "request" (fun () ->
            let compiled =
              Memo.get programs req.Service.rq_program (fun () ->
                  span "larcs.compile" (fun () ->
                      let source, bindings =
                        Result.get_ok (Service.load_program req.Service.rq_program)
                      in
                      Result.get_ok (Larcs.Compile.compile_source ~bindings source)))
            in
            let topo =
              Memo.get topologies req.Service.rq_topology (fun () ->
                  let t =
                    span "topology.make" (fun () ->
                        Result.get_ok (Topology.of_string req.Service.rq_topology))
                  in
                  span "distcache.hops" (fun () -> ignore (Distcache.hops t));
                  t)
            in
            let ctx =
              span "ctx.build" (fun () ->
                  Ctx.of_compiled ~options:req.Service.rq_options compiled topo)
            in
            let fuel () = Budget.fuel_used ctx.Ctx.budget in
            match Pipe.run tr c ctx with
            | Error e, inner -> (Error e, inner)
            | Ok m, inner ->
              let score () = Metrics.completion_time m in
              (Ok (Trace.span tr ~fuel "metrics.completion" score), inner))
      in
      let root = Trace.last tr in
      traced := Trace.dur root :: !traced;
      coverage := Trace.coverage tr root :: !coverage;
      if i mod 2 = 1 then service req;
      run_inner ();
      match result with Ok _ -> () | Error e -> errors := (line ^ ": " ^ e) :: !errors)
    lines;
  (!traced, !untraced, !coverage, !errors)

let replayed = 300

let traced ~sock ~seed ~seconds ~trace_file =
  let tr = Trace.create name in
  let r = drive ~sock ~seed ~seconds in
  let answers = r.answers and stats = r.stats in
  List.iter
    (fun a ->
      let service = elapsed_s a *. 1e3 in
      Trace.add tr "request" ~lane:(3 + a.conn) ~t0:a.t_send ~t1:a.t_recv
        ~args:
          [
            ("request", a.request); ("kind", if a.is_hot then "hot" else "cold");
            ("service_ms", Printf.sprintf "%.3f" service);
            ("queue_wait_ms", Printf.sprintf "%.3f" (latency_ms a -. service));
          ])
    answers;
  let o, _ = checked r.warm answers in
  let service = List.map (fun a -> elapsed_s a *. 1e3) answers in
  let waits = List.map (fun a -> latency_ms a -. (elapsed_s a *. 1e3)) answers in
  let attempts =
    Stat.mean
      (List.map (fun a -> Option.fold ~none:nan ~some:float_of_string (field 8 a.line)) answers)
  in
  let ratio within =
    let h = stats_field ~within stats "hits" and m = stats_field ~within stats "misses" in
    h /. Float.max 1.0 (h +. m)
  in
  (* the layer split: the same request sequence replayed in process *)
  let lines = List.filteri (fun i _ -> i < replayed) r.sent in
  let req_tr = Trace.create name in
  let c = Pipe.counts () in
  let replay_traced, replay_untraced, coverage, rerrors = replay req_tr c lines in
  Trace.write_chrome { tr with Trace.spans = req_tr.Trace.spans @ tr.Trace.spans } trace_file;
  Trace.print_table req_tr;
  let ops = List.length lines in
  let metrics =
    Layers.metrics req_tr ~ops
    @ Layers.counts_of c ~ops
    @ [
        (* one hop-matrix build per topology-cache miss *)
        ( "distcache.hop_builds",
          float_of_int (Layers.calls req_tr "distcache.hops") /. float_of_int ops,
          "count" );
        ("trace.overhead_ratio", Stat.median replay_traced /. Stat.median replay_untraced, "ratio");
        ("trace.coverage", Stat.median coverage, "ratio");
        ("service.time_p50_ms", Stat.median service, "ms");
        ("service.time_p99_ms", Stat.percentile 99.0 service, "ms");
        ("service.attempts", attempts, "count");
        ("cache.programs.hit_ratio", ratio "programs", "ratio");
        ("cache.topologies.hit_ratio", ratio "topologies", "ratio");
        ( "cache.evictions",
          stats_field ~within:"programs" stats "evictions"
          +. stats_field ~within:"topologies" stats "evictions",
          "count" );
        ("daemon.queue_wait_p50_ms", Stat.median waits, "ms");
        ("daemon.queue_wait_p99_ms", Stat.percentile 99.0 waits, "ms");
        ("daemon.shed", stats_field stats "shed", "count");
      ]
  in
  ( { o with failed = o.failed + List.length rerrors; errors = o.errors @ rerrors },
    metrics,
    Printf.sprintf "requests: %d; replayed in process: %d" (List.length answers) ops )
