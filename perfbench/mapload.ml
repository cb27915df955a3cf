(* The map workloads: what a default `oregami map SPEC -t TOPOLOGY`
   does, through the library's public entry points.  One operation
   builds the input graph, the topology and its hop matrix (the set-up
   part), then runs [Driver.report_taskgraph] with default options and
   [Metrics.summary] (the mapping part).  A round maps every graph of
   the workload once; rounds repeat until the run's time is spent. *)

open Oregami

type t = {
  name : string;
  graphs : int -> string list;  (* synth specs, from the seed *)
  topology : string;
}

(* [k] R-MAT graphs of [n] tasks whose generator seeds follow from the
   workload seed *)
let rmat ~n ~k seed =
  List.init k (fun i -> Printf.sprintf "synth:rmat:%d:%d" n ((seed * k) + i + 1))

let all =
  [
    { name = "grid-large"; graphs = (fun _ -> [ "synth:grid:25000" ]); topology = "torus:16x16" };
    { name = "rmat-large"; graphs = rmat ~n:2200 ~k:16; topology = "torus:16x16" };
    { name = "flat-rmat"; graphs = rmat ~n:500 ~k:20; topology = "torus:8x8" };
  ]

let ok what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* the set-up part of one operation *)
let setup ?tr graph topology =
  let span name f = match tr with Some tr -> Trace.span tr name f | None -> f () in
  let tg = span "synth.build" (fun () -> ok graph (Synth.build graph)) in
  let topo = span "topology.make" (fun () -> ok topology (Topology.of_string topology)) in
  span "distcache.hops" (fun () -> ignore (Distcache.hops topo));
  (tg, topo)

(* the mapping part, as shipped *)
let map_untraced tg topo =
  match fst (Driver.report_taskgraph ~options:Driver.default_options tg topo) with
  | Error e -> Error e
  | Ok m -> Ok (m, Metrics.summary m)

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let failure o what msg =
  o.failed <- o.failed + 1;
  if List.length o.errors < 5 then o.errors <- Printf.sprintf "%s: %s" what msg :: o.errors

(* what a mapping is checked against in later rounds: its assignment
   and scores.  Only these are kept, not the mapping itself, so the
   peak heap is that of one operation. *)
type reference = {
  assignment : int array;
  completion : int;
  contention : int;
  makespan : int;
}

let scores (m : Mapping.t) (s : Metrics.summary) =
  {
    assignment = Mapping.assignment m;
    completion = s.Metrics.completion_time;
    contention = s.Metrics.max_link_contention;
    makespan = 0;
  }

let reference_of m s = { (scores m s) with makespan = (Netsim.run m).Netsim.makespan }

let same (m : Mapping.t) (s : Metrics.summary) r =
  Mapping.assignment m = r.assignment
  && s.Metrics.completion_time = r.completion
  && s.Metrics.max_link_contention = r.contention

(* first sighting: the independent check; later ones: determinism *)
let verify o references graph m s =
  match Hashtbl.find_opt references graph with
  | Some r -> if not (same m s r) then failure o graph "mapping differs from the first round"
  | None -> (
    match Check.mapping m s with
    | Error e -> failure o graph ("output check: " ^ e)
    | Ok () ->
      if Metrics.completion_time m <> s.Metrics.completion_time then
        failure o graph "completion_time disagrees with Metrics.summary"
      else Hashtbl.replace references graph (reference_of m s))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ------------------------------------------------------------------ *)
(* metric run                                                         *)

let measure w ~seed ~seconds =
  let graphs = Array.of_list (w.graphs seed) in
  let k = Array.length graphs in
  let o = { attempted = 0; failed = 0; errors = [] } in
  let references = Hashtbl.create 8 in
  (* per graph: set-up and mapping seconds of every operation *)
  let samples = Hashtbl.create 8 in
  let t_start = Prelude.Clock.now () in
  (* the graphs in turn, each at least once, until the time is spent *)
  while o.attempted < k || Prelude.Clock.now () -. t_start < seconds do
    let graph = graphs.(o.attempted mod k) in
    o.attempted <- o.attempted + 1;
    let (tg, topo), ts = Prelude.Clock.time (fun () -> setup graph w.topology) in
    let r, tm = Prelude.Clock.time (fun () -> map_untraced tg topo) in
    let earlier = Option.value ~default:[] (Hashtbl.find_opt samples graph) in
    Hashtbl.replace samples graph ((ts, tm) :: earlier);
    match r with
    | Error e -> failure o graph ("mapping error: " ^ e)
    | Ok (m, s) -> verify o references graph m s
  done;
  let graphs = Array.to_list graphs in
  (* each graph's median, averaged over the graphs: a slow stretch
     moves no median, and one hard graph weighs 1/k *)
  let per_graph stat f =
    Stat.mean (List.map (fun g -> stat (List.map f (Hashtbl.find samples g))) graphs)
  in
  let map_s = per_graph Stat.median snd in
  let lat_s = per_graph Stat.median (fun (ts, tm) -> ts +. tm) in
  let lat_p99_s = per_graph (Stat.percentile 99.0) (fun (ts, tm) -> ts +. tm) in
  let setup_s = float_of_int k *. per_graph Stat.median fst in
  let quality f =
    Stat.mean (List.filter_map (fun g -> Option.map f (Hashtbl.find_opt references g)) graphs)
  in
  Printf.printf "%s: %d maps of %d graphs on %s (%s)\n" w.name o.attempted k w.topology
    (String.concat ", " graphs);
  let metrics =
    [
      ("setup_s", setup_s, "s");
      ("map_s", map_s, "s");
      ("completion_model", quality (fun r -> float_of_int r.completion), "model-units");
      ("sim_makespan", quality (fun r -> float_of_int r.makespan), "sim-units");
      ("max_contention", quality (fun r -> float_of_int r.contention), "messages");
      ("peak_heap_mb", peak_heap_mb (), "MB");
      ("throughput_rps", 1.0 /. lat_s, "1/s");
      ("latency_p50_ms", 1e3 *. lat_s, "ms");
      ("latency_p99_ms", 1e3 *. lat_p99_s, "ms");
    ]
  in
  if Hashtbl.length references < k then
    failure o w.name "no checked mapping for some graph";
  (o, metrics, Printf.sprintf "samples: %d maps, %d to %d per graph" o.attempted (o.attempted / k)
                ((o.attempted + k - 1) / k))

(* ------------------------------------------------------------------ *)
(* traced run                                                         *)

let traced w ~seed ~seconds ~trace_file =
  let graphs = Array.of_list (w.graphs seed) in
  let k = Array.length graphs in
  let tr = Trace.create w.name in
  let c = Pipe.counts () in
  let o = { attempted = 0; failed = 0; errors = [] } in
  let untraced = ref [] and traced = ref [] and coverage = ref [] and hop_builds = ref 0 in
  let span name f = Trace.span tr name f in
  let t_start = Prelude.Clock.now () in
  while o.attempted < k || Prelude.Clock.now () -. t_start < seconds do
    let graph = graphs.(o.attempted mod k) in
    o.attempted <- o.attempted + 1;
    (* the untraced run this map is compared with.  The two take turns
       going first, and each starts from a collected heap, so neither
       pays for the other's garbage or the separate inner-layer calls. *)
    let untraced_map () =
      let tg0, topo0 = setup graph w.topology in
      Gc.full_major ();
      let r0, t0 = Prelude.Clock.time (fun () -> map_untraced tg0 topo0) in
      untraced := t0 :: !untraced;
      r0
    in
    let first = if o.attempted mod 2 = 1 then Some (untraced_map ()) else None in
    let tg, topo = span "setup" (fun () -> setup ~tr graph w.topology) in
    Gc.full_major ();
    let result, run_inner =
      span "map" (fun () ->
          let ctx =
            span "ctx.build" (fun () -> Ctx.of_taskgraph ~options:Driver.default_options tg topo)
          in
          let fuel () = Budget.fuel_used ctx.Ctx.budget in
          match Pipe.run tr c ctx with
          | Error e, inner -> (Error e, inner)
          | Ok m, inner ->
            (Ok (m, Trace.span tr ~fuel "metrics.summary" (fun () -> Metrics.summary m)), inner))
    in
    let root = Trace.last tr in
    let r0 = match first with Some r0 -> r0 | None -> untraced_map () in
    traced := Trace.dur root :: !traced;
    coverage := Trace.coverage tr root :: !coverage;
    run_inner ();
    hop_builds := !hop_builds + Distcache.hop_builds topo;
    match (result, r0) with
    | Error e, _ -> failure o graph ("traced mapping error: " ^ e)
    | _, Error e -> failure o graph ("mapping error: " ^ e)
    | Ok (m, s), Ok (m0, s0) -> (
      ignore (span "netsim.run" (fun () -> Netsim.run m));
      if not (same m s (scores m0 s0)) then
        failure o graph "traced decomposition differs from Driver.report_taskgraph"
      else
        match Check.mapping m s with
        | Error e -> failure o graph ("output check: " ^ e)
        | Ok () -> ())
  done;
  Trace.write_chrome tr trace_file;
  Trace.print_table tr;
  let ops = o.attempted in
  let metrics =
    Layers.metrics tr ~ops
    @ Layers.counts_of c ~ops
    @ [
        ("distcache.hop_builds", float_of_int !hop_builds /. float_of_int ops, "count");
        ("trace.overhead_ratio", Stat.median !traced /. Stat.median !untraced, "ratio");
        ("trace.coverage", Stat.median !coverage, "ratio");
      ]
    @ List.map (fun (n, u) -> (n, 0.0, u)) Layers.service_names
  in
  (o, metrics, Printf.sprintf "traced maps: %d" ops)
