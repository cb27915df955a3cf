(* Per-layer metrics read off a traced run: each layer's span time,
   fuel and allocation, as a mean per mapping operation. *)

(* metric stem, span name *)
let timed =
  [
    ("synth.build", "synth.build");
    ("larcs.compile", "larcs.compile");
    ("topology.make", "topology.make");
    ("distcache.hops", "distcache.hops");
    ("ctx.build", "ctx.build");
    ("analyze.detect", "analyze.detect");
    ("strategy.canned", "strategy.canned");
    ("strategy.systolic", "strategy.systolic");
    ("strategy.group", "strategy.group");
    ("mwm.contract", "strategy.mwm");
    ("place", "pipeline.place");
    ("coarsen", "coarsen");
    ("multilevel.run", "strategy.multilevel");
    ("route.mm_route", "route.mm_route");
    ("route.coarse", "route.coarse");
    ("mapping.validate", "mapping.validate");
    ("metrics.completion", "metrics.completion");
    ("metrics.summary", "metrics.summary");
    ("netsim.run", "netsim.run");
  ]

(* layers whose deterministic counts are reported *)
let counted =
  [
    "ctx.build"; "analyze.detect"; "strategy.canned"; "strategy.systolic";
    "strategy.group"; "mwm.contract"; "place"; "coarsen"; "multilevel.run";
    "route.mm_route"; "route.coarse"; "mapping.validate"; "metrics.completion";
    "metrics.summary";
  ]

(* [place.s] rather than [place_s]: a stem without a dot takes [.s] *)
let time_name stem = if String.contains stem '.' then stem ^ "_s" else stem ^ ".s"

let calls (tr : Trace.t) span =
  match List.find_opt (fun r -> r.Trace.r_name = span) (Trace.table tr) with
  | Some r -> r.Trace.r_calls
  | None -> 0

(* the per-layer metrics of [tr], each divided by [ops] *)
let metrics (tr : Trace.t) ~ops =
  let rows = Trace.table tr in
  let ops = float_of_int (max 1 ops) in
  let find span = List.find_opt (fun r -> r.Trace.r_name = span) rows in
  let get f span = match find span with Some r -> f r | None -> 0.0 in
  let total = get (fun r -> r.Trace.r_total) in
  let fuel = get (fun r -> float_of_int r.Trace.r_fuel) in
  let alloc = get (fun r -> r.Trace.r_alloc_mw) in
  List.map (fun (stem, span) -> (time_name stem, total span /. ops, "s")) timed
  @ List.concat_map
      (fun stem ->
        let span = List.assoc stem timed in
        [
          (stem ^ ".fuel", fuel span /. ops, "count");
          (stem ^ ".alloc_mw", alloc span /. ops, "Mword");
        ])
      counted

(* the work counts the traced pipeline gathered, per operation *)
let counts_of (c : Pipe.counts) ~ops =
  let ops = float_of_int (max 1 ops) in
  let per x = float_of_int x /. ops in
  [
    ("dispatch.reject_s", c.Pipe.reject_s /. ops, "s");
    ( "dispatch.useful_ratio",
      (if c.Pipe.attempted = 0 then 0.0
       else float_of_int c.Pipe.candidates /. float_of_int c.Pipe.attempted),
      "ratio" );
    ("mwm.matched_pairs", per c.Pipe.mwm_pairs, "count");
    ("mwm.greedy_merges", per c.Pipe.mwm_merges, "count");
    ("refine.swaps", per c.Pipe.refine_swaps, "count");
    ("coarsen.levels", per c.Pipe.coarsen_levels, "count");
    ("multilevel.refine_moves", per c.Pipe.refine_moves, "count");
    ("route.mm_rounds", per c.Pipe.mm_rounds, "count");
    ("route.coarse_pairs", per c.Pipe.coarse_pairs, "count");
    ("route.coarse_messages", per c.Pipe.coarse_messages, "count");
  ]

(* the daemon's own layers; zero on the map workloads, which never
   reach them *)
let service_names =
  [
    ("service.time_p50_ms", "ms"); ("service.time_p99_ms", "ms");
    ("service.attempts", "count"); ("cache.programs.hit_ratio", "ratio");
    ("cache.topologies.hit_ratio", "ratio"); ("cache.evictions", "count");
    ("daemon.queue_wait_p50_ms", "ms"); ("daemon.queue_wait_p99_ms", "ms");
    ("daemon.shed", "count");
  ]
