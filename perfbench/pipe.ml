(* The traced decomposition of [Driver.run]: the same public calls in
   pipeline order — each [Strategy.select] entry's [available] and
   [produce] under the dispatch rule, [Pipeline.place], the router
   [Ctx.resolve_routing] picks, [Mapping.validate], and the METRICS
   judge — each wrapped in a span.  [Pipeline.finish] is routing plus
   validation; it is driven as its two public halves so that each gets
   its own span.  Fallback placement is not replicated: a run in which
   every strategy declines is reported as a failure. *)

open Oregami
module Route = Mapper.Route
module Analyze = Larcs.Analyze
module Mwm = Mapper.Mwm_contract

type counts = {
  mutable attempted : int;  (* strategies whose [produce] ran *)
  mutable candidates : int;
  mutable reject_s : float;  (* time in strategies that declined *)
  mutable mm_rounds : int;
  mutable coarse_pairs : int;
  mutable coarse_messages : int;
  mutable refine_swaps : int;
  mutable coarsen_levels : int;
  mutable refine_moves : int;
  mutable mwm_pairs : int;
  mutable mwm_merges : int;
}

let counts () =
  {
    attempted = 0; candidates = 0; reject_s = 0.0; mm_rounds = 0; coarse_pairs = 0;
    coarse_messages = 0; refine_swaps = 0; coarsen_levels = 0; refine_moves = 0;
    mwm_pairs = 0; mwm_merges = 0;
  }

let counter stats name =
  Option.value ~default:0 (List.assoc_opt name (Stats.extra_counters stats))

(* the multilevel tier's node weights: total execution cost, min 1 *)
let node_weights (tg : Taskgraph.t) =
  let w = Array.make tg.Taskgraph.n 0 in
  List.iter
    (fun (ep : Taskgraph.exec_phase) ->
      Array.iteri (fun t c -> w.(t) <- w.(t) + c) ep.Taskgraph.costs)
    tg.Taskgraph.exec_phases;
  Array.map (fun x -> max 1 x) w

(* inner layers a strategy's [produce] calls internally, timed by a
   separate call on the same input with the context seed *)
let inner tr (c : counts) (ctx : Ctx.t) (s : Strategy.t) parent =
  let tg = ctx.Ctx.tg in
  match s.Strategy.name with
  | "canned" when tg.Taskgraph.declared_family = None ->
    ignore (Trace.contained tr ~parent "analyze.detect" (fun () -> Analyze.detect_family_match tg))
  | "multilevel" ->
    let finest = Coarsen.of_ugraph ~node_weight:(node_weights tg) (Ctx.static ctx) in
    let rng = Prelude.Rng.split (Prelude.Rng.create ctx.Ctx.options.Ctx.seed) in
    (* metered like the multilevel tier meters it *)
    let budget = Budget.unlimited () in
    ignore
      (Trace.contained tr ~parent
         ~fuel:(fun () -> Budget.fuel_used budget)
         "coarsen"
         (fun () ->
           Coarsen.coarsen ~poll:(fun cost -> Budget.poll budget ~cost) ~rng
             ~target:(Array.length ctx.Ctx.alive) finest))
  | "mwm" -> begin
    (* the producer is MWM-Contract itself; this call only reads its
       work counts, outside every span *)
    match
      Mwm.contract ?b:ctx.Ctx.options.Ctx.b (Ctx.static ctx) ~procs:(Ctx.procs ctx)
    with
    | Ok r ->
      c.mwm_pairs <- c.mwm_pairs + r.Mwm.matched_pairs;
      c.mwm_merges <- c.mwm_merges + r.Mwm.greedy_merges
    | Error _ -> ()
  end
  | _ -> ()

(* [run tr c ctx] maps like [Driver.run ctx].  It also returns the
   separate timing calls of the inner layers, for the caller to run
   once the mapping's own spans are closed. *)
let run tr (c : counts) (ctx : Ctx.t) =
  let fuel () = Budget.fuel_used ctx.Ctx.budget in
  let span name f = Trace.span tr ~fuel name f in
  let stats = ctx.Ctx.stats in
  let opts = ctx.Ctx.options in
  let inners = ref [] in
  let strategy (s : Strategy.t) =
    let produced = ref false in
    let r =
      Trace.span tr ~fuel
        ~args:(function
          | Ok l -> [ ("outcome", Printf.sprintf "produced %d" (List.length l)) ]
          | Error e -> [ ("outcome", "declined: " ^ e) ])
        ("strategy." ^ s.Strategy.name)
        (fun () ->
          match s.Strategy.available ctx with
          | Error e -> Error e
          | Ok () ->
            c.attempted <- c.attempted + 1;
            produced := true;
            s.Strategy.produce ctx)
    in
    let sp = Trace.last tr in
    let cands = match r with Ok l -> l | Error _ -> [] in
    if cands = [] then c.reject_s <- c.reject_s +. Trace.dur sp
    else c.candidates <- c.candidates + List.length cands;
    if !produced then inners := (fun () -> inner tr c ctx s sp.Trace.id) :: !inners;
    cands
  in
  let finish (cand : Strategy.candidate) =
    let swaps0 = Stats.refine_swaps stats in
    let placed = span "pipeline.place" (fun () -> Pipeline.place ctx cand) in
    c.refine_swaps <- c.refine_swaps + (Stats.refine_swaps stats - swaps0);
    match placed with
    | Error e -> Error e
    | Ok proc_of_cluster ->
      let tg = ctx.Ctx.tg and topo = ctx.Ctx.topo in
      let cluster_of = cand.Strategy.cluster_of in
      let proc_of_task = Array.init tg.Taskgraph.n (fun t -> proc_of_cluster.(cluster_of.(t))) in
      let budget = ctx.Ctx.budget and cap = opts.Ctx.route_cap in
      let routings =
        match Ctx.resolve_routing ctx with
        | Ctx.Mm_route ->
          let r, st =
            span "route.mm_route" (fun () -> Route.mm_route ~budget ~cap tg topo ~proc_of_task)
          in
          c.mm_rounds <- List.fold_left (fun a (_, k) -> a + k) c.mm_rounds st.Route.phases;
          r
        | Ctx.Coarse ->
          let r, st =
            span "route.coarse" (fun () ->
                Route.coarse_route ~budget ~cap ~jobs:opts.Ctx.jobs tg topo ~proc_of_task)
          in
          c.coarse_pairs <- c.coarse_pairs + st.Route.co_pairs;
          c.coarse_messages <- c.coarse_messages + st.Route.co_messages;
          r
        | Ctx.Oblivious | Ctx.Auto ->
          span "route.oblivious" (fun () -> Route.deterministic_route tg topo ~proc_of_task)
      in
      let m =
        { Mapping.tg; topo; cluster_of; proc_of_cluster; routings; strategy = cand.Strategy.label }
      in
      let constraints = if Ctx.constrained ctx then Some ctx.Ctx.constraints else None in
      match span "mapping.validate" (fun () -> Mapping.validate ?constraints m) with
      | Ok () -> Ok m
      | Error e -> Error ("mapping failed validation: " ^ e)
  in
  let result =
    match Strategy.select opts with
    | Error e -> Error e
    | Ok selection -> begin
      let dispatch, competing =
        if opts.Ctx.only <> [] then ([], selection)
        else List.partition (fun s -> s.Strategy.tier = Strategy.Dispatch) selection
      in
      let rec first = function
        | [] -> None
        | s :: rest -> ( match strategy s with [] -> first rest | cand :: _ -> Some cand)
      in
      match first dispatch with
      | Some cand -> finish cand
      | None ->
        let best = ref None in
        List.iter
          (fun cand ->
            match finish cand with
            | Error _ -> ()
            | Ok m -> (
              let score = span "metrics.completion" (fun () -> Metrics.completion_time m) in
              match !best with
              | Some (b, _) when b <= score -> ()
              | Some _ | None -> best := Some (score, m)))
          (List.concat_map strategy competing);
        match !best with
        | Some (_, m) -> Ok m
        | None -> Error "every strategy declined (fallback is not replicated)"
    end
  in
  c.coarsen_levels <- c.coarsen_levels + counter stats "multilevel levels";
  c.refine_moves <- c.refine_moves + counter stats "multilevel refine moves";
  (result, fun () -> List.iter (fun f -> f ()) (List.rev !inners))
