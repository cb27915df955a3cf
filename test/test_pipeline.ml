(* The pass-pipeline refactor must not move a single bit of the seed
   driver's output: the E11 dispatch table and the E8 simulated
   makespans below were captured from the monolithic driver before the
   strategy registry existed.  Plus: registry selection (--only /
   --exclude), determinism of the stats counters, and the newly
   registered KL / Stone / baseline strategies. *)

open Oregami
module Ugraph = Graph.Ugraph
module Mwm = Mapper.Mwm_contract
module Nn_embed = Mapper.Nn_embed
module Refine = Mapper.Refine

let topologies = [ "hypercube:3"; "mesh:4x4"; "torus:4x4"; "ring:8" ]
let topo s = Topology.make (Result.get_ok (Topology.parse s))

let report ?options spec topo_s =
  let compiled = Workloads.compile_exn spec in
  Driver.report ?options compiled (topo topo_s)

let mapping ?options spec topo_s =
  match report ?options spec topo_s with
  | Ok m, stats -> (m, stats)
  | Error e, _ -> Alcotest.failf "%s on %s: %s" spec.Workloads.w_name topo_s e

(* golden data: seed driver output per workload, in [topologies] order *)
let golden =
  [
    ("nbody", ([ "mwm+nn"; "group-theoretic"; "group-theoretic"; "mwm+nn" ],
               [ 444; 280; 276; 448 ]));
    ("matmul", ([ "blocks+nn"; "blocks+nn"; "blocks+nn"; "blocks+nn" ],
                [ 1710; 1278; 1152; 1794 ]));
    ("fft", ([ "canned:hypercube"; "group-theoretic"; "group-theoretic";
               "group-theoretic" ],
             [ 52; 36; 28; 62 ]));
    ("topsort", ([ "tiled+nn"; "tiled+nn"; "tiled+nn"; "tiled+nn" ],
                 [ 140; 95; 65; 140 ]));
    ("divconq", ([ "canned:binomial"; "canned:binomial"; "mwm+nn"; "mwm+nn" ],
                 [ 86; 48; 48; 90 ]));
    ("annealing", ([ "blocks+nn"; "blocks+nn"; "tiled+nn"; "blocks+nn" ],
                   [ 183; 153; 132; 183 ]));
    ("jacobi", ([ "canned:mesh"; "canned:mesh"; "canned:mesh"; "tiled+nn" ],
                [ 224; 112; 112; 256 ]));
    ("sor", ([ "blocks+nn"; "blocks+nn"; "blocks+nn"; "blocks+nn" ],
             [ 186; 132; 126; 210 ]));
    ("voting", ([ "group-theoretic"; "group-theoretic"; "group-theoretic";
                  "group-theoretic" ],
                [ 18; 20; 18; 20 ]));
    ("spawned", ([ "mwm+nn"; "mwm+nn"; "mwm+nn"; "mwm+nn" ],
                 [ 91; 90; 69; 125 ]));
    ("matmul3d", ([ "blocks+nn"; "systolic:projection"; "mwm+nn"; "blocks+nn" ],
                  [ 96; 48; 48; 128 ]));
  ]

let test_golden_dispatch () =
  List.iter
    (fun spec ->
      let name = spec.Workloads.w_name in
      let expected, _ = List.assoc name golden in
      List.iter2
        (fun topo_s want ->
          let m, _ = mapping spec topo_s in
          Alcotest.(check string)
            (Printf.sprintf "%s on %s" name topo_s)
            want m.Mapping.strategy)
        topologies expected)
    (Workloads.all ())

let test_golden_makespans () =
  List.iter
    (fun spec ->
      let name = spec.Workloads.w_name in
      let _, expected = List.assoc name golden in
      List.iter2
        (fun topo_s want ->
          let m, _ = mapping spec topo_s in
          Alcotest.(check int)
            (Printf.sprintf "%s on %s" name topo_s)
            want (Netsim.run m).Netsim.makespan)
        topologies expected)
    (Workloads.all ())

(* --only mwm must be the same computation as calling MWM-Contract and
   the embedding passes by hand, i.e. the seed's `general` function *)
let test_only_mwm_is_direct_mwm () =
  List.iter
    (fun (spec, topo_s) ->
      let t = topo topo_s in
      let tg = Workloads.task_graph_exn spec in
      let static = Taskgraph.static_graph tg in
      let r = Result.get_ok (Mwm.contract static ~procs:(Topology.node_count t)) in
      let k = Array.length r.Mwm.clusters in
      let cg = Ugraph.create k in
      List.iter
        (fun (u, v, w) ->
          let cu = r.Mwm.cluster_of.(u) and cv = r.Mwm.cluster_of.(v) in
          if cu <> cv then Ugraph.add_edge ~w cg cu cv)
        (Ugraph.edges static);
      let pc = Refine.improve_embedding cg t (Nn_embed.embed cg t) in
      let options = { Driver.default_options with Driver.only = [ "mwm" ] } in
      let m, _ = mapping ~options spec topo_s in
      Alcotest.(check string) "label" "mwm+nn" m.Mapping.strategy;
      Alcotest.(check (array int)) "clusters" r.Mwm.cluster_of m.Mapping.cluster_of;
      Alcotest.(check (array int)) "placement" pc m.Mapping.proc_of_cluster)
    [
      (Workloads.nbody ~n:15 ~s:2, "hypercube:3");
      (Workloads.sor ~n:6 ~iters:3, "mesh:4x4");
    ]

let test_deterministic () =
  (* the whole portfolio, including the RNG-drawing baselines: two runs
     must agree on the mapping and on every stats counter *)
  let options = { Driver.default_options with Driver.only = Strategy.names () } in
  List.iter
    (fun (spec, topo_s) ->
      let m1, s1 = mapping ~options spec topo_s in
      let m2, s2 = mapping ~options spec topo_s in
      Alcotest.(check string) "strategy" m1.Mapping.strategy m2.Mapping.strategy;
      Alcotest.(check (array int)) "assignment" (Mapping.assignment m1)
        (Mapping.assignment m2);
      Alcotest.(check (list (pair string int)))
        "counters" (Stats.counters s1) (Stats.counters s2))
    [
      (Workloads.nbody ~n:15 ~s:2, "hypercube:3");
      (Workloads.annealing ~n:6 ~sweeps:3, "torus:4x4");
    ]

let test_stats_recorded () =
  (* dispatch win: canned short-circuits, stats name the winner *)
  let m, stats = mapping (Workloads.fft ~d:4) "hypercube:3" in
  Alcotest.(check string) "strategy" "canned:hypercube" m.Mapping.strategy;
  (match Stats.winner stats with
  | Some ("canned", "canned:hypercube") -> ()
  | Some (n, l) -> Alcotest.failf "winner (%s, %s)" n l
  | None -> Alcotest.fail "no winner recorded");
  Alcotest.(check bool) "attempts" true (Stats.attempts stats <> []);
  Alcotest.(check int) "hop builds" 1 (Stats.hop_builds stats);
  (* compete win: attempts cover the rejected dispatch strategies too *)
  let m, stats = mapping (Workloads.sor ~n:6 ~iters:3) "ring:8" in
  Alcotest.(check string) "strategy" "blocks+nn" m.Mapping.strategy;
  (match Stats.winner stats with
  | Some ("blocks", "blocks+nn") -> ()
  | Some (n, l) -> Alcotest.failf "winner (%s, %s)" n l
  | None -> Alcotest.fail "no winner recorded");
  let attempted =
    List.map (fun (a : Stats.attempt) -> a.Stats.at_strategy) (Stats.attempts stats)
  in
  List.iter
    (fun s -> Alcotest.(check bool) ("attempted " ^ s) true (List.mem s attempted))
    [ "canned"; "systolic"; "group"; "mwm"; "tiled"; "blocks" ];
  Alcotest.(check bool) "scored candidates" true
    (List.exists (fun c -> c.Stats.cd_score <> None) (Stats.candidates stats));
  (* rendering smoke: both forms are non-empty and mention the winner *)
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "table mentions winner" true
    (contains (Stats.to_table stats) "blocks+nn");
  Alcotest.(check bool) "sexp mentions winner" true
    (contains (Stats.to_sexp stats) "blocks+nn")

let test_selection_errors () =
  let spec = Workloads.nbody ~n:15 ~s:2 in
  (* no applicable strategy: error + structured rejection reasons *)
  let options = { Driver.default_options with Driver.only = [ "canned" ] } in
  (match report ~options spec "ring:8" with
  | Ok m, _ -> Alcotest.failf "unexpectedly mapped via %s" m.Mapping.strategy
  | Error _, stats ->
    (match Stats.rejections stats with
    | ("canned", reason) :: _ ->
      Alcotest.(check bool) "reason text" true (String.length reason > 0)
    | [] -> Alcotest.fail "no rejection reasons recorded"
    | (s, _) :: _ -> Alcotest.failf "rejection from %s" s));
  (* unknown names are rejected up front, for --only and --exclude *)
  (match report ~options:{ Driver.default_options with Driver.only = [ "nosuch" ] }
           spec "ring:8"
   with
  | Error _, _ -> ()
  | Ok _, _ -> Alcotest.fail "unknown --only accepted");
  match report ~options:{ Driver.default_options with Driver.exclude = [ "nosuch" ] }
          spec "ring:8"
  with
  | Error _, _ -> ()
  | Ok _, _ -> Alcotest.fail "unknown --exclude accepted"

let test_ablation_strategies () =
  (* the off-by-default registry entries are reachable via --only and
     produce valid mappings with their own labels *)
  let spec = Workloads.nbody ~n:15 ~s:2 in
  List.iter
    (fun (name, label) ->
      let options = { Driver.default_options with Driver.only = [ name ] } in
      let m, stats = mapping ~options spec "hypercube:3" in
      Alcotest.(check string) (name ^ " label") label m.Mapping.strategy;
      Alcotest.(check bool) (name ^ " validates") true (Mapping.validate m = Ok ());
      match Stats.winner stats with
      | Some (w, _) -> Alcotest.(check string) (name ^ " winner") name w
      | None -> Alcotest.failf "%s: no winner recorded" name)
    [
      ("kl", "kl+nn");
      ("stone", "stone+nn");
      ("random", "random");
      ("naive-block", "block");
      ("round-robin", "round-robin");
    ];
  (* and they are absent from a default run's attempts *)
  let _, stats = mapping spec "hypercube:3" in
  List.iter
    (fun (a : Stats.attempt) ->
      Alcotest.(check bool) ("default excludes " ^ a.Stats.at_strategy) false
        (List.mem a.Stats.at_strategy
           [ "kl"; "stone"; "random"; "naive-block"; "round-robin" ]))
    (Stats.attempts stats)

let test_exclude () =
  (* excluding the dispatch winners reproduces the allow_* flag test *)
  let spec = Workloads.fft ~d:3 in
  let options = { Driver.default_options with Driver.exclude = [ "canned" ] } in
  let m, _ = mapping ~options spec "hypercube:3" in
  Alcotest.(check string) "canned excluded -> group" "group-theoretic"
    m.Mapping.strategy;
  let options =
    { Driver.default_options with Driver.exclude = [ "canned"; "group" ] }
  in
  let m, _ = mapping ~options spec "hypercube:3" in
  Alcotest.(check bool) "canned+group excluded -> general" true
    (List.mem m.Mapping.strategy [ "mwm+nn"; "tiled+nn"; "blocks+nn" ])

(* the explain tables must not move with wall-clock: two sinks that
   differ only in their timings render identically once every number
   is masked, so a transcript cannot flake on a slow pass *)
let test_stats_table_layout () =
  let table seconds =
    let st = Stats.create () in
    Stats.record_attempt st ~strategy:"canned"
      ~outcome:(Stats.Rejected "no declared or detected graph family") ~seconds;
    Stats.record_attempt st ~strategy:"group" ~outcome:(Stats.Produced 1) ~seconds;
    let c =
      Stats.record_candidate st ~strategy:"group" ~label:"group-theoretic"
        ~score:(Some 24) ~ok:true ~note:""
    in
    Stats.mark_winner st c;
    Stats.bump st "refine moves" 3;
    Stats.add_phase_seconds st "produce" seconds;
    Stats.add_phase_seconds st "validate" seconds;
    Stats.add_seconds st seconds;
    Stats.to_table st
  in
  let mask s =
    let b = Buffer.create (String.length s) in
    String.iteri
      (fun i ch ->
        let numeric c = (c >= '0' && c <= '9') || c = '.' in
        if not (numeric ch) then Buffer.add_char b ch
        else if i = 0 || not (numeric s.[i - 1]) then Buffer.add_char b '*')
      s;
    Buffer.contents b
  in
  let fast = table 0.001 and slow = table 12.345 in
  Alcotest.(check bool) "timings are printed" true (fast <> slow);
  Alcotest.(check string) "layout independent of the timings" (mask fast) (mask slow)

let () =
  Alcotest.run "pipeline"
    [
      ( "equivalence",
        [
          Alcotest.test_case "golden dispatch table (E11)" `Quick test_golden_dispatch;
          Alcotest.test_case "golden makespans (E8)" `Quick test_golden_makespans;
          Alcotest.test_case "--only mwm = direct MWM-Contract" `Quick
            test_only_mwm_is_direct_mwm;
        ] );
      ( "registry",
        [
          Alcotest.test_case "deterministic runs" `Quick test_deterministic;
          Alcotest.test_case "stats recorded" `Quick test_stats_recorded;
          Alcotest.test_case "stats table layout" `Quick test_stats_table_layout;
          Alcotest.test_case "selection errors" `Quick test_selection_errors;
          Alcotest.test_case "ablation strategies" `Quick test_ablation_strategies;
          Alcotest.test_case "exclude" `Quick test_exclude;
        ] );
    ]
