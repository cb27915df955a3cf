(* Tests for the graph substrate: digraph/ugraph, traversals,
   shortest paths, isomorphism, tree canonical forms. *)

module Digraph = Oregami_graph.Digraph
module Ugraph = Oregami_graph.Ugraph
module Traverse = Oregami_graph.Traverse
module Shortest = Oregami_graph.Shortest
module Iso = Oregami_graph.Iso
module Treecanon = Oregami_graph.Treecanon
module Topology = Oregami_topology.Topology
module Rng = Oregami_prelude.Rng

(* ------------------------------------------------------------------ *)

let test_digraph_basic () =
  let g = Digraph.create 4 in
  Digraph.add_edge ~w:3 g 0 1;
  Digraph.add_edge g 1 2;
  Digraph.add_edge ~w:2 g 0 1;
  Alcotest.(check int) "edge count with parallels" 3 (Digraph.edge_count g);
  Alcotest.(check int) "weight sums parallels" 5 (Digraph.weight g 0 1);
  Alcotest.(check int) "out degree" 2 (Digraph.out_degree g 0);
  Alcotest.(check int) "in degree" 1 (Digraph.in_degree g 2);
  Alcotest.(check (list (pair int int))) "succ order" [ (1, 3); (1, 2) ] (Digraph.succ g 0);
  let collect iter u =
    let seen = ref [] in
    iter (fun v w -> seen := (v, w) :: !seen) g u;
    List.sort compare !seen
  in
  Alcotest.(check (list (pair int int))) "iter_succ visits succ" [ (1, 2); (1, 3) ]
    (collect Digraph.iter_succ 0);
  Alcotest.(check (list (pair int int))) "iter_pred visits pred" [ (0, 2); (0, 3) ]
    (collect Digraph.iter_pred 1);
  Alcotest.(check bool) "mem" true (Digraph.mem_edge g 1 2);
  Alcotest.(check bool) "not mem" false (Digraph.mem_edge g 2 1)

let test_digraph_transpose () =
  let g = Digraph.of_edges 3 [ (0, 1, 1); (1, 2, 4) ] in
  let t = Digraph.transpose g in
  Alcotest.(check bool) "reversed" true (Digraph.mem_edge t 1 0 && Digraph.mem_edge t 2 1);
  Alcotest.(check bool) "double transpose equal" true (Digraph.equal g (Digraph.transpose t))

let test_digraph_union_undirected () =
  let a = Digraph.of_edges 3 [ (0, 1, 1) ] in
  let b = Digraph.of_edges 3 [ (1, 2, 2); (1, 0, 5) ] in
  let u = Digraph.union a b in
  Alcotest.(check int) "union weight" 8 (Digraph.total_weight u);
  let und = Digraph.to_undirected u in
  Alcotest.(check int) "undirected merges antiparallel" 6 (Ugraph.weight und 0 1)

let test_ugraph_basic () =
  let g = Ugraph.create 4 in
  Ugraph.add_edge ~w:2 g 0 1;
  Ugraph.add_edge ~w:3 g 1 0;
  Ugraph.add_edge g 2 3;
  Alcotest.(check int) "edges merged" 2 (Ugraph.edge_count g);
  Alcotest.(check int) "accumulated weight" 5 (Ugraph.weight g 0 1);
  Alcotest.(check int) "symmetric" 5 (Ugraph.weight g 1 0);
  Alcotest.(check int) "degree" 1 (Ugraph.degree g 0);
  Alcotest.(check int) "total" 6 (Ugraph.total_weight g);
  Alcotest.check_raises "self loop rejected" (Invalid_argument "Ugraph.add_edge: self loop")
    (fun () -> Ugraph.add_edge g 1 1)

let test_ugraph_regularity () =
  Alcotest.(check bool) "K4 regular" true (Ugraph.is_regular (Ugraph.complete 4));
  let path = Ugraph.of_edges 3 [ (0, 1, 1); (1, 2, 1) ] in
  Alcotest.(check bool) "path not regular" false (Ugraph.is_regular path);
  Alcotest.(check int) "max degree" 2 (Ugraph.max_degree path)

(* ------------------------------------------------------------------ *)

let ring n =
  let g = Ugraph.create n in
  for i = 0 to n - 2 do
    Ugraph.add_edge g i (i + 1)
  done;
  Ugraph.add_edge g 0 (n - 1);
  g

let test_traverse_bfs () =
  let g = ring 6 in
  let d = Traverse.bfs_dist g 0 in
  Alcotest.(check (list int)) "ring distances" [ 0; 1; 2; 3; 2; 1 ] (Array.to_list d);
  Alcotest.(check int) "first in order is start" 0 (List.hd (Traverse.bfs_order g 0))

let test_traverse_components () =
  let g = Ugraph.of_edges 6 [ (0, 1, 1); (1, 2, 1); (4, 5, 1) ] in
  Alcotest.(check (list (list int))) "components" [ [ 0; 1; 2 ]; [ 3 ]; [ 4; 5 ] ]
    (Traverse.components g);
  Alcotest.(check bool) "not connected" false (Traverse.is_connected g)

let test_traverse_topsort () =
  let g = Digraph.of_edges 5 [ (0, 2, 1); (1, 2, 1); (2, 3, 1); (3, 4, 1) ] in
  Alcotest.(check (option (list int))) "canonical topsort" (Some [ 0; 1; 2; 3; 4 ])
    (Traverse.topological_sort g);
  Alcotest.(check bool) "is dag" true (Traverse.is_dag g);
  let c = Digraph.of_edges 3 [ (0, 1, 1); (1, 2, 1); (2, 0, 1) ] in
  Alcotest.(check (option (list int))) "cycle" None (Traverse.topological_sort c)

let test_traverse_diameter () =
  Alcotest.(check int) "ring 6 diameter" 3 (Traverse.diameter (ring 6));
  Alcotest.(check int) "K5 diameter" 1 (Traverse.diameter (Ugraph.complete 5));
  let disconnected = Ugraph.create 3 in
  Ugraph.add_edge disconnected 0 1;
  Alcotest.(check int) "disconnected" max_int (Traverse.diameter disconnected)

(* ------------------------------------------------------------------ *)

let test_dijkstra_matches_bfs_on_unit () =
  let rng = Rng.create 3 in
  for _ = 0 to 30 do
    let n = 2 + Rng.int rng 10 in
    let g = Ugraph.create n in
    for _ = 0 to 2 * n do
      let u = Rng.int rng n and v = Rng.int rng n in
      if u <> v && not (Ugraph.mem_edge g u v) then Ugraph.add_edge g u v
    done;
    let d1 = Traverse.bfs_dist g 0 in
    let d2, _ = Shortest.dijkstra g 0 in
    Alcotest.(check (list int)) "bfs = dijkstra on unit weights" (Array.to_list d1)
      (Array.to_list d2)
  done

let test_dijkstra_weighted () =
  (* 0 -5- 1 -1- 2 and 0 -1- 3 -1- 2: shortest 0->2 is via 3 *)
  let g = Ugraph.of_edges 4 [ (0, 1, 5); (1, 2, 1); (0, 3, 1); (3, 2, 1) ] in
  let dist, parent = Shortest.dijkstra g 0 in
  Alcotest.(check int) "dist" 2 dist.(2);
  Alcotest.(check (option (list int))) "path" (Some [ 0; 3; 2 ]) (Shortest.path_to ~parent 2)

let test_all_shortest_paths_hypercube () =
  let g = Topology.graph (Topology.make (Topology.Hypercube 3)) in
  let paths = Shortest.all_shortest_paths g 0 7 in
  (* 3 bit flips in any order: 3! = 6 shortest paths *)
  Alcotest.(check int) "six paths" 6 (List.length paths);
  List.iter
    (fun p ->
      Alcotest.(check int) "length 4 nodes" 4 (List.length p);
      Alcotest.(check int) "starts 0" 0 (List.hd p);
      Alcotest.(check int) "ends 7" 7 (List.nth p 3))
    paths;
  Alcotest.(check int) "count agrees" 6 (Shortest.count_shortest_paths g 0 7);
  (* cap respected *)
  Alcotest.(check int) "capped" 2 (List.length (Shortest.all_shortest_paths ~cap:2 g 0 7))

let test_all_shortest_paths_self () =
  let g = Ugraph.complete 3 in
  Alcotest.(check (list (list int))) "self" [ [ 1 ] ] (Shortest.all_shortest_paths g 1 1);
  Alcotest.(check int) "count self" 1 (Shortest.count_shortest_paths g 1 1)

(* ------------------------------------------------------------------ *)

let test_iso_positive () =
  (* C4 with two labelings *)
  let a = Ugraph.of_edges 4 [ (0, 1, 1); (1, 2, 1); (2, 3, 1); (0, 3, 1) ] in
  let b = Ugraph.of_edges 4 [ (0, 2, 1); (2, 1, 1); (1, 3, 1); (0, 3, 1) ] in
  Alcotest.(check bool) "C4 isomorphic" true (Iso.isomorphic a b);
  match Iso.isomorphism a b with
  | None -> Alcotest.fail "expected mapping"
  | Some f -> Alcotest.(check bool) "automorphism check" true (Iso.is_automorphism b (Array.init 4 (fun i -> i)) && Array.length f = 4)

let test_iso_negative () =
  let path = Ugraph.of_edges 4 [ (0, 1, 1); (1, 2, 1); (2, 3, 1) ] in
  let star = Ugraph.of_edges 4 [ (0, 1, 1); (0, 2, 1); (0, 3, 1) ] in
  Alcotest.(check bool) "path vs star" false (Iso.isomorphic path star)

let test_iso_node_symmetric () =
  let c5 = Ugraph.of_edges 5 [ (0, 1, 1); (1, 2, 1); (2, 3, 1); (3, 4, 1); (0, 4, 1) ] in
  Alcotest.(check bool) "C5 node symmetric" true (Iso.is_node_symmetric c5);
  let p4 = Ugraph.of_edges 4 [ (0, 1, 1); (1, 2, 1); (2, 3, 1) ] in
  Alcotest.(check bool) "P4 not node symmetric" false (Iso.is_node_symmetric p4);
  let cube = Topology.graph (Topology.make (Topology.Hypercube 3)) in
  Alcotest.(check bool) "Q3 node symmetric" true (Iso.is_node_symmetric cube)

let test_digraph_iso () =
  let a = Digraph.of_edges 3 [ (0, 1, 2); (1, 2, 2); (2, 0, 2) ] in
  let b = Digraph.of_edges 3 [ (1, 0, 2); (0, 2, 2); (2, 1, 2) ] in
  Alcotest.(check bool) "directed triangles" true
    (Option.is_some (Iso.digraph_isomorphism a b));
  let c = Digraph.of_edges 3 [ (0, 1, 2); (1, 2, 2); (0, 2, 2) ] in
  Alcotest.(check bool) "cycle vs dag" false (Option.is_some (Iso.digraph_isomorphism a c))

(* ------------------------------------------------------------------ *)

let test_treecanon () =
  let topo k = Topology.graph (Topology.make k) in
  Alcotest.(check bool) "line is a tree" true (Treecanon.is_tree (topo (Topology.Line 5)));
  Alcotest.(check bool) "ring not a tree" false (Treecanon.is_tree (topo (Topology.Ring 5)));
  (* same tree, different labellings *)
  let a = Ugraph.of_edges 5 [ (0, 1, 1); (0, 2, 1); (2, 3, 1); (2, 4, 1) ] in
  let b = Ugraph.of_edges 5 [ (4, 3, 1); (4, 2, 1); (2, 1, 1); (2, 0, 1) ] in
  Alcotest.(check bool) "relabelled tree isomorphic" true (Treecanon.isomorphic_trees a b);
  (* different trees of equal size *)
  let star = Ugraph.of_edges 5 [ (0, 1, 1); (0, 2, 1); (0, 3, 1); (0, 4, 1) ] in
  Alcotest.(check bool) "star vs caterpillar" false (Treecanon.isomorphic_trees a star);
  (* binomial trees: recursive definition matches the topology module *)
  Alcotest.(check bool) "B3 self" true
    (Treecanon.isomorphic_trees (topo (Topology.Binomial_tree 3)) (topo (Topology.Binomial_tree 3)));
  Alcotest.(check bool) "B3 vs bintree(2)" false
    (Treecanon.isomorphic_trees (topo (Topology.Binomial_tree 3)) (topo (Topology.Binary_tree 2)))

let qcheck_tree_iso_under_relabel =
  QCheck.Test.make ~name:"tree canonical form invariant under relabelling" ~count:100
    QCheck.(pair (int_range 2 12) int)
    (fun (n, seed) ->
      let rng = Rng.create seed in
      (* random tree: each node attaches to a random earlier node *)
      let edges = List.init (n - 1) (fun i -> (i + 1, Rng.int rng (i + 1), 1)) in
      let t = Ugraph.of_edges n edges in
      let perm = Array.init n (fun i -> i) in
      Rng.shuffle rng perm;
      let t2 = Ugraph.of_edges n (List.map (fun (u, v, w) -> (perm.(u), perm.(v), w)) edges) in
      Treecanon.isomorphic_trees t t2)

let () =
  Alcotest.run "graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "basics" `Quick test_digraph_basic;
          Alcotest.test_case "transpose" `Quick test_digraph_transpose;
          Alcotest.test_case "union / to_undirected" `Quick test_digraph_union_undirected;
          Alcotest.test_case "digraph isomorphism" `Quick test_digraph_iso;
        ] );
      ( "ugraph",
        [
          Alcotest.test_case "basics" `Quick test_ugraph_basic;
          Alcotest.test_case "regularity" `Quick test_ugraph_regularity;
        ] );
      ( "traverse",
        [
          Alcotest.test_case "bfs" `Quick test_traverse_bfs;
          Alcotest.test_case "components" `Quick test_traverse_components;
          Alcotest.test_case "topological sort" `Quick test_traverse_topsort;
          Alcotest.test_case "diameter" `Quick test_traverse_diameter;
        ] );
      ( "shortest",
        [
          Alcotest.test_case "dijkstra = bfs on unit weights" `Quick
            test_dijkstra_matches_bfs_on_unit;
          Alcotest.test_case "dijkstra weighted" `Quick test_dijkstra_weighted;
          Alcotest.test_case "all shortest paths in Q3" `Quick
            test_all_shortest_paths_hypercube;
          Alcotest.test_case "self paths" `Quick test_all_shortest_paths_self;
        ] );
      ( "iso",
        [
          Alcotest.test_case "positive" `Quick test_iso_positive;
          Alcotest.test_case "negative" `Quick test_iso_negative;
          Alcotest.test_case "node symmetry" `Quick test_iso_node_symmetric;
        ] );
      ( "treecanon",
        [
          Alcotest.test_case "canonical forms" `Quick test_treecanon;
          QCheck_alcotest.to_alcotest qcheck_tree_iso_under_relabel;
        ] );
    ]
