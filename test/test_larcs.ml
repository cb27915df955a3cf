(* LaRCS language tests: lexer, parser, evaluator, compiler, and the
   regularity analyses on the paper's own examples. *)

module Larcs = Oregami_larcs
module Taskgraph = Oregami_taskgraph.Taskgraph
module Phase_expr = Oregami_taskgraph.Phase_expr
module Digraph = Oregami_graph.Digraph
module Perm = Oregami_perm.Perm
module Group = Oregami_perm.Group

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let nbody_source =
  {|
-- the paper's running example (Fig 2b)
algorithm nbody(n, s);

nodetype body : 0 .. n-1 nodesymmetric;

comphase ring    { body i -> body ((i+1) mod n); }
comphase chordal { body i -> body ((i + (n+1)/2) mod n); }

exphase compute1 cost 10;
exphase compute2 cost 20;

phases ((ring; compute1)^((n+1)/2); chordal; compute2)^s;
|}

let compile_nbody n s =
  match Larcs.Compile.compile_source ~bindings:[ ("n", n); ("s", s) ] nbody_source with
  | Ok c -> c
  | Error m -> Alcotest.failf "nbody compile failed: %s" m

let test_lexer () =
  match Larcs.Lexer.tokenize "algorithm foo(n); -- comment\nphases a^2;" with
  | Error m -> Alcotest.failf "lexer: %s" m
  | Ok lexemes ->
    let kinds = List.map (fun l -> l.Larcs.Lexer.tok) lexemes in
    Alcotest.(check bool) "starts with algorithm" true
      (List.hd kinds = Larcs.Lexer.KW "algorithm");
    Alcotest.(check bool) "ends with EOF" true
      (List.nth kinds (List.length kinds - 1) = Larcs.Lexer.EOF)

let test_lexer_error () =
  match Larcs.Lexer.tokenize "algorithm $bad" with
  | Error m -> Alcotest.(check bool) "mentions position" true (String.length m > 0)
  | Ok _ -> Alcotest.fail "expected lexer error"

let test_parse_expr () =
  let eval s env =
    match Larcs.Parser.parse_expr s with
    | Ok e -> Larcs.Eval.expr_exn env e
    | Error m -> Alcotest.failf "parse_expr %S: %s" s m
  in
  Alcotest.(check int) "precedence" 7 (eval "1 + 2 * 3" []);
  Alcotest.(check int) "parens" 9 (eval "(1 + 2) * 3" []);
  Alcotest.(check int) "mod euclidean" 4 (eval "(0 - 1) mod 5" []);
  Alcotest.(check int) "div" 8 (eval "(n+1)/2" [ ("n", 15) ]);
  Alcotest.(check int) "xor" 6 (eval "5 xor 3" []);
  Alcotest.(check int) "pow" 32 (eval "pow(2, 5)" []);
  Alcotest.(check int) "log2" 4 (eval "log2(31)" []);
  Alcotest.(check int) "min max" 3 (eval "min(max(1,3), 7)" []);
  Alcotest.(check int) "unary minus" (-6) (eval "-2*3" [])

let test_parse_nbody () =
  match Larcs.Parser.parse nbody_source with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok p ->
    Alcotest.(check string) "name" "nbody" p.Larcs.Ast.prog_name;
    Alcotest.(check (list string)) "params" [ "n"; "s" ] p.Larcs.Ast.params;
    Alcotest.(check int) "nodetypes" 1 (List.length p.Larcs.Ast.nodetypes);
    Alcotest.(check int) "comphases" 2 (List.length p.Larcs.Ast.comphases);
    Alcotest.(check int) "exphases" 2 (List.length p.Larcs.Ast.exphases);
    let nt = List.hd p.Larcs.Ast.nodetypes in
    Alcotest.(check bool) "nodesymmetric" true nt.Larcs.Ast.nt_symmetric

let test_parse_errors () =
  let expect_error src =
    match Larcs.Parser.parse src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error for %S" src
  in
  expect_error "algorithm;";
  expect_error "algorithm a(n) nodetype t : 0..n;";
  expect_error "algorithm a(n); nodetype t : 0..n-1; phases;";
  expect_error "algorithm a(n); phases x^;";
  expect_error "algorithm a(n); comphase c { t i -> t i+ ; } phases c;"

let test_compile_nbody () =
  let c = compile_nbody 8 3 in
  let tg = c.Larcs.Compile.graph in
  Alcotest.(check int) "8 tasks" 8 tg.Taskgraph.n;
  let ring = Option.get (Taskgraph.comm_phase tg "ring") in
  Alcotest.(check int) "ring has 8 edges" 8 (Digraph.edge_count ring.Taskgraph.edges);
  Alcotest.(check bool) "ring 0->1" true (Digraph.mem_edge ring.Taskgraph.edges 0 1);
  Alcotest.(check bool) "ring 7->0" true (Digraph.mem_edge ring.Taskgraph.edges 7 0);
  let chordal = Option.get (Taskgraph.comm_phase tg "chordal") in
  (* (n+1)/2 = 4 for n = 8 *)
  Alcotest.(check bool) "chordal 0->4" true (Digraph.mem_edge chordal.Taskgraph.edges 0 4);
  Alcotest.(check bool) "declared symmetric" true tg.Taskgraph.declared_symmetric;
  (* phase expression: ((ring; compute1)^4; chordal; compute2)^3 *)
  Alcotest.(check int) "ring occurrences" 12 (Phase_expr.count_comm tg.Taskgraph.expr "ring");
  Alcotest.(check int) "chordal occurrences" 3
    (Phase_expr.count_comm tg.Taskgraph.expr "chordal");
  Alcotest.(check int) "trace length" ((4 * 2 + 2) * 3)
    (List.length (Phase_expr.trace tg.Taskgraph.expr))

let test_compile_missing_binding () =
  match Larcs.Compile.compile_source ~bindings:[ ("n", 8) ] nbody_source with
  | Error m ->
    Alcotest.(check bool) "mentions s" true (contains m "s")
  | Ok _ -> Alcotest.fail "expected missing-binding error"

let test_compile_out_of_range () =
  let src =
    {|
algorithm bad(n);
nodetype t : 0 .. n-1;
comphase c { t i -> t (i+1); }
phases c;
|}
  in
  match Larcs.Compile.compile_source ~bindings:[ ("n", 4) ] src with
  | Error m -> Alcotest.(check bool) "suggests guard" true (String.length m > 10)
  | Ok _ -> Alcotest.fail "expected out-of-range error"

let test_compile_guarded () =
  let src =
    {|
algorithm line(n);
nodetype t : 0 .. n-1;
comphase right { t i -> t (i+1) when i < n-1; }
exphase work cost 1;
phases (right; work)^2;
|}
  in
  match Larcs.Compile.compile_source ~bindings:[ ("n", 5) ] src with
  | Error m -> Alcotest.failf "guarded compile failed: %s" m
  | Ok c ->
    let tg = c.Larcs.Compile.graph in
    let right = Option.get (Taskgraph.comm_phase tg "right") in
    Alcotest.(check int) "4 edges" 4 (Digraph.edge_count right.Taskgraph.edges)

let test_compile_2d () =
  let src =
    {|
algorithm jacobi(n);
nodetype cell : (0 .. n-1, 0 .. n-1);
comphase east  { cell (i, j) -> cell (i, j+1) when j < n-1; }
comphase south { cell (i, j) -> cell (i+1, j) when i < n-1; }
exphase relax : cell (i, j) cost 5;
phases (east; south; relax)^10;
|}
  in
  match Larcs.Compile.compile_source ~bindings:[ ("n", 4) ] src with
  | Error m -> Alcotest.failf "2d compile failed: %s" m
  | Ok c ->
    let tg = c.Larcs.Compile.graph in
    Alcotest.(check int) "16 tasks" 16 tg.Taskgraph.n;
    let east = Option.get (Taskgraph.comm_phase tg "east") in
    Alcotest.(check int) "12 east edges" 12 (Digraph.edge_count east.Taskgraph.edges);
    Alcotest.(check (option int)) "node id (1,2)" (Some 6)
      (Larcs.Compile.node_id c "cell" [ 1; 2 ]);
    Alcotest.(check (list int)) "label of 6" [ 1; 2 ] (Larcs.Compile.node_label_values c 6)

let test_volume_and_multi_type () =
  let src =
    {|
algorithm masterworker(w);
nodetype master : 0 .. 0;
nodetype worker : 0 .. w-1;
comphase distribute { master m -> worker 0 volume 100; }
comphase report { worker i -> master 0 volume i + 1; }
exphase work : worker i cost 10 * (i + 1);
phases distribute; work; report;
|}
  in
  match Larcs.Compile.compile_source ~bindings:[ ("w", 3) ] src with
  | Error m -> Alcotest.failf "multi-type compile failed: %s" m
  | Ok c ->
    let tg = c.Larcs.Compile.graph in
    Alcotest.(check int) "tasks" 4 tg.Taskgraph.n;
    Alcotest.(check int) "report volume" 6 (Taskgraph.phase_volume tg "report");
    let work = Option.get (Taskgraph.exec_phase tg "work") in
    Alcotest.(check int) "master cost 0" 0 work.Taskgraph.costs.(0);
    Alcotest.(check int) "worker 2 cost" 30 work.Taskgraph.costs.(3)

let test_analyze_nbody () =
  let c = compile_nbody 8 1 in
  let a = Larcs.Analyze.analyze c in
  Alcotest.(check bool) "all bijective" true a.Larcs.Analyze.all_bijective;
  (match a.Larcs.Analyze.cayley with
  | Some cy ->
    Alcotest.(check int) "group order 8" 8 (Group.order cy.Larcs.Analyze.group);
    Alcotest.(check bool) "is cayley" true cy.Larcs.Analyze.is_cayley
  | None -> Alcotest.fail "expected cayley analysis");
  (* the ring/chordal functions wrap with mod, so they are not affine
     on the label box — the systolic path must NOT trigger *)
  Alcotest.(check bool) "not affine" true (Option.is_none a.Larcs.Analyze.affine_maps)

let test_analyze_affine () =
  let src =
    {|
algorithm stencil(n);
nodetype cell : (0 .. n-1, 0 .. n-1);
comphase flow { cell (i, j) -> cell (i+1, j+2) when (i < n-1) and (j < n-2); }
phases flow;
|}
  in
  let c = Result.get_ok (Larcs.Compile.compile_source ~bindings:[ ("n", 6) ] src) in
  let a = Larcs.Analyze.analyze c in
  match a.Larcs.Analyze.affine_maps with
  | None -> Alcotest.fail "expected affine maps"
  | Some [ ("flow", [ m ]) ] ->
    Alcotest.(check bool) "identity matrix" true
      (m.Larcs.Analyze.matrix = [| [| 1; 0 |]; [| 0; 1 |] |]);
    Alcotest.(check bool) "offset (1,2)" true (m.Larcs.Analyze.offset = [| 1; 2 |])
  | Some _ -> Alcotest.fail "unexpected affine map shape"

let test_analyze_families () =
  let ring_src =
    {|
algorithm r(n);
nodetype t : 0 .. n-1;
comphase step { t i -> t ((i+1) mod n); }
phases step;
|}
  in
  let c = Result.get_ok (Larcs.Compile.compile_source ~bindings:[ ("n", 10) ] ring_src) in
  Alcotest.(check (option string)) "ring detected" (Some "ring")
    (Larcs.Analyze.detect_family c.Larcs.Compile.graph);
  let line_src =
    {|
algorithm l(n);
nodetype t : 0 .. n-1;
comphase step { t i -> t (i+1) when i < n-1; }
phases step;
|}
  in
  let c = Result.get_ok (Larcs.Compile.compile_source ~bindings:[ ("n", 7) ] line_src) in
  Alcotest.(check (option string)) "line detected" (Some "line")
    (Larcs.Analyze.detect_family c.Larcs.Compile.graph);
  let hyper_src =
    {|
algorithm h(d);
nodetype t : 0 .. pow(2,d)-1;
comphase d0 { t i -> t (i xor 1); }
comphase d1 { t i -> t (i xor 2); }
comphase d2 { t i -> t (i xor 4); }
phases d0; d1; d2;
|}
  in
  let c = Result.get_ok (Larcs.Compile.compile_source ~bindings:[ ("d", 3) ] hyper_src) in
  Alcotest.(check (option string)) "hypercube detected" (Some "hypercube")
    (Larcs.Analyze.detect_family c.Larcs.Compile.graph)

(* ------------------------------------------------------------------ *)
(* family detection: closed-form prefilters against built references   *)

module Ugraph = Oregami_graph.Ugraph
module Traverse = Oregami_graph.Traverse
module Treecanon = Oregami_graph.Treecanon
module Iso = Oregami_graph.Iso
module Topology = Oregami_topology.Topology
module Synth = Oregami_workloads.Synth
module Rng = Oregami_prelude.Rng

let degree_histogram g =
  let tbl = Hashtbl.create 8 in
  for u = 0 to Ugraph.node_count g - 1 do
    let d = Ugraph.degree g u in
    Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d))
  done;
  List.sort compare (Hashtbl.fold (fun d k acc -> (d, k) :: acc) tbl [])

let test_family_shapes () =
  let check_kind kind =
    let g = Topology.graph (Topology.make kind) in
    let name = Topology.name (Topology.make kind) in
    match Larcs.Analyze.shape kind with
    | None -> Alcotest.failf "%s: no closed form" name
    | Some sh ->
      Alcotest.(check int) (name ^ " nodes") (Ugraph.node_count g) sh.Larcs.Analyze.nodes;
      Alcotest.(check int) (name ^ " edges") (Ugraph.edge_count g) sh.Larcs.Analyze.edges;
      Alcotest.(check (list (pair int int)))
        (name ^ " degrees") (degree_histogram g) sh.Larcs.Analyze.degrees
  in
  for r = 2 to 12 do
    for c = 2 to 12 do
      check_kind (Topology.Mesh (r, c));
      check_kind (Topology.Torus (r, c))
    done
  done;
  for d = 0 to 8 do
    check_kind (Topology.Hypercube d)
  done;
  (* every tree order the detector can ask for up to 2^10 nodes *)
  for d = 0 to 9 do
    check_kind (Topology.Binary_tree d)
  done;
  for k = 0 to 10 do
    check_kind (Topology.Binomial_tree k)
  done

(* The detector as it was before the arithmetic prefilters: it builds
   the unit graph and every candidate reference topology.  Kept as the
   differential oracle: prefilters are necessary conditions only, so
   the first match and its relabeling must not change. *)
module Oracle = struct
  open Larcs.Analyze

  let unit_edge_set g =
    Ugraph.edges g |> List.map (fun (u, v, _) -> (u, v)) |> List.sort compare

  let relabel_for g kind =
    let reference = Topology.graph (Topology.make kind) in
    let n = Ugraph.node_count g in
    if n <> Ugraph.node_count reference || Ugraph.edge_count g <> Ugraph.edge_count reference
    then None
    else if unit_edge_set g = unit_edge_set reference then Some (Array.init n (fun i -> i))
    else if n <= 64 then Iso.isomorphism_distance_pruned g reference
    else None

  let path_order g start =
    let n = Ugraph.node_count g in
    let pos = Array.make n (-1) in
    let rec walk prev v i =
      pos.(v) <- i;
      let nexts =
        Ugraph.neighbors g v
        |> List.map fst
        |> List.filter (fun u -> u <> prev && pos.(u) = -1)
        |> List.sort compare
      in
      match nexts with [] -> () | u :: _ -> walk v u (i + 1)
    in
    walk (-1) start 0;
    if Array.exists (( = ) (-1)) pos then None else Some pos

  let detect tg =
    let g = Taskgraph.static_graph_unit tg in
    let n = Ugraph.node_count g in
    let degrees = List.init n (Ugraph.degree g) in
    let is_pow2 v = v > 0 && v land (v - 1) = 0 in
    let log2 v =
      let rec go v acc = if v <= 1 then acc else go (v / 2) (acc + 1) in
      go v 0
    in
    let with_relabel fam_name kind fam_dims =
      Option.map (fun relabel -> { fam_name; relabel; fam_dims }) (relabel_for g kind)
    in
    if n >= 2 && 2 * Ugraph.edge_count g = n * (n - 1) then
      Some { fam_name = "complete"; relabel = Array.init n (fun i -> i); fam_dims = None }
    else if n >= 3 && Traverse.is_connected g && List.for_all (( = ) 2) degrees then
      Option.map
        (fun relabel -> { fam_name = "ring"; relabel; fam_dims = None })
        (path_order g 0)
    else if
      n >= 2 && Traverse.is_connected g
      && Ugraph.edge_count g = n - 1
      && List.length (List.filter (( = ) 1) degrees) = 2
      && List.for_all (fun d -> d = 1 || d = 2) degrees
    then begin
      let endpoint =
        let rec find v = if Ugraph.degree g v = 1 then v else find (v + 1) in
        find 0
      in
      Option.map
        (fun relabel -> { fam_name = "line"; relabel; fam_dims = None })
        (path_order g endpoint)
    end
    else if Treecanon.is_tree g then begin
      let same kind = Treecanon.isomorphic_trees g (Topology.graph (Topology.make kind)) in
      if is_pow2 n && same (Topology.Binomial_tree (log2 n)) then
        with_relabel "binomial" (Topology.Binomial_tree (log2 n)) None
      else if is_pow2 (n + 1) && n > 1 && same (Topology.Binary_tree (log2 (n + 1) - 1))
      then with_relabel "bintree" (Topology.Binary_tree (log2 (n + 1) - 1)) None
      else None
    end
    else if is_pow2 n && n >= 4 && List.for_all (( = ) (log2 n)) degrees
            && Option.is_some (with_relabel "hypercube" (Topology.Hypercube (log2 n)) None)
    then with_relabel "hypercube" (Topology.Hypercube (log2 n)) None
    else begin
      let rec try_grid kind_of name r =
        if r * r > n then None
        else if n mod r = 0 && r >= 2 then begin
          let c = n / r in
          match with_relabel name (kind_of r c) (Some [ r; c ]) with
          | Some m -> Some m
          | None -> try_grid kind_of name (r + 1)
        end
        else try_grid kind_of name (r + 1)
      in
      match try_grid (fun r c -> Topology.Mesh (r, c)) "mesh" 2 with
      | Some m -> Some m
      | None ->
        if List.for_all (( = ) 4) degrees then
          try_grid (fun r c -> Topology.Torus (r, c)) "torus" 3
        else None
    end
end

let taskgraph_of_edges name n edges =
  let d = Digraph.create n in
  List.iter (fun (u, v) -> Digraph.add_edge d u v) edges;
  Taskgraph.make_exn ~name ~n
    ~comm_phases:[ ("comm", d) ]
    ~exec_phases:[ ("work", Array.make n 1) ]
    ~expr:(Phase_expr.Seq (Phase_expr.Comm "comm", Phase_expr.Exec "work"))
    ()

let describe = function
  | None -> "none"
  | Some m ->
    Printf.sprintf "%s [%s] dims=%s" m.Larcs.Analyze.fam_name
      (String.concat ";" (Array.to_list (Array.map string_of_int m.Larcs.Analyze.relabel)))
      (match m.Larcs.Analyze.fam_dims with
      | None -> "-"
      | Some ds -> String.concat "x" (List.map string_of_int ds))

let agrees name tg =
  let want = Oracle.detect tg and got = Larcs.Analyze.detect_family_match tg in
  if want <> got then
    Alcotest.failf "%s: oracle %s, detector %s" name (describe want) (describe got)

let phase_edges tg =
  List.concat_map
    (fun cp -> List.map (fun (u, v, _) -> (u, v)) (Digraph.edges cp.Taskgraph.edges))
    tg.Taskgraph.comm_phases

(* the graph, with one edge removed and with one added *)
let with_neighbours name n edges rng =
  let base = [ (name, taskgraph_of_edges name n edges) ] in
  let removed =
    match edges with
    | [] -> []
    | _ :: _ ->
      let k = Rng.int rng (List.length edges) in
      let edges' = List.filteri (fun i _ -> i <> k) edges in
      [ (name ^ " minus an edge", taskgraph_of_edges name n edges') ]
  in
  let added =
    if n < 2 then []
    else begin
      let u = Rng.int rng n in
      let v = (u + 1 + Rng.int rng (n - 1)) mod n in
      [ (name ^ " plus an edge", taskgraph_of_edges name n ((u, v) :: edges)) ]
    end
  in
  base @ removed @ added

let test_detect_differential () =
  let rng = Rng.create 15 in
  let kinds =
    List.concat
      [
        List.init 10 (fun i -> Topology.Line (i + 1));
        List.init 10 (fun i -> Topology.Ring (i + 1));
        List.init 8 (fun i -> Topology.Complete (i + 1));
        List.concat_map
          (fun r -> List.init 8 (fun c -> Topology.Mesh (r, c + 1)))
          [ 1; 2; 3; 4; 5; 6; 7; 8 ];
        List.concat_map
          (fun r -> List.init 8 (fun c -> Topology.Torus (r, c + 1)))
          [ 1; 2; 3; 4; 5; 6; 7; 8 ];
        List.init 7 (fun d -> Topology.Hypercube d);
        List.init 6 (fun d -> Topology.Binary_tree d);
        List.init 7 (fun k -> Topology.Binomial_tree k);
        [ Topology.Butterfly 1; Topology.Butterfly 2; Topology.Butterfly 3 ];
        [ Topology.Cube_connected_cycles 3; Topology.Hex_mesh (3, 4); Topology.Star_graph 4 ];
        [ Topology.De_bruijn 3; Topology.De_bruijn 4; Topology.Shuffle_exchange 3 ];
      ]
  in
  List.iter
    (fun kind ->
      let t = Topology.make kind in
      let g = Topology.graph t in
      let n = Ugraph.node_count g in
      let edges = List.map (fun (u, v, _) -> (u, v)) (Ugraph.edges g) in
      let name = Topology.name t in
      List.iter (fun (name, tg) -> agrees name tg) (with_neighbours name n edges rng);
      if n <= 64 then
        for round = 1 to 2 do
          let perm = Array.init n (fun i -> i) in
          Rng.shuffle rng perm;
          let relabeled = List.map (fun (u, v) -> (perm.(u), perm.(v))) edges in
          let name = Printf.sprintf "%s relabeled #%d" name round in
          List.iter (fun (name, tg) -> agrees name tg) (with_neighbours name n relabeled rng)
        done)
    kinds;
  List.iter
    (fun family ->
      for n = 2 to 200 do
        let tg = Synth.generate family ~n ~seed:1 in
        List.iter
          (fun (name, tg) -> agrees name tg)
          (with_neighbours tg.Taskgraph.tg_name n (phase_edges tg) rng)
      done)
    [ Synth.Grid; Synth.Ring; Synth.Tree; Synth.Rmat ]

let test_detect_rejection_cost () =
  (* a 158-row grid with a ragged last row: no family fits.  Rejecting
     it must cost a pass over the edges, not reference builds *)
  let tg = Result.get_ok (Synth.build "synth:grid:25000") in
  let edges = Ugraph.edge_count (Taskgraph.static_graph_unit tg) in
  let before = Gc.minor_words () in
  let found = Larcs.Analyze.detect_family_match tg in
  let words = Gc.minor_words () -. before in
  Alcotest.(check string) "rejected" "none" (describe found);
  let per_edge = words /. float_of_int edges in
  if per_edge > 64.0 then
    Alcotest.failf "rejection allocated %.1f minor words per edge (bound 64)" per_edge;
  (* exactly 160 x 160: still the natural mesh *)
  let tg = Result.get_ok (Synth.build "synth:grid:25600") in
  match Larcs.Analyze.detect_family_match tg with
  | None -> Alcotest.fail "160x160 grid not detected"
  | Some m ->
    Alcotest.(check string) "mesh" "mesh" m.Larcs.Analyze.fam_name;
    Alcotest.(check (option (list int))) "dims" (Some [ 160; 160 ]) m.Larcs.Analyze.fam_dims;
    Alcotest.(check bool) "identity relabeling" true
      (m.Larcs.Analyze.relabel = Array.init 25600 (fun i -> i))

let test_pretty_roundtrip () =
  let p = Result.get_ok (Larcs.Parser.parse nbody_source) in
  let printed = Larcs.Pretty.program p in
  match Larcs.Parser.parse printed with
  | Error m -> Alcotest.failf "re-parse of pretty output failed: %s\n%s" m printed
  | Ok p2 ->
    Alcotest.(check string) "name" p.Larcs.Ast.prog_name p2.Larcs.Ast.prog_name;
    Alcotest.(check int) "comphases" (List.length p.Larcs.Ast.comphases)
      (List.length p2.Larcs.Ast.comphases);
    (* compiled graphs agree *)
    let g1 =
      (Result.get_ok (Larcs.Compile.compile ~bindings:[ ("n", 9); ("s", 2) ] p)).Larcs.Compile.graph
    in
    let g2 =
      (Result.get_ok (Larcs.Compile.compile ~bindings:[ ("n", 9); ("s", 2) ] p2)).Larcs.Compile.graph
    in
    Alcotest.(check int) "same n" g1.Taskgraph.n g2.Taskgraph.n;
    List.iter2
      (fun (a : Taskgraph.comm_phase) (b : Taskgraph.comm_phase) ->
        Alcotest.(check bool)
          (Printf.sprintf "phase %s equal" a.Taskgraph.cp_name)
          true
          (Digraph.equal a.Taskgraph.edges b.Taskgraph.edges))
      g1.Taskgraph.comm_phases g2.Taskgraph.comm_phases

let test_dump () =
  let c = compile_nbody 4 1 in
  let d = Larcs.Compile.dump c in
  Alcotest.(check bool) "mentions algorithm" true
    (contains d "(algorithm nbody")

(* ------------------------------------------------------------------ *)
(* property tests                                                      *)

let gen_expr =
  let open QCheck.Gen in
  let var = oneofl [ "i"; "j"; "n" ] in
  sized
  @@ fix (fun self size ->
         if size <= 1 then
           oneof [ map (fun v -> Larcs.Ast.Int v) (int_range 0 20);
                   map (fun v -> Larcs.Ast.Var v) var ]
         else
           oneof
             [
               map (fun v -> Larcs.Ast.Int v) (int_range 0 20);
               map (fun v -> Larcs.Ast.Var v) var;
               map (fun e -> Larcs.Ast.Neg e) (self (size / 2));
               map3
                 (fun op a b -> Larcs.Ast.Bin (op, a, b))
                 (oneofl Larcs.Ast.[ Add; Sub; Mul; Div; Mod; Xor ])
                 (self (size / 2)) (self (size / 2));
               map2
                 (fun a b -> Larcs.Ast.Call ("min", [ a; b ]))
                 (self (size / 2)) (self (size / 2));
             ])

let qcheck_expr_roundtrip =
  QCheck.Test.make ~name:"pretty-printed expressions re-parse structurally" ~count:300
    (QCheck.make gen_expr) (fun e ->
      let printed = Larcs.Pretty.expr e in
      match Larcs.Parser.parse_expr printed with
      | Ok e2 -> e2 = e
      | Error _ -> false)

let gen_pexpr =
  let open QCheck.Gen in
  let phase = oneofl [ "a"; "b"; "c" ] in
  sized
  @@ fix (fun self size ->
         if size <= 1 then
           oneof [ return Larcs.Ast.PEps; map (fun p -> Larcs.Ast.PPhase p) phase ]
         else
           oneof
             [
               map (fun p -> Larcs.Ast.PPhase p) phase;
               map2 (fun a b -> Larcs.Ast.PSeq (a, b)) (self (size / 2)) (self (size / 2));
               map2 (fun a b -> Larcs.Ast.PPar (a, b)) (self (size / 2)) (self (size / 2));
               map2
                 (fun a k -> Larcs.Ast.PRep (a, Larcs.Ast.Int k))
                 (self (size / 2)) (int_range 0 4);
             ])

(* malformed-input corpus: every broken variant of a real program must
   come back as [Error] with a position, never an escaped exception *)
let compile_broken src =
  match Larcs.Compile.compile_source ~bindings:[ ("n", 8); ("s", 2) ] src with
  | Ok _ -> None
  | Error m ->
    if m = "" then Alcotest.fail "empty error message";
    Some m
  | exception e ->
    Alcotest.failf "exception escaped Compile: %s" (Printexc.to_string e)

let test_malformed_corpus () =
  (* every truncation of the running example *)
  for len = 0 to String.length nbody_source - 1 do
    ignore (compile_broken (String.sub nbody_source 0 len))
  done;
  (* garbling one character at a time with junk bytes *)
  List.iter
    (fun junk ->
      for pos = 0 to String.length nbody_source - 1 do
        let b = Bytes.of_string nbody_source in
        Bytes.set b pos junk;
        ignore (compile_broken (Bytes.to_string b))
      done)
    [ '\255'; '@'; '$'; '?' ];
  (* specific defects get positioned messages *)
  let positioned what src =
    match compile_broken src with
    | Some m ->
      Alcotest.(check bool)
        (Printf.sprintf "%s reports a position (%s)" what m)
        true (contains m "line")
    | None -> Alcotest.failf "%s: expected an Error" what
  in
  positioned "truncated mid-keyword" (String.sub nbody_source 0 60);
  positioned "junk byte" "algorithm q();\n\255";
  positioned "huge int literal"
    "algorithm q();\nnodetype t : 0 .. 99999999999999999999;\nphases t;";
  (* binary garbage *)
  ignore (compile_broken (String.init 64 (fun i -> Char.chr (i * 4 mod 256))));
  (* pathological nesting must not blow the stack *)
  let deep =
    "algorithm q(); exphase a cost 1; phases "
    ^ String.concat "" (List.init 200_000 (fun _ -> "("))
    ^ "a"
  in
  ignore (compile_broken deep);
  (* resource-exhaustion programs are semantic errors, not OOM crashes *)
  let named what needle src =
    match compile_broken src with
    | Some m ->
      Alcotest.(check bool) (Printf.sprintf "%s names the limit (%s)" what m) true
        (contains m needle)
    | None -> Alcotest.failf "%s: expected an Error" what
  in
  named "huge node space" "exceeds"
    "algorithm q();\nnodetype t : 0 .. 123456789123;\nexphase a cost 1;\nphases a;";
  named "overflowing 2d space" "exceeds"
    "algorithm q();\nnodetype t : (0 .. 4611686018427387902, 0 .. 4611686018427387902);\n\
     exphase a cost 1;\nphases a;";
  named "spawn tree too deep" "too deep"
    "algorithm q();\nspawntree t : depth 60;\nphases t_spawn;"

let qcheck_pexpr_roundtrip =
  (* sequences re-associate during parsing, so require idempotence of
     pretty . parse rather than structural equality *)
  QCheck.Test.make ~name:"pretty-printed phase expressions are parse-stable" ~count:300
    (QCheck.make gen_pexpr) (fun pe ->
      let printed = Larcs.Pretty.pexpr pe in
      let src = Printf.sprintf "algorithm q(); phases %s;" printed in
      match Larcs.Parser.parse src with
      | Error _ -> false
      | Ok p -> Larcs.Pretty.pexpr p.Larcs.Ast.phases = printed)

let () =
  Alcotest.run "larcs"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer;
          Alcotest.test_case "error position" `Quick test_lexer_error;
        ] );
      ( "parser",
        [
          Alcotest.test_case "expressions" `Quick test_parse_expr;
          Alcotest.test_case "nbody program" `Quick test_parse_nbody;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "pretty roundtrip" `Quick test_pretty_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_expr_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_pexpr_roundtrip;
        ] );
      ( "compiler",
        [
          Alcotest.test_case "nbody" `Quick test_compile_nbody;
          Alcotest.test_case "missing binding" `Quick test_compile_missing_binding;
          Alcotest.test_case "out of range target" `Quick test_compile_out_of_range;
          Alcotest.test_case "guards" `Quick test_compile_guarded;
          Alcotest.test_case "2d node space" `Quick test_compile_2d;
          Alcotest.test_case "volumes and multiple types" `Quick test_volume_and_multi_type;
          Alcotest.test_case "s-expression dump" `Quick test_dump;
          Alcotest.test_case "malformed corpus" `Quick test_malformed_corpus;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "nbody cayley" `Quick test_analyze_nbody;
          Alcotest.test_case "affine stencil" `Quick test_analyze_affine;
          Alcotest.test_case "family detection" `Quick test_analyze_families;
          Alcotest.test_case "family shapes match the built topologies" `Quick
            test_family_shapes;
          Alcotest.test_case "detector agrees with the reference-building oracle" `Quick
            test_detect_differential;
          Alcotest.test_case "rejection is one pass over the edges" `Quick
            test_detect_rejection_cost;
        ] );
    ]
