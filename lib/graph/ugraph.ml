type t = {
  n : int;
  adj : (int * int ref) list array;
  (* [adj.(u)] holds [(v, w)] with [w] shared with the entry in
     [adj.(v)], so weight accumulation stays consistent on both sides.
     Stored in reverse insertion order so insertion is O(1); [neighbors]
     reverses on read to keep the documented first-insertion order. *)
  weights : (int, int ref) Hashtbl.t; (* key: u * n + v with u < v *)
  mutable edge_count : int;
}

(* sized from n up front: the graphs built here have O(n) edges, and
   every reader of [weights] is order-independent *)
let create n =
  { n; adj = Array.make n []; weights = Hashtbl.create (max 16 n); edge_count = 0 }

let node_count g = g.n

let edge_count g = g.edge_count

let check g u =
  if u < 0 || u >= g.n then invalid_arg (Printf.sprintf "Ugraph: node %d out of [0,%d)" u g.n)

let key g u v = if u < v then (u * g.n) + v else (v * g.n) + u

let add_edge ?(w = 1) g u v =
  check g u;
  check g v;
  if u = v then invalid_arg "Ugraph.add_edge: self loop";
  match Hashtbl.find_opt g.weights (key g u v) with
  | Some r -> r := !r + w
  | None ->
    let r = ref w in
    Hashtbl.add g.weights (key g u v) r;
    g.adj.(u) <- (v, r) :: g.adj.(u);
    g.adj.(v) <- (u, r) :: g.adj.(v);
    g.edge_count <- g.edge_count + 1

let neighbors g u =
  check g u;
  List.rev_map (fun (v, r) -> (v, !r)) g.adj.(u)

let degree g u =
  check g u;
  List.length g.adj.(u)

let weight g u v =
  check g u;
  check g v;
  if u = v then 0
  else match Hashtbl.find_opt g.weights (key g u v) with Some r -> !r | None -> 0

let mem_edge g u v = weight g u v <> 0 || (u <> v && Hashtbl.mem g.weights (key g u v))

let edges g =
  Hashtbl.fold (fun k r acc -> (k / g.n, k mod g.n, !r) :: acc) g.weights []
  |> List.sort compare

let total_weight g = Hashtbl.fold (fun _ r acc -> acc + !r) g.weights 0

let of_edges n es =
  let g = create n in
  List.iter (fun (u, v, w) -> add_edge ~w g u v) es;
  g

let copy g = of_edges g.n (edges g)

let complete n =
  let g = create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      add_edge g u v
    done
  done;
  g

let max_degree g =
  let best = ref 0 in
  for u = 0 to g.n - 1 do
    best := max !best (List.length g.adj.(u))
  done;
  !best

let is_regular g =
  g.n = 0
  ||
  let d = degree g 0 in
  let rec go u = u >= g.n || (degree g u = d && go (u + 1)) in
  go 1

let equal a b = a.n = b.n && edges a = edges b

let pp fmt g =
  Format.fprintf fmt "@[<v>ugraph %d nodes %d edges" g.n g.edge_count;
  List.iter (fun (u, v, w) -> Format.fprintf fmt "@,  %d -- %d (w=%d)" u v w) (edges g);
  Format.fprintf fmt "@]"
