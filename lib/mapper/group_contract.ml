module Perm = Oregami_perm.Perm
module Group = Oregami_perm.Group
module Cayley = Oregami_perm.Cayley
module Taskgraph = Oregami_taskgraph.Taskgraph
module Digraph = Oregami_graph.Digraph

type t = {
  group : Group.t;
  correspondence : int array;
  subgroup : int list;
  normal : bool;
  cluster_of : int array;
  clusters : int list array;
  internalized : int;
}

let phase_function tg (cp : Taskgraph.comm_phase) =
  let n = tg.Taskgraph.n in
  let f = Array.make n (-1) in
  let ok = ref true in
  for v = 0 to n - 1 do
    if Digraph.out_degree cp.Taskgraph.edges v = 1 then
      Digraph.iter_succ (fun w _ -> f.(v) <- w) cp.Taskgraph.edges v
    else ok := false
  done;
  if !ok && Perm.is_bijection n (fun i -> f.(i)) then Some (Perm.of_array f) else None

let generators_of tg =
  let phases = tg.Taskgraph.comm_phases in
  if phases = [] then None
  else begin
    let gens =
      List.map
        (fun cp -> Option.map (fun p -> (cp.Taskgraph.cp_name, p)) (phase_function tg cp))
        phases
    in
    if List.for_all Option.is_some gens then Some (List.map Option.get gens) else None
  end

let balanced_contraction_exists ~n ~procs =
  procs > 0 && n mod procs = 0
  && (n / procs = 1 || Option.is_some (Group.is_prime_power (n / procs)))

let coset_internalized group cosets gens =
  (* messages internalized per cluster for one coset partition; the
     coset property makes this uniform across clusters, so measure the
     first cluster *)
  List.fold_left
    (fun acc (_, g) -> acc + Cayley.internalized_per_block group cosets g)
    0 gens

let contract ?budget tg ~procs =
  let n = tg.Taskgraph.n in
  (* each poll covers one subgroup closure: O(n · |sub|) products, each
     an O(n) compose + hash, so n fuel units per closure keeps the
     group search on the same fuel scale as the per-task passes *)
  let poll () =
    match budget with None -> true | Some b -> Budget.poll b ~cost:n
  in
  let ( let* ) = Result.bind in
  let* gens =
    match generators_of tg with
    | Some g -> Ok g
    | None -> Error "a communication phase is not a bijection on the tasks"
  in
  let* () =
    if procs > 0 && n mod procs = 0 then Ok ()
    else Error (Printf.sprintf "%d tasks do not divide evenly over %d processors" n procs)
  in
  let* () = if poll () then Ok () else Error "mapping budget exhausted" in
  let* group =
    match Group.generate ~bound:n (List.map snd gens) with
    | Some g -> Ok g
    | None -> Error "group closure exceeds |X|: task graph is not a Cayley graph"
  in
  let* () =
    if Group.order group = n then Ok ()
    else Error (Printf.sprintf "group order %d differs from task count %d" (Group.order group) n)
  in
  let* () =
    if Group.uniform_cycle_lengths group then Ok ()
    else Error "some group element has unequal cycle lengths (action not regular)"
  in
  let* () =
    if Group.acts_regularly group then Ok ()
    else Error "group action is not transitive"
  in
  let target = n / procs in
  let candidates = Group.subgroups_of_order ~poll group target in
  let dead () = match budget with Some b -> Budget.exhausted b | None -> false in
  let* () =
    if candidates <> [] then Ok ()
    else if dead () then Error "mapping budget exhausted during subgroup search"
    else
      Error
        (Printf.sprintf "no subgroup of order %d found%s" target
           (if balanced_contraction_exists ~n ~procs then
              " (unexpected: Sylow guarantees one)"
            else ""))
  in
  (* score candidates: internalized messages first, normality as
     tie-break (a normal H makes the quotient a Cayley graph again).
     Scoring a candidate (cosets + conjugation check) costs another
     O(n · |sub|) round of products, so the budget is polled before
     each one; the first candidate is always scored so an exhausted
     budget still yields a usable coset partition. *)
  let scored =
    let rec go acc first = function
      | [] -> List.rev acc
      | sub :: rest ->
        if first || poll () then begin
          let cosets = Group.left_cosets group sub in
          let internal = coset_internalized group cosets gens in
          let normal = Group.is_normal group sub in
          go ((internal, normal, sub, cosets) :: acc) false rest
        end
        else List.rev acc
    in
    go [] true candidates
  in
  (match budget with
  | Some b when Budget.exhausted b -> Budget.note b "group-contract"
  | Some _ | None -> ());
  let best =
    List.fold_left
      (fun acc (i, nrm, sub, cosets) ->
        match acc with
        | None -> Some (i, nrm, sub, cosets)
        | Some (bi, bn, _, _) when (i, nrm) > (bi, bn) -> Some (i, nrm, sub, cosets)
        | Some _ -> acc)
      None scored
  in
  match best with
  | None -> Error "no candidate subgroup"
  | Some (internalized, normal, subgroup, cosets) ->
    let correspondence = Cayley.correspondence group in
    let blocks = Cayley.task_partition group cosets in
    let cluster_of = Array.make n (-1) in
    List.iteri (fun c members -> List.iter (fun t -> cluster_of.(t) <- c) members) blocks;
    let clusters = Array.of_list blocks in
    Ok { group; correspondence; subgroup; normal; cluster_of; clusters; internalized }
