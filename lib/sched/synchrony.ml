module Mapping = Oregami_mapper.Mapping
module Taskgraph = Oregami_taskgraph.Taskgraph
module Phase_expr = Oregami_taskgraph.Phase_expr
module Topology = Oregami_topology.Topology
module Routes = Oregami_topology.Routes
module Netsim = Oregami_metrics.Netsim

type directive = { proc : int; order : int list }

let default_directives m =
  Mapping.tasks_on_proc m
  |> Array.to_list
  |> List.mapi (fun proc tasks -> { proc; order = tasks })
  |> List.filter (fun d -> d.order <> [])

let outgoing_volume (m : Mapping.t) task =
  let home = Mapping.proc_of_task m task in
  let total = ref 0 in
  List.iter
    (fun (cp : Taskgraph.comm_phase) ->
      Oregami_graph.Digraph.iter_succ
        (fun v w -> if Mapping.proc_of_task m v <> home then total := !total + w)
        cp.Taskgraph.edges task)
    m.Mapping.tg.Taskgraph.comm_phases;
  !total

let synchronized_directives m =
  default_directives m
  |> List.map (fun d ->
         let keyed =
           List.map (fun t -> (-outgoing_volume m t, t)) d.order |> List.sort compare
         in
         { d with order = List.map snd keyed })

let synchrony_sets _m directives =
  let max_rank =
    List.fold_left (fun acc d -> max acc (List.length d.order)) 0 directives
  in
  List.init max_rank (fun r ->
      List.filter_map (fun d -> List.nth_opt d.order r) directives)

(* finish time of each task when its processor runs the tasks that
   participate in the slot's exec phases sequentially in directive
   order *)
let exec_finish_times (m : Mapping.t) directives slot =
  let tg = m.Mapping.tg in
  let cost_in_slot task =
    List.fold_left
      (fun acc name ->
        match Taskgraph.exec_phase tg name with
        | Some ep -> acc + ep.Taskgraph.costs.(task)
        | None -> acc)
      0 slot.Phase_expr.execs
  in
  let fin = Hashtbl.create 64 in
  let slot_max = ref 0 in
  List.iter
    (fun d ->
      let t = ref 0 in
      List.iter
        (fun task ->
          let c = cost_in_slot task in
          if c > 0 then begin
            t := !t + c;
            Hashtbl.replace fin task !t
          end)
        d.order;
      slot_max := max !slot_max !t)
    directives;
  (fin, !slot_max)

let comm_messages (m : Mapping.t) slot releases =
  List.concat_map
    (fun name ->
      match List.find_opt (fun pr -> pr.Mapping.pr_phase = name) m.Mapping.routings with
      | None -> []
      | Some pr ->
        List.filter_map
          (fun re ->
            if re.Mapping.re_route.Routes.links = [] then None
            else begin
              let release =
                Option.value ~default:0 (Hashtbl.find_opt releases re.Mapping.re_src)
              in
              Some (re.Mapping.re_route, re.Mapping.re_volume, release)
            end)
          pr.Mapping.pr_edges)
    slot.Phase_expr.comms

let staggered_makespan ?(params = Netsim.default_params) (m : Mapping.t) directives =
  let trace = Phase_expr.trace m.Mapping.tg.Taskgraph.expr in
  let empty_releases = Hashtbl.create 1 in
  let is_exec_only slot = slot.Phase_expr.execs <> [] && slot.Phase_expr.comms = [] in
  let is_comm_only slot = slot.Phase_expr.comms <> [] && slot.Phase_expr.execs = [] in
  let rec walk total = function
    | [] -> total
    | e :: c :: rest when is_exec_only e && is_comm_only c ->
      (* overlap: a message departs as soon as its sender finishes *)
      let fin, exec_max = exec_finish_times m directives e in
      let comm_finish, _ = Netsim.simulate_released params m.Mapping.topo (comm_messages m c fin) in
      walk (total + max exec_max comm_finish) rest
    | slot :: rest ->
      let _, exec_max = exec_finish_times m directives slot in
      let comm_finish, _ =
        Netsim.simulate_released params m.Mapping.topo (comm_messages m slot empty_releases)
      in
      walk (total + exec_max + comm_finish) rest
  in
  walk 0 trace
