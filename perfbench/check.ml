(* Independent output checker.  It re-derives every property from the
   mapping's raw arrays and link lists and deliberately does not call
   [Mapping.validate], so a bug there cannot hide a bad mapping here. *)

open Oregami
module Digraph = Graph.Digraph

let ( let* ) = Result.bind

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let placement (m : Mapping.t) =
  let n = m.Mapping.tg.Taskgraph.n in
  let procs = Topology.node_count m.Mapping.topo in
  let clusters = Array.length m.Mapping.proc_of_cluster in
  if Array.length m.Mapping.cluster_of <> n then
    fail "cluster_of has %d entries for %d tasks" (Array.length m.Mapping.cluster_of) n
  else begin
    let owner = Array.make procs (-1) in
    let err = ref None in
    Array.iteri
      (fun c p ->
        if !err = None then
          if p < 0 || p >= procs then
            err := Some (Printf.sprintf "cluster %d on processor %d, out of range" c p)
          else if owner.(p) >= 0 then
            err :=
              Some (Printf.sprintf "clusters %d and %d share processor %d" owner.(p) c p)
          else owner.(p) <- c)
      m.Mapping.proc_of_cluster;
    Array.iteri
      (fun t c ->
        if !err = None && (c < 0 || c >= clusters) then
          err := Some (Printf.sprintf "task %d in cluster %d of %d" t c clusters))
      m.Mapping.cluster_of;
    match !err with Some e -> Error e | None -> Ok ()
  end

let proc (m : Mapping.t) t = m.Mapping.proc_of_cluster.(m.Mapping.cluster_of.(t))

(* the link list walks from the source task's processor to the
   destination task's processor, one adjacent link at a time *)
let path (m : Mapping.t) phase (re : Mapping.routed_edge) =
  let topo = m.Mapping.topo in
  let nlinks = Topology.link_count topo in
  let src = proc m re.Mapping.re_src and dst = proc m re.Mapping.re_dst in
  let rec walk at = function
    | [] ->
      if at = dst then Ok ()
      else
        fail "%s: edge %d->%d ends on processor %d, not %d" phase re.Mapping.re_src
          re.Mapping.re_dst at dst
    | l :: rest ->
      if l < 0 || l >= nlinks then fail "%s: link id %d out of range" phase l
      else begin
        let u, v = Topology.link_endpoints topo l in
        if u = at then walk v rest
        else if v = at then walk u rest
        else
          fail "%s: edge %d->%d: link %d (%d-%d) does not touch processor %d" phase
            re.Mapping.re_src re.Mapping.re_dst l u v at
      end
  in
  walk src re.Mapping.re_route.Routes.links

(* every edge of every phase is routed exactly once, with its volume *)
let routes (m : Mapping.t) =
  let tg = m.Mapping.tg in
  let phases = tg.Taskgraph.comm_phases in
  let* () =
    List.fold_left
      (fun acc pr ->
        let* () = acc in
        if
          List.exists
            (fun (cp : Taskgraph.comm_phase) -> cp.Taskgraph.cp_name = pr.Mapping.pr_phase)
            phases
        then Ok ()
        else fail "routing for unknown phase %S" pr.Mapping.pr_phase)
      (Ok ()) m.Mapping.routings
  in
  List.fold_left
    (fun acc (cp : Taskgraph.comm_phase) ->
      let* () = acc in
      let name = cp.Taskgraph.cp_name in
      let want = Hashtbl.create 64 in
      List.iter
        (fun (u, v, w) ->
          let k = (u, v) in
          Hashtbl.replace want k (w :: Option.value ~default:[] (Hashtbl.find_opt want k)))
        (Digraph.edges cp.Taskgraph.edges);
      let routed =
        List.concat_map
          (fun pr -> if pr.Mapping.pr_phase = name then pr.Mapping.pr_edges else [])
          m.Mapping.routings
      in
      let* () =
        List.fold_left
          (fun acc (re : Mapping.routed_edge) ->
            let* () = acc in
            let k = (re.Mapping.re_src, re.Mapping.re_dst) in
            match Hashtbl.find_opt want k with
            | None | Some [] ->
              fail "%s: edge %d->%d routed but not in the task graph (or routed twice)"
                name re.Mapping.re_src re.Mapping.re_dst
            | Some (w :: rest) ->
              if w <> re.Mapping.re_volume then
                fail "%s: edge %d->%d carries volume %d, task graph says %d" name
                  re.Mapping.re_src re.Mapping.re_dst re.Mapping.re_volume w
              else begin
                Hashtbl.replace want k rest;
                path m name re
              end)
          (Ok ()) routed
      in
      Hashtbl.fold
        (fun (u, v) left acc ->
          let* () = acc in
          if left = [] then Ok () else fail "%s: edge %d->%d never routed" name u v)
        want (Ok ()))
    (Ok ()) phases

(* worst per-phase link load, recomputed from the link lists *)
let max_contention (m : Mapping.t) =
  let nlinks = Topology.link_count m.Mapping.topo in
  List.fold_left
    (fun acc pr ->
      let load = Array.make nlinks 0 in
      List.iter
        (fun (re : Mapping.routed_edge) ->
          List.iter (fun l -> load.(l) <- load.(l) + 1) re.Mapping.re_route.Routes.links)
        pr.Mapping.pr_edges;
      Array.fold_left max acc load)
    0 m.Mapping.routings

(* the whole check; [summary] is METRICS' view of the same mapping *)
let mapping (m : Mapping.t) (summary : Metrics.summary) =
  let* () = placement m in
  let* () = routes m in
  let c = max_contention m in
  if c <> summary.Metrics.max_link_contention then
    fail "max contention recomputed as %d, Metrics.summary says %d" c
      summary.Metrics.max_link_contention
  else Ok ()
