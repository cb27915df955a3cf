(* MWM-Contract differential sweep: the quotient-graph contraction
   against the pairwise oracle on synth grid/ring/tree/rmat graphs up to
   600 tasks, several processor counts, default and small capacities,
   unlimited and capped fuel.  Every case must agree on the record, the
   error text, the fuel used and the truncations, and the corpus must
   reach all four branches of the pairing phase.  Run with
   [dune build @stress]. *)

module Taskgraph = Oregami_taskgraph.Taskgraph
module Synth = Oregami_workloads.Synth

let () =
  let t0 = Unix.gettimeofday () in
  let cases = ref 0 and failures = ref 0 in
  let sizes = List.init 24 (fun i -> 7 + (25 * i)) @ [ 600 ] in
  let families = [ "grid"; "ring"; "tree"; "rmat"; "rmat-seed-9" ] in
  List.iter
    (fun n ->
      List.iter
        (fun family ->
          let spec =
            if family = "rmat-seed-9" then Printf.sprintf "synth:rmat:%d:9" n
            else Printf.sprintf "synth:%s:%d" family n
          in
          let g = Taskgraph.static_graph (Result.get_ok (Synth.build spec)) in
          List.iter
            (fun procs ->
              List.iter
                (fun b ->
                  List.iter
                    (fun fuel ->
                      incr cases;
                      match Mwm_oracle.differ ?b ?fuel g ~procs with
                      | None -> ()
                      | Some d ->
                        incr failures;
                        Printf.printf "MISMATCH %s procs=%d b=%s fuel=%s: %s\n%!" spec procs
                          (Option.fold ~none:"default" ~some:string_of_int b)
                          (Option.fold ~none:"unlimited" ~some:string_of_int fuel)
                          d)
                    [ None; Some 200; Some 5000; Some 100000 ])
                [ None; Some 6 ])
            [ 2; 5; 16; 64 ])
        families)
    sizes;
  let br = Mwm_oracle.branches in
  Printf.printf
    "stress_mwm: %d cases, %d mismatches (branches: merge %d, zero-merge %d, dissolve %d, \
     force-pack %d) in %.1fs\n%!"
    !cases !failures br.merges br.zero_merges br.dissolves br.force_packs
    (Unix.gettimeofday () -. t0);
  if !failures > 0 || br.merges = 0 || br.zero_merges = 0 || br.dissolves = 0 || br.force_packs = 0
  then exit 1
