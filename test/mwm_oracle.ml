(* MWM-Contract as it was before the quotient graph: every pass of the
   pairing phase recomputes all cluster-pair weights through
   [inter_weight].  Kept as the differential oracle for
   [Mwm_contract.contract], which must return the same record, the
   same error text, the same fuel and the same truncations.  The only
   additions are the four branch counters, so a corpus can prove it
   reached the matching, zero-merge, dissolve and force-pack paths. *)

module Ugraph = Oregami_graph.Ugraph
module Union_find = Oregami_prelude.Union_find
module Blossom = Oregami_matching.Blossom
module Budget = Oregami_mapper.Budget
module Mapping = Oregami_mapper.Mapping
module Mwm_contract = Oregami_mapper.Mwm_contract

type branches = {
  mutable merges : int;  (** merge passes that matched at least one pair *)
  mutable zero_merges : int;
  mutable dissolves : int;
  mutable force_packs : int;
}

let branches = { merges = 0; zero_merges = 0; dissolves = 0; force_packs = 0 }

let default_b n procs =
  let per_proc = (n + procs - 1) / procs in
  2 * ((per_proc + 1) / 2)

(* Dense renumbering of union-find clusters by smallest member. *)
let dense_clusters uf n =
  let reps = Array.init n (Union_find.find uf) in
  let order = Hashtbl.create 16 in
  let next = ref 0 in
  Array.iter
    (fun r ->
      if not (Hashtbl.mem order r) then begin
        Hashtbl.add order r !next;
        incr next
      end)
    reps;
  let cluster_of = Array.map (Hashtbl.find order) reps in
  let clusters = Array.make !next [] in
  for v = n - 1 downto 0 do
    clusters.(cluster_of.(v)) <- v :: clusters.(cluster_of.(v))
  done;
  (cluster_of, clusters)

(* weight between two clusters under the current task partition *)
let inter_weight g members_a members_b =
  let in_b = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace in_b v ()) members_b;
  List.fold_left
    (fun acc v ->
      List.fold_left
        (fun acc (u, w) -> if Hashtbl.mem in_b u then acc + w else acc)
        acc (Ugraph.neighbors g v))
    0 members_a

let contract ?b ?budget g ~procs =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  (* charge [cost] work units; on exhaustion mark this site truncated *)
  let check cost =
    Budget.poll budget ~cost
    || begin
         Budget.note budget "mwm-contract";
         false
       end
  in
  let n = Ugraph.node_count g in
  if procs <= 0 then Error "need at least one processor"
  else begin
    let b = match b with Some b -> b | None -> default_b n procs in
    if b < 1 then Error "cluster capacity must be at least 1"
    else if b * procs < n then
      Error
        (Printf.sprintf "infeasible: %d tasks > %d processors x capacity %d" n procs b)
    else begin
      let uf = Union_find.create n in
      let half = max 1 (b / 2) in
      let greedy_merges = ref 0 in
      (* greedy phase: heaviest edges first, clusters capped at b/2,
         stop once at most 2*procs clusters remain (paper Fig 5) *)
      if n > 2 * procs then begin
        let edges =
          List.sort
            (fun (u1, v1, w1) (u2, v2, w2) -> compare (-w1, u1, v1) (-w2, u2, v2))
            (Ugraph.edges g)
        in
        List.iter
          (fun (u, v, _) ->
            if
              check 1
              && Union_find.count_sets uf > 2 * procs
              && (not (Union_find.same uf u v))
              && Union_find.size uf u + Union_find.size uf v <= half
            then begin
              ignore (Union_find.union uf u v);
              incr greedy_merges
            end)
          edges
      end;
      (* pairing phase over explicit clusters: repeat maximum-weight
         matchings restricted to capacity-respecting pairs; when no
         pair fits, fall back to a zero-cost merge, and as a last
         resort dissolve the smallest cluster into the others' spare
         capacity.  The canonical case (greedy reached <= 2P clusters
         of <= B/2 tasks) finishes in the single matching round the
         paper describes. *)
      let matched_pairs = ref 0 in
      let _, initial = dense_clusters uf n in
      let clusters = ref (Array.to_list initial) in
      let exception Stuck in
      let merge_pass () =
        let arr = Array.of_list !clusters in
        let k = Array.length arr in
        let size c = List.length arr.(c) in
        let edges = ref [] in
        let dead = ref false in
        for a = 0 to k - 1 do
          for c = a + 1 to k - 1 do
            if (not !dead) && size a + size c <= b then begin
              if not (check (size a + size c)) then dead := true
              else begin
                let w = inter_weight g arr.(a) arr.(c) in
                if w > 0 then edges := (a, c, w) :: !edges
              end
            end
          done
        done;
        let mate =
          if b >= 2 then Blossom.max_weight_matching ~n:k !edges else Array.make k (-1)
        in
        let merged = Array.make k false in
        let out = ref [] in
        let progressed = ref false in
        Array.iteri
          (fun c m ->
            if m > c then begin
              out := List.merge compare arr.(c) arr.(m) :: !out;
              merged.(c) <- true;
              merged.(m) <- true;
              incr matched_pairs;
              progressed := true
            end)
          mate;
        Array.iteri (fun c members -> if not merged.(c) then out := members :: !out) arr;
        clusters := List.rev !out;
        if !progressed then branches.merges <- branches.merges + 1;
        !progressed
      in
      let zero_merge () =
        let arr = Array.of_list !clusters in
        let k = Array.length arr in
        let size c = List.length arr.(c) in
        let best = ref None in
        let dead = ref false in
        for a = 0 to k - 1 do
          for c = a + 1 to k - 1 do
            if (not !dead) && size a + size c <= b then begin
              if not (check (size a + size c)) then dead := true
              else begin
                let w = inter_weight g arr.(a) arr.(c) in
                match !best with
                | Some (bw, _, _) when bw >= w -> ()
                | Some _ | None -> best := Some (w, a, c)
              end
            end
          done
        done;
        match !best with
        | None -> false
        | Some (_, a, c) ->
          let out = ref [ List.merge compare arr.(a) arr.(c) ] in
          Array.iteri (fun i members -> if i <> a && i <> c then out := members :: !out) arr;
          clusters := List.rev !out;
          branches.zero_merges <- branches.zero_merges + 1;
          true
      in
      let dissolve_smallest () =
        let arr = Array.of_list !clusters in
        let k = Array.length arr in
        let smallest = ref 0 in
        for c = 1 to k - 1 do
          if List.length arr.(c) < List.length arr.(!smallest) then smallest := c
        done;
        let rest =
          Array.to_list (Array.mapi (fun i m -> (i, ref m)) arr)
          |> List.filter (fun (i, _) -> i <> !smallest)
          |> List.map snd
        in
        let spare () =
          List.fold_left (fun acc m -> acc + (b - List.length !m)) 0 rest
        in
        if spare () < List.length arr.(!smallest) then false
        else begin
          List.iter
            (fun task ->
              (* heaviest-affinity cluster with room *)
              let best = ref None in
              List.iter
                (fun m ->
                  if List.length !m < b then begin
                    let w = inter_weight g [ task ] !m in
                    match !best with
                    | Some (bw, _) when bw >= w -> ()
                    | Some _ | None -> best := Some (w, m)
                  end)
                rest;
              match !best with
              | Some (_, m) -> m := List.merge compare [ task ] !m
              | None -> ())
            arr.(!smallest);
          clusters := List.map ( ! ) rest;
          branches.dissolves <- branches.dissolves + 1;
          true
        end
      in
      (* anytime path: when the budget dies mid-reduction, pack the
         current clusters into [procs] bins directly — first-fit
         decreasing, then dissolving whatever does not fit whole,
         task by task, into spare slots.  Always succeeds because the
         feasibility check above guarantees [b * procs >= n]. *)
      let force_pack cs =
        let sorted =
          List.sort (fun a c -> compare (List.length c) (List.length a)) cs
        in
        let bins = Array.make procs [] in
        let bin_size = Array.make procs 0 in
        let overflow = ref [] in
        List.iter
          (fun members ->
            let len = List.length members in
            let rec find i =
              if i >= procs then None
              else if bin_size.(i) + len <= b then Some i
              else find (i + 1)
            in
            match find 0 with
            | Some i ->
              bins.(i) <- members :: bins.(i);
              bin_size.(i) <- bin_size.(i) + len
            | None -> overflow := members :: !overflow)
          sorted;
        List.iter
          (fun task ->
            let rec find i =
              if i >= procs then raise Stuck
              else if bin_size.(i) < b then begin
                bins.(i) <- [ task ] :: bins.(i);
                bin_size.(i) <- bin_size.(i) + 1
              end
              else find (i + 1)
            in
            find 0)
          (List.concat !overflow);
        Array.to_list bins
        |> List.filter_map (fun pieces ->
               match List.concat pieces with
               | [] -> None
               | members -> Some (List.sort compare members))
      in
      let result =
        try
          while List.length !clusters > procs do
            if not (check (List.length !clusters)) then begin
              branches.force_packs <- branches.force_packs + 1;
              clusters := force_pack !clusters
            end
            else if not (merge_pass ()) then
              if not (zero_merge ()) then
                if not (dissolve_smallest ()) then raise Stuck
          done;
          Ok ()
        with Stuck ->
          Error
            (Printf.sprintf "could not reduce to %d clusters under capacity %d" procs b)
      in
      match result with
      | Error e -> Error e
      | Ok () ->
        (* renumber by smallest member *)
        let sorted =
          List.sort (fun a c -> compare (List.hd a) (List.hd c)) !clusters
        in
        let clusters = Array.of_list sorted in
        let cluster_of = Array.make n (-1) in
        Array.iteri
          (fun c members -> List.iter (fun v -> cluster_of.(v) <- c) members)
          clusters;
        if Array.exists (fun m -> List.length m > b) clusters then
          Error "internal error: capacity violated"
        else if Array.exists (( = ) (-1)) cluster_of then
          Error "internal error: task lost during contraction"
        else
          Ok
            {
              Mwm_contract.cluster_of;
              clusters;
              ipc = Mapping.total_ipc g cluster_of;
              greedy_merges = !greedy_merges;
              matched_pairs = !matched_pairs;
            }
    end
  end

let describe = function
  | Error e -> "Error " ^ e
  | Ok r ->
    Printf.sprintf "Ok {ipc=%d; clusters=%d; greedy=%d; matched=%d}" r.Mwm_contract.ipc
      (Array.length r.Mwm_contract.clusters)
      r.Mwm_contract.greedy_merges r.Mwm_contract.matched_pairs

(* [differ ?b ?fuel g ~procs] runs the oracle and [Mwm_contract.contract]
   on fresh budgets (unlimited, or capped at [fuel]) and describes the
   first difference in result, fuel used or truncations. *)
let differ ?b ?fuel g ~procs =
  let run f =
    let budget =
      match fuel with Some fuel -> Budget.create ~fuel () | None -> Budget.unlimited ()
    in
    let r = f budget in
    (r, Budget.fuel_used budget, Budget.truncations budget)
  in
  let want, want_fuel, want_trunc = run (fun budget -> contract ?b ~budget g ~procs) in
  let got, got_fuel, got_trunc =
    run (fun budget -> Mwm_contract.contract ?b ~budget g ~procs)
  in
  if want <> got then Some (Printf.sprintf "result: oracle %s, got %s" (describe want) (describe got))
  else if want_fuel <> got_fuel then
    Some (Printf.sprintf "fuel: oracle %d, got %d" want_fuel got_fuel)
  else if want_trunc <> got_trunc then
    Some
      (Printf.sprintf "truncations: oracle [%s], got [%s]" (String.concat ";" want_trunc)
         (String.concat ";" got_trunc))
  else None
