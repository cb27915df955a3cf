module Ugraph = Oregami_graph.Ugraph
module Union_find = Oregami_prelude.Union_find
module Blossom = Oregami_matching.Blossom

type t = {
  cluster_of : int array;
  clusters : int list array;
  ipc : int;
  greedy_merges : int;
  matched_pairs : int;
}

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
      let edges = Ugraph.edges g in
      (* greedy phase: heaviest edges first, clusters capped at b/2,
         stop once at most 2*procs clusters remain (paper Fig 5) *)
      if n > 2 * procs then begin
        let edges =
          List.sort
            (fun (u1, v1, w1) (u2, v2, w2) -> compare (-w1, u1, v1) (-w2, u2, v2))
            edges
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
      let cluster_of, members = dense_clusters uf n in
      (* Clusters keep stable handles (their index in [members]).
         [order.(0 .. !k-1)] lists the live handles in the order the
         passes see them and [pos] inverts it: positions are the cluster
         indices of a pairwise scan, and every tie below is broken by
         them.  [adj] is the quotient graph, handle -> neighbour handle
         -> total weight of the edges between the two clusters, folded
         together on each merge instead of recomputed from the task
         graph. *)
      let handles = Array.length members in
      let size = Array.map List.length members in
      let order = Array.init handles Fun.id in
      let pos = Array.init handles Fun.id in
      let k = ref handles in
      let adj = Array.init handles (fun _ -> Hashtbl.create 8) in
      let bump h z w =
        Hashtbl.replace adj.(h) z (w + Option.value ~default:0 (Hashtbl.find_opt adj.(h) z))
      in
      let build_quotient cluster_of =
        Array.iter Hashtbl.reset adj;
        List.iter
          (fun (u, v, w) ->
            let hu = cluster_of.(u) and hv = cluster_of.(v) in
            if hu <> hv then begin
              bump hu hv w;
              bump hv hu w
            end)
          edges
      in
      build_quotient cluster_of;
      let set_order hs =
        k := 0;
        List.iter
          (fun h ->
            order.(!k) <- h;
            pos.(h) <- !k;
            incr k)
          hs
      in
      let live () = List.init !k (fun i -> order.(i)) in
      (* the smaller neighbourhood moves; returns the surviving handle *)
      let merge x y =
        let keep, gone =
          if Hashtbl.length adj.(x) >= Hashtbl.length adj.(y) then (x, y) else (y, x)
        in
        members.(keep) <- List.merge compare members.(keep) members.(gone);
        size.(keep) <- size.(keep) + size.(gone);
        members.(gone) <- [];
        Hashtbl.remove adj.(keep) gone;
        Hashtbl.iter
          (fun z w ->
            if z <> keep then begin
              Hashtbl.remove adj.(z) gone;
              bump z keep w;
              bump keep z w
            end)
          adj.(gone);
        Hashtbl.reset adj.(gone);
        keep
      in
      (* A pass is charged what the pairwise scan charged: [size a +
         size c] for every capacity-feasible pair of positions a < c,
         polled in lexicographic order.  A limited budget is polled pair
         by pair over the sizes alone, and only the pairs before the one
         it refuses (returned as [a * k + c]; max_int when none) take
         part in the pass.  An unlimited budget cannot refuse, so it is
         charged the same total in one poll: cluster i pairs with every
         other cluster of size <= b - s_i. *)
      let charge_pass () =
        let k = !k in
        let sz a = size.(order.(a)) in
        if Budget.limited budget then begin
          let stop = ref max_int in
          (try
             for a = 0 to k - 1 do
               for c = a + 1 to k - 1 do
                 let s = sz a + sz c in
                 if s <= b && not (check s) then begin
                   stop := (a * k) + c;
                   raise Exit
                 end
               done
             done
           with Exit -> ());
          !stop
        end
        else begin
          let cap = min b n in
          let at_most = Array.make (cap + 1) 0 in
          for a = 0 to k - 1 do
            at_most.(sz a) <- at_most.(sz a) + 1
          done;
          for s = 1 to cap do
            at_most.(s) <- at_most.(s) + at_most.(s - 1)
          done;
          let total = ref 0 in
          for a = 0 to k - 1 do
            let s = sz a in
            let room = min cap (b - s) in
            if room >= 1 then
              total := !total + (s * (at_most.(room) - if s <= room then 1 else 0))
          done;
          if !total > 0 then ignore (Budget.poll budget ~cost:!total);
          max_int
        end
      in
      let feasible ~stop a c =
        size.(order.(a)) + size.(order.(c)) <= b && (a * !k) + c < stop
      in
      let merge_pass () =
        let stop = charge_pass () in
        let edges = ref [] in
        for a = 0 to !k - 1 do
          Hashtbl.iter
            (fun z w ->
              let c = pos.(z) in
              if c > a && w > 0 && feasible ~stop a c then edges := (a, c, w) :: !edges)
            adj.(order.(a))
        done;
        (* the matching breaks ties by edge order: reverse lexicographic,
           as the pairwise scan built it *)
        match List.sort (fun (a, c, _) (a', c', _) -> compare (a', c') (a, c)) !edges with
        | [] -> false
        | edges ->
          let mate = Blossom.max_weight_matching ~n:!k edges in
          let merged = ref [] and alone = ref [] in
          for c = !k - 1 downto 0 do
            if mate.(c) < 0 then alone := order.(c) :: !alone
          done;
          for c = !k - 1 downto 0 do
            if mate.(c) > c then begin
              merged := merge order.(c) order.(mate.(c)) :: !merged;
              incr matched_pairs
            end
          done;
          set_order (!merged @ !alone);
          true
      in
      (* the heaviest feasible pair, lexicographically first on ties.
         It runs only after [merge_pass] found no feasible pair of
         positive weight before its stop (a budget that stopped that
         pass refuses this one's first pair), so the heaviest weighs 0
         unless every feasible pair is held below 0 by its quotient
         edge: the first feasible pair that is not wins *)
      let zero_merge () =
        let stop = charge_pass () in
        let min_size = ref max_int in
        for a = 0 to !k - 1 do
          min_size := min !min_size size.(order.(a))
        done;
        let weight a c = Option.value ~default:0 (Hashtbl.find_opt adj.(order.(a)) order.(c)) in
        let rec scan a c =
          if a >= !k - 1 then None
          else if c >= !k || size.(order.(a)) + !min_size > b then scan (a + 1) (a + 2)
          else if (a * !k) + c >= stop then None
          else if feasible ~stop a c && weight a c >= 0 then Some (a, c)
          else scan a (c + 1)
        in
        let pick =
          match scan 0 1 with
          | Some p -> Some p
          | None ->
            let best = ref None in
            for a = 0 to !k - 1 do
              Hashtbl.iter
                (fun z w ->
                  let c = pos.(z) in
                  if c > a && feasible ~stop a c then
                    match !best with
                    | Some (bw, ba, bc) when bw > w || (bw = w && (ba, bc) < (a, c)) -> ()
                    | Some _ | None -> best := Some (w, a, c))
                adj.(order.(a))
            done;
            Option.map (fun (_, a, c) -> (a, c)) !best
        in
        match pick with
        | None -> false
        | Some (a, c) ->
          let rest = List.filter (fun h -> h <> order.(a) && h <> order.(c)) (live ()) in
          set_order (merge order.(a) order.(c) :: rest);
          true
      in
      let dissolve_smallest () =
        let smallest = ref 0 in
        for c = 1 to !k - 1 do
          if size.(order.(c)) < size.(order.(!smallest)) then smallest := c
        done;
        let gone = order.(!smallest) in
        let rest = List.filter (( <> ) gone) (live ()) in
        let spare = List.fold_left (fun acc h -> acc + (b - size.(h))) 0 rest in
        if spare < size.(gone) then false
        else begin
          (* each task joins the cluster with room it is most attached
             to, first on ties (the spare capacity leaves one for every
             task); [cluster_of] follows the tasks already moved *)
          let cluster_of = Array.make n gone in
          List.iter (fun h -> List.iter (fun v -> cluster_of.(v) <- h) members.(h)) (live ());
          let pull = Array.make handles 0 in
          List.iter
            (fun task ->
              let nbrs = Ugraph.neighbors g task in
              List.iter (fun (u, w) -> pull.(cluster_of.(u)) <- pull.(cluster_of.(u)) + w) nbrs;
              let best = ref None in
              List.iter
                (fun h ->
                  if size.(h) < b then
                    match !best with
                    | Some (bw, _) when bw >= pull.(h) -> ()
                    | Some _ | None -> best := Some (pull.(h), h))
                rest;
              List.iter (fun (u, _) -> pull.(cluster_of.(u)) <- 0) nbrs;
              match !best with
              | Some (_, h) ->
                members.(h) <- List.merge compare [ task ] members.(h);
                size.(h) <- size.(h) + 1;
                cluster_of.(task) <- h
              | None -> ())
            members.(gone);
          members.(gone) <- [];
          set_order rest;
          build_quotient cluster_of;
          true
        end
      in
      let exception Stuck in
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
      let rec reduce () =
        let current () = List.map (fun h -> members.(h)) (live ()) in
        if !k <= procs then current ()
        else if not (check !k) then force_pack (current ())
        else if merge_pass () || zero_merge () || dissolve_smallest () then reduce ()
        else raise Stuck
      in
      let result =
        try Ok (reduce ())
        with Stuck ->
          Error
            (Printf.sprintf "could not reduce to %d clusters under capacity %d" procs b)
      in
      match result with
      | Error e -> Error e
      | Ok clusters ->
        (* renumber by smallest member *)
        let sorted = List.sort (fun a c -> compare (List.hd a) (List.hd c)) clusters in
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
              cluster_of;
              clusters;
              ipc = Mapping.total_ipc g cluster_of;
              greedy_merges = !greedy_merges;
              matched_pairs = !matched_pairs;
            }
    end
  end
