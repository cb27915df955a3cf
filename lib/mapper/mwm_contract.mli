(** Algorithm MWM-Contract (paper §4.3): symmetric contraction of an
    arbitrary weighted task graph.

    Minimizes total interprocessor communication subject to the load
    balancing constraint of at most [b] tasks per cluster, producing at
    most [procs] clusters:

    - when the task count is ≤ 2·[procs], a single maximum-weight
      matching pass pairs tasks optimally;
    - otherwise a greedy pass (edges in non-increasing weight order)
      merges clusters up to [b/2] tasks until at most 2·[procs] remain,
      then maximum-weight matching pairs the clusters optimally.

    When matching alone cannot reach [procs] clusters, the pairing
    phase falls back to merging the heaviest capacity-feasible pair
    (weight 0 allowed) and, as a last resort, to dissolving the
    smallest cluster into the others' spare capacity.  Cluster-pair
    weights live in a quotient graph built once from the edge list and
    folded on each merge in O(degree of the absorbed cluster), so a
    pass costs O(k + b + E_q log E_q) for k clusters and E_q quotient
    edges, plus the matching, instead of visiting all O(k²) pairs.
    Fuel is charged exactly as a scan of every capacity-feasible pair
    would charge it: in one poll when the budget is unlimited, pair by
    pair over the cluster sizes alone when it is limited, so a budget
    dies at the same pair. *)

type t = {
  cluster_of : int array;  (** task → dense cluster id *)
  clusters : int list array;  (** members per cluster *)
  ipc : int;  (** total weight crossing between clusters *)
  greedy_merges : int;  (** merges performed by the greedy phase *)
  matched_pairs : int;  (** pairs made by the matching phase *)
}

val contract :
  ?b:int ->
  ?budget:Budget.t ->
  Oregami_graph.Ugraph.t ->
  procs:int ->
  (t, string) result
(** [contract g ~procs] with [b] defaulting to the smallest even bound
    that can fit ([2·⌈⌈n/procs⌉/2⌉]).  Fails when [b·procs < n].
    Clusters are numbered by smallest task id.  Deterministic.

    When [budget] (default unlimited) trips mid-contraction, the
    remaining clusters are first-fit packed into [procs] capacity-[b]
    bins instead of matched — a valid but lower-quality partition,
    recorded as a ["mwm-contract"] truncation on the budget. *)
