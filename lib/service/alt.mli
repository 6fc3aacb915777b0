(** The ALT landmark-distance cache (A*, Landmarks, Triangle inequality;
    Goldberg & Harrelson).

    [k] landmark vertices each carry two exact distance vectors computed
    by Δ-stepping on the pool: forward distances [d(L, ·)] on the graph
    and backward distances [d(·, L)] on the cached transpose. For a
    query with target [t], every warm landmark yields two lower bounds
    on [d(v, t)] from the triangle inequality —
    [d(L,t) − d(L,v)] and [d(v,L) − d(t,L)] — and the heuristic is
    their max over landmarks, clamped at zero, using only finite
    entries. Each bound is admissible {e and} consistent, and the max of
    consistent bounds is consistent, so A* keeps its exact early exit.

    Warmup is incremental ({!warm_one}: one landmark pair per call) so
    the service can warm in the background whenever its queue is idle;
    {!warm_all} (the [warm_alt] op) forces the rest synchronously.
    Landmarks are chosen farthest-first: the first is the max-out-degree
    vertex, each next maximizes the minimum forward distance to the
    landmarks already warmed — the standard heuristic that pushes
    landmarks to the graph's periphery where their bounds are tight.

    Each graph snapshot is immutable, so the cache is valid until the
    next mutation commit; {!refresh} then repairs the warm vectors
    incrementally — only the landmarks whose affected set is non-empty
    pay for recompute (docs/SERVICE.md §4.4). *)

type t

(** [create ~pool ~handle ~schedule ~landmarks ()] prepares a cold cache
    of [landmarks] slots ([0] disables it: {!heuristic} stays [None]).
    No distances are computed yet. *)
val create :
  pool:Parallel.Pool.t ->
  handle:Graphs.Handle.t ->
  schedule:Ordered.Schedule.t ->
  landmarks:int ->
  unit ->
  t

(** [total t] is the configured landmark count. *)
val total : t -> int

(** [warmed t] is how many landmarks hold both distance vectors. *)
val warmed : t -> int

(** [warm_one t] computes the next landmark's vectors (two SSSP runs on
    the pool); [false] when the cache was already fully warm. Emits the
    [service.alt.warm] span and bumps [service.alt.landmarks_warmed]. *)
val warm_one : t -> bool

(** [warm_all t] warms every remaining landmark; returns how many it
    added. *)
val warm_all : t -> int

(** [refresh t ~old_handle ~handle ~batch] re-points the cache at the
    new snapshot [handle] (= [old_handle] after [batch]) and repairs
    every warm landmark's forward/backward vectors with
    {!Algorithms.Sssp_delta.run_incremental} — the backward side runs
    the reversed batch on the reversed handles
    ({!Graphs.Handle.reverse}), so no transpose is rebuilt. Returns
    [(refreshed, kept)]: landmarks whose vectors changed vs. landmarks
    the affected-set plan proved untouched. Emits the
    [service.alt.refresh] span and the [dynamic.alt.refreshed]/
    [dynamic.alt.kept] counters. Consumer thread only (forces lazy
    transposes). *)
val refresh :
  t ->
  old_handle:Graphs.Handle.t ->
  handle:Graphs.Handle.t ->
  batch:Graphs.Delta.batch ->
  int * int

(** [heuristic t ~target] is the admissible lower-bound function for
    [target], or [None] while no landmark is warm (callers fall back to
    [h = 0]). The closure hoists the per-target landmark distances out
    of the per-vertex evaluation. *)
val heuristic : t -> target:int -> (int -> int) option

(** [landmark_vertices t] lists the warm landmarks' vertex ids. *)
val landmark_vertices : t -> int list

(** [to_json t] is the cache state for the [stats] op:
    [{"landmarks": k, "warmed": w, "vertices": [...]}]. *)
val to_json : t -> Support.Json.t
