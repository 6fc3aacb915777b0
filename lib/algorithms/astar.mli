(** A* search on road networks (Section 6.1 of the paper).

    Identical to point-to-point Δ-stepping except that the priority of a
    vertex is the {e estimated} total source→target distance through it:
    [f(v) = dist(v) + h(v)]. The heuristic [h] is pluggable: the scaled
    Euclidean distance to the target computed from vertex coordinates
    (road graphs built by {!Graphs.Generators.road_grid} make it
    admissible), a caller-supplied lower bound such as the query
    service's ALT landmark cache ([Service.Alt]), or both — the engine
    runs on their pointwise max. Any admissible-and-consistent [h] keeps
    the early exit exact. Like the paper, this application needs
    extern-style logic beyond the pure DSL operators (two vertex vectors
    updated per relaxation). *)

type result = {
  distance : int;
      (** Exact [source]→[target] distance, or
          {!Bucketing.Bucket_order.null_priority} when unreachable. When
          the run was cut short by [deadline] ([stats.timed_out]), a
          finite value is the length of a real discovered path — an
          upper bound on the true distance — and [null_priority] means
          no path was found in time. *)
  stats : Ordered.Stats.t;
}

(** [run ~pool ~graph ?coords ?heuristic ~schedule ~source ~target ()]
    runs A* with the max of the available heuristics: the Euclidean
    bound at scale 100 when [coords] is given (matching road-grid
    weights), [heuristic] when supplied (must be admissible and
    consistent for exact answers), and [h = 0] when neither is — plain
    PPSP. *)
val run :
  pool:Parallel.Pool.t ->
  graph:Graphs.Csr.t ->
  ?coords:Graphs.Coords.t ->
  ?heuristic:(int -> int) ->
  ?handle:Graphs.Handle.t ->
  schedule:Ordered.Schedule.t ->
  source:int ->
  target:int ->
  ?deadline:Ordered.Deadline.t ->
  unit ->
  result
