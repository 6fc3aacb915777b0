(** Weighted breadth-first search: Δ-stepping specialized to Δ = 1 for
    graphs with small positive integer weights (Section 6.1 of the paper,
    following Julienne's wBFS). *)

(** [run ~pool ~graph ~schedule ~source ()] is {!Sssp_delta.run} with the
    schedule's Δ forced to 1; every other scheduling choice (eager/lazy,
    fusion, traversal) is honored. *)
val run :
  pool:Parallel.Pool.t ->
  graph:Graphs.Csr.t ->
  ?handle:Graphs.Handle.t ->
  schedule:Ordered.Schedule.t ->
  source:int ->
  unit ->
  Sssp_delta.result
