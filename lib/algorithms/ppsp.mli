(** Point-to-point shortest path via Δ-stepping with early termination: the
    run stops as soon as the destination's priority is finalized, i.e. when
    processing enters a bucket whose priority is at least the best distance
    already found (Section 6.1 of the paper). *)

type result = {
  distance : int;
      (** Shortest [source]→[target] distance, or
          {!Bucketing.Bucket_order.null_priority} when unreachable. *)
  stats : Ordered.Stats.t;
}

val run :
  pool:Parallel.Pool.t ->
  graph:Graphs.Csr.t ->
  ?handle:Graphs.Handle.t ->
  schedule:Ordered.Schedule.t ->
  source:int ->
  target:int ->
  ?deadline:Ordered.Deadline.t ->
  unit ->
  result
