(** Δ-stepping single-source shortest paths (Figures 5-7 of the paper) on
    the ordered runtime. The schedule chooses between lazy, eager, and
    eager-with-fusion bucket updates; all schedules compute exact shortest
    distances. *)

type result = {
  dist : int array;
      (** Shortest distances; unreachable vertices hold
          {!Bucketing.Bucket_order.null_priority}. *)
  stats : Ordered.Stats.t;
}

(** [run ~pool ~graph ~schedule ~source ()] executes Δ-stepping with
    [schedule.delta] as the priority-coarsening factor.

    @param handle the handle the engine runs on: its layout, and its
      cached transpose for [Dense_pull]/[Hybrid] schedules. It must wrap
      [graph] itself ([Invalid_argument] otherwise, see
      {!Graphs.Handle.resolve}); omitted, a fresh plain handle is used.
    @param on_round the engine's per-round hook ({!Ordered.Engine.run}). *)
val run :
  pool:Parallel.Pool.t ->
  graph:Graphs.Csr.t ->
  ?handle:Graphs.Handle.t ->
  schedule:Ordered.Schedule.t ->
  source:int ->
  ?deadline:Ordered.Deadline.t ->
  ?on_round:(Ordered.Stats.t -> Ordered.Engine.round -> unit) ->
  unit ->
  result

type incremental = {
  result : result;  (** Exact shortest distances on the {e new} graph. *)
  affected : int;  (** [|dirty| + |seeds|] from {!Graphs.Delta.plan}. *)
  fell_back : bool;
      (** True when the affected set exceeded
          [schedule.incremental_threshold * n] and a full {!run} was
          executed instead. *)
}

(** [run_incremental ~pool ~old_graph ~graph ~schedule ~source ~batch
    ~prev ()] repairs a previous SSSP result after [batch] transformed
    [old_graph] into [graph] (i.e. [graph = Delta.apply old_graph batch]).
    [prev] is the distance vector [run] produced on [old_graph] for the
    same [source]; it is not modified. The repair plans the conservative
    affected set ({!Graphs.Delta.plan}), unlearns dirty distances, and
    re-seeds the bucket structures from the clean boundary — identical
    results to a from-scratch [run] on [graph], usually at a fraction of
    the work. [handle], as in {!run}, must wrap the {e new} graph. *)
val run_incremental :
  pool:Parallel.Pool.t ->
  old_graph:Graphs.Csr.t ->
  graph:Graphs.Csr.t ->
  ?handle:Graphs.Handle.t ->
  schedule:Ordered.Schedule.t ->
  source:int ->
  batch:Graphs.Delta.batch ->
  prev:int array ->
  ?deadline:Ordered.Deadline.t ->
  unit ->
  incremental
