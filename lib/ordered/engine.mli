(** The ordered processing operator (Section 5.2 of the paper).

    [run] drives rounds of bucket extraction and parallel edge processing
    until the priority queue is exhausted or a stop condition fires,
    implementing all four schedules:

    - eager (Fig. 6): one parallel region per round; workers file priority
      updates straight into thread-local bins;
    - eager with bucket fusion (Fig. 7): after the shared frontier is
      drained, each worker keeps processing its own current-priority bin
      while it stays below the fusion threshold, skipping the global
      synchronization those rounds would have cost;
    - lazy (Fig. 5): updates are buffered with CAS deduplication and applied
      in bulk between rounds;
    - lazy with constant-sum reduction (Fig. 10): updates are histogrammed
      and reduced once per vertex per round.

    The traversal direction follows the schedule: [Sparse_push] maps the
    user function over out-edges of frontier members; [Dense_pull] scans
    in-edges of every vertex against a dense frontier, without atomics.

    Every run returns {!Stats}; a supplied [on_round] hook additionally
    sees each round's bucket, frontier, direction and wall-clock phase
    breakdown ({!round}), and when the flight recorder is enabled
    ([Observe.Span.set_enabled]) the engine's phases are recorded as spans
    ([engine.dequeue], [engine.traverse.push]/[.pull], [engine.sync_wait])
    and its counters folded into [Observe.Metrics] — see
    [docs/OBSERVABILITY.md]. *)

type edge_fn = Priority_queue.ctx -> src:int -> dst:int -> weight:int -> unit
(** The compiled user-defined function ([updateEdge] in Fig. 3): it must
    perform its priority updates through the {!Priority_queue} operators
    using the supplied context. *)

(** One global round, as the [on_round] hook sees it. Every field's
    exported name is documented in [docs/OBSERVABILITY.md]. *)
type round = {
  index : int;  (** 1-based round number. *)
  bucket_key : int;  (** Normalized coarsened key of the bucket. *)
  priority : int;  (** Representative (user-facing) priority. *)
  frontier_size : int;  (** Members extracted for this round. *)
  direction : Traverse.Edge_map.executed;
      (** Traversal direction the kernel ran. *)
  fused_drains : int;  (** Fusion drains performed during this round. *)
  wall_seconds : float;
      (** Wall-clock of the whole round, dequeue through synchronization. *)
  dequeue_seconds : float;
      (** Time in [dequeue_ready_set] — for lazy schedules this includes
          the bulk bucket update (buffer reduction / histogram flush). *)
  traverse_seconds : float;
      (** Time in the parallel edge-processing region, including any
          fusion drains performed inside it. *)
  sync_wait_seconds : float;
      (** Worker 0's end-of-round barrier wait
          ({!Parallel.Pool.barrier_wait_seconds} delta); [0.] on
          single-worker pools. *)
}

(** [run ~pool ~handle ~schedule ~pq ~edge_fn ()] executes to completion
    and returns the execution counters. Sweeps run on the handle's
    storage layout ({!Graphs.Handle.graph}); [Dense_pull] and [Hybrid]
    schedules force the handle's cached transpose, push-only runs never
    build one. The fused drain walks the plain CSR ({!Graphs.Handle.csr}).

    @param stop checked before each round ([pq.finished] custom conditions,
      e.g. PPSP's early exit once the destination is finalized).
    @param deadline checked at the same round boundaries as [stop]: once
      expired the run terminates with [Stats.timed_out] set and the
      priority vector holding partial monotone bounds (see
      {!Deadline}) — the query service's timeout seam.
    @param on_round called once per global round, after the round's
      barrier and at the same cadence as [stop], with the {e live}
      stats record and the round's {!round} record. In the stats,
      [rounds], [vertices_processed], [edges_relaxed] and [fused_drains]
      reflect work completed so far (the remaining fields finalize at run
      end); it is the record [run] returns — treat it as read-only. Runs
      without the hook read no clock and skip the per-round counter folds.
      The query service uses it to attribute rounds and relaxations to
      batch members as their replies resolve mid-run; [ordered_run
      --rounds] prints one table row per call.
    @raise Invalid_argument on an invalid schedule. *)
val run :
  pool:Parallel.Pool.t ->
  handle:Graphs.Handle.t ->
  schedule:Schedule.t ->
  pq:Priority_queue.t ->
  edge_fn:edge_fn ->
  ?stop:(unit -> bool) ->
  ?deadline:Deadline.t ->
  ?on_round:(Stats.t -> round -> unit) ->
  unit ->
  Stats.t

(** [run_incremental] is {!run} with a caller-seeded initial frontier:
    the incremental-recompute entry point. [seed] is invoked once, on the
    orchestrating thread, before the first round, with a context valid
    for the priority-queue update operators — apply one
    [update_priority_min] (or [_max]) per affected-set candidate and the
    engine repairs outward from exactly that frontier. The queue should
    be created with [initial:No_initial]; callers reset invalidated
    entries of the priority vector {e before} seeding so every candidate
    registers as a strict improvement. Planning (dirty closure, boundary
    seeds, full-recompute fallback via [Schedule.incremental_threshold])
    lives with the algorithm layer — see
    [Algorithms.Sssp_delta.run_incremental]. *)
val run_incremental :
  pool:Parallel.Pool.t ->
  handle:Graphs.Handle.t ->
  schedule:Schedule.t ->
  pq:Priority_queue.t ->
  edge_fn:edge_fn ->
  seed:(Priority_queue.ctx -> unit) ->
  ?stop:(unit -> bool) ->
  ?deadline:Deadline.t ->
  ?on_round:(Stats.t -> round -> unit) ->
  unit ->
  Stats.t
