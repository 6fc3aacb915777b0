module Pool = Parallel.Pool
module Handle = Graphs.Handle
module Csr = Graphs.Csr
module Vertex_subset = Frontier.Vertex_subset
module Eager_buckets = Bucketing.Eager_buckets
module Edge_map = Traverse.Edge_map
module Scratch = Traverse.Scratch
module Pq = Priority_queue
module Span = Observe.Span

type edge_fn = Priority_queue.ctx -> src:int -> dst:int -> weight:int -> unit

type round = {
  index : int;
  bucket_key : int;
  priority : int;
  frontier_size : int;
  direction : Edge_map.executed;
  fused_drains : int;
  wall_seconds : float;
  dequeue_seconds : float;
  traverse_seconds : float;
  sync_wait_seconds : float;
}

(* The fused-drain counter stays engine-side (the kernel knows nothing of
   buckets); same padded-slot layout as the kernel's counters. *)
let stride = 8

let counter_sum a =
  let total = ref 0 in
  let slots = Array.length a / stride in
  for tid = 0 to slots - 1 do
    total := !total + a.(tid * stride)
  done;
  !total

let process_vertex graph pq scratch ~ctx ~edge_fn u =
  if Pq.vertex_on_current_bucket pq u then begin
    let tid = ctx.Pq.tid in
    Scratch.add_vertices scratch ~tid 1;
    Scratch.add_edges scratch ~tid (Csr.out_degree graph u);
    Csr.iter_out graph u (fun dst weight -> edge_fn ctx ~src:u ~dst ~weight)
  end

(* Fused inner loop (Fig. 7, lines 14-20): keep draining this worker's bin
   for the current bucket while it stays under the threshold; a larger bin
   is left in place so the next global round redistributes it. This is the
   one sweep that stays outside the traversal kernel — it runs as the
   kernel's per-worker epilogue, inside the same parallel episode, so a
   fused drain still avoids a global barrier. *)
let fusion_loop graph pq scratch ~threshold ~fused ~ctx ~edge_fn =
  let eb = Pq.eager_buckets pq in
  let tid = ctx.Pq.tid in
  let key = Pq.current_key pq in
  let rec fuse () =
    let size = Eager_buckets.local_size eb ~tid ~key in
    if size > 0 && size <= threshold then
      match Eager_buckets.take_local eb ~tid ~key with
      | None -> ()
      | Some bin ->
          fused.(tid * stride) <- fused.(tid * stride) + 1;
          Array.iter (fun u -> process_vertex graph pq scratch ~ctx ~edge_fn u) bin;
          fuse ()
  in
  fuse ()

let run ~pool ~handle ~schedule ~pq ~edge_fn ?(stop = fun () -> false)
    ?deadline ?on_round () =
  (match Schedule.validate schedule with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Engine.run: " ^ msg));
  (* The kernel applies Ligra's hybrid heuristic (with a parallel degree
     sum); the engine only maps the schedule onto a kernel direction. Only
     pull-capable directions force the handle's cached transpose. *)
  let direction, transpose =
    match schedule.Schedule.traversal with
    | Schedule.Sparse_push -> (Edge_map.Push, None)
    | Schedule.Dense_pull -> (Edge_map.Pull, Some (Handle.transpose handle))
    | Schedule.Hybrid -> (Edge_map.Hybrid, Some (Handle.transpose handle))
  in
  (* Sweeps run on the handle's layout; the fused drain walks the plain
     CSR the handle also carries — fusion touches single vertices, where
     decode-in-register buys nothing. *)
  let layout = Handle.graph handle in
  let graph = Handle.csr handle in
  let workers = Pool.num_workers pool in
  (* Scratch is shared per (pool, graph, version): repeated runs over one
     snapshot — a bench loop, the checker, incremental repairs — skip the
     per-run allocation. Runs on one pool are serialized, so sharing is
     race-free; a new graph version is a new CSR and misses the cache. *)
  let scratch = Scratch.shared ~pool ~graph ~version:(Handle.version handle) in
  let fused = Array.make (workers * stride) 0 in
  let filter =
    if Pq.needs_processing_filter pq then Some (Pq.vertex_on_current_bucket pq)
    else None
  in
  (* Fusion only composes with eager strategies, which the schedule
     validator restricts to push traversal — the epilogue never runs under
     pull. *)
  let epilogue =
    if schedule.Schedule.strategy = Schedule.Eager_with_fusion then
      Some
        (fun ctx ->
          fusion_loop graph pq scratch
            ~threshold:schedule.Schedule.fusion_threshold ~fused ~ctx ~edge_fn)
    else None
  in
  let stats = Stats.create () in
  stats.Stats.workers <- workers;
  let sync_start = Pool.barrier_wait_seconds pool in
  let last_key = ref min_int in
  let continue = ref true in
  (* Phase timestamps and the per-round fused count are taken only when a
     hook listens; the span guards below are a flag read each when the
     recorder is off. *)
  let hooked = on_round <> None in
  let timestamp () = if hooked then Unix.gettimeofday () else 0.0 in
  let run_round () =
    let round_start = timestamp () in
    let round_sync_start = Pool.barrier_wait_seconds pool in
    let frontier =
      Span.with_ "engine.dequeue" (fun () -> Pq.dequeue_ready_set pq)
    in
    let dequeue_done = timestamp () in
    stats.Stats.rounds <- stats.Stats.rounds + 1;
    if Pq.current_key pq <> !last_key then begin
      stats.Stats.buckets_processed <- stats.Stats.buckets_processed + 1;
      last_key := Pq.current_key pq
    end;
    let fused_before = if hooked then counter_sum fused else 0 in
    let executed =
      Edge_map.run_layout scratch ~graph:layout ?transpose
        ?sched:schedule.Schedule.sched ?filter ?epilogue
        ~chunk:schedule.Schedule.chunk_size ~direction frontier ~f:edge_fn
    in
    if executed = Edge_map.Ran_pull then
      stats.Stats.pull_rounds <- stats.Stats.pull_rounds + 1;
    let traverse_done = timestamp () in
    let round_sync = Pool.barrier_wait_seconds pool -. round_sync_start in
    if Span.enabled () then Span.record "engine.sync_wait" round_sync;
    (* The barrier wait is sampled, not timed, so the timeline renders it
       as a stepped counter track (µs per round) rather than a slice. *)
    (match Observe.Tracer.current () with
    | Some t ->
        Observe.Tracer.counter t ~tid:0
          (Observe.Tracer.label "engine.sync_wait_us")
          (int_of_float (round_sync *. 1e6))
    | None -> ());
    stats.Stats.global_syncs <- stats.Stats.global_syncs + 1;
    if not (Schedule.is_eager schedule) then
      (* The lazy strategies pay an extra synchronization per round for the
         buffer reduction / bulk bucket update (Fig. 5, lines 12-13). *)
      stats.Stats.global_syncs <- stats.Stats.global_syncs + 1;
    (* The round hook shares the stop/deadline cadence: once per global
       round, on the orchestrating worker, after the round's barrier. The
       scratch/fused sums it needs are only folded in when someone
       listens, so unhooked runs keep the hot path unchanged. *)
    (match on_round with
    | None -> ()
    | Some f ->
        stats.Stats.vertices_processed <- Scratch.vertices_processed scratch;
        stats.Stats.edges_relaxed <- Scratch.edges_traversed scratch;
        stats.Stats.fused_drains <- counter_sum fused;
        f stats
          {
            index = stats.Stats.rounds;
            bucket_key = Pq.current_key pq;
            priority = Pq.current_priority pq;
            frontier_size = Vertex_subset.cardinal frontier;
            direction = executed;
            fused_drains = stats.Stats.fused_drains - fused_before;
            wall_seconds = traverse_done -. round_start;
            dequeue_seconds = dequeue_done -. round_start;
            traverse_seconds = traverse_done -. dequeue_done;
            sync_wait_seconds = round_sync;
          });
    if stats.Stats.rounds > 100_000_000 then continue := false
  in
  (* The deadline shares the [stop] seam's cadence: one check per global
     round, on the orchestrating worker, never inside a parallel episode.
     An expired deadline marks the run [timed_out] so callers can tell a
     partial priority vector from a finished one. *)
  let deadline_hit () =
    match deadline with
    | None -> false
    | Some d ->
        let hit = Deadline.expired d in
        if hit then stats.Stats.timed_out <- true;
        hit
  in
  while
    !continue && (not (stop ())) && (not (deadline_hit ())) && not (Pq.finished pq)
  do
    (* One timeline slice per round, the round index as its payload;
       the dequeue/traverse spans nest inside it on worker 0's track. *)
    Span.with_ ~arg:(stats.Stats.rounds + 1) "engine.round" run_round
  done;
  stats.Stats.vertices_processed <- Scratch.vertices_processed scratch;
  stats.Stats.edges_relaxed <- Scratch.edges_traversed scratch;
  stats.Stats.fused_drains <- counter_sum fused;
  stats.Stats.bucket_inserts <- Pq.total_bucket_inserts pq;
  stats.Stats.sync_seconds <- Pool.barrier_wait_seconds pool -. sync_start;
  if Span.enabled () then begin
    (* Fold the run's hardware-independent counters into the flight
       recorder, so cumulative totals survive across runs. *)
    let bump name by = Span.count ~tid:0 ~by name in
    bump "engine.runs" 1;
    bump "engine.rounds" stats.Stats.rounds;
    bump "engine.global_syncs" stats.Stats.global_syncs;
    bump "engine.fused_drains" stats.Stats.fused_drains;
    bump "engine.buckets_processed" stats.Stats.buckets_processed;
    bump "engine.vertices_processed" stats.Stats.vertices_processed;
    bump "engine.edges_relaxed" stats.Stats.edges_relaxed;
    bump "engine.bucket_inserts" stats.Stats.bucket_inserts;
    bump "engine.pull_rounds" stats.Stats.pull_rounds
  end;
  stats

(* Incremental entry point: identical round loop, but the priority
   structures start from caller-provided seeds instead of a canonical
   initial frontier. The seam is deliberately thin — all the planning
   (dirty closure, boundary seeds, fallback decision) lives with the
   algorithm (e.g. [Algorithms.Sssp_delta.run_incremental]); the engine
   only guarantees the seeds are applied through the priority-queue
   operators on the orchestrating thread before the first dequeue, so
   both eager bins and lazy buffers observe them exactly like a round's
   worth of updates. *)
let run_incremental ~pool ~handle ~schedule ~pq ~edge_fn ~seed ?stop ?deadline
    ?on_round () =
  seed { Pq.tid = 0; use_atomics = true };
  run ~pool ~handle ~schedule ~pq ~edge_fn ?stop ?deadline ?on_round ()
