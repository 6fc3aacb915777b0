(** The query service core: admission, batching, demultiplexing,
    deadlines, and the result caches — everything the server does that
    is not socket I/O, so tests and the benchmark drive it in-process.

    Life of a request (docs/SERVICE.md §3): {!submit} validates and
    admits it into the bounded {!Request_queue} (full queue ⇒ immediate
    [rejected] reply, never blocking the caller); the batcher cycle
    ({!process_pending}, looped by {!run_loop} on the server's runner
    thread) drains up to [max_batch] requests, groups the ones that can
    share an engine run — PPSP queries with a common source, widest-path
    queries with a common source, identical A* queries, every local
    k-core query — and runs one engine execution per group, resolving
    each member at round boundaries through the engine's [stop] seam:
    exact answers as their targets finalize, partial answers the moment
    their deadlines expire. Replies are pushed through each request's
    callback as they resolve, so a batch-mate with a tight deadline is
    answered mid-run, not at batch completion.

    Dynamic graphs (docs/SERVICE.md §4.6): [mutate] ops commit
    {!Graphs.Delta} batches on the batcher thread, minting a new graph
    version. Every query group pins the latest snapshot for its run —
    commits and background compactions never disturb an in-flight query
    — and stamps the pinned version into its replies' [meta.version] and
    attribution records. The ALT landmark cache is repaired
    incrementally after each commit ({!Alt.refresh}); the k-core
    decomposition cache is keyed by version so it retires itself.
    [cancel] ops are handled at admission (any thread) and consumed by
    the batcher at round boundaries, resolving their target with status
    [cancelled] and its current monotone bound.

    Thread model: {!submit} may be called from any thread;
    {!process_pending}/{!run_loop}/{!warm_alt} must stay on one consumer
    thread (they mutate the ALT and k-core caches and run the pool).
    Reply callbacks run on the consumer thread except for
    admission-time rejections and validation errors, which run on the
    submitting thread.

    Every stage emits [service.*] metrics and spans — the full inventory
    is documented in docs/OBSERVABILITY.md §8. *)

type t

(** [create ~pool ~handle ?coords ~config ()] loads nothing: the graph
    is already behind [handle] (millisecond startup via GRAPHBIN —
    docs/SERVICE.md §5). [handle] becomes version 0 of the service's
    {!Graphs.Versioned} graph; [mutate] ops commit later versions.
    [coords], when given, join the ALT cache as an extra A* heuristic. *)
val create :
  pool:Parallel.Pool.t ->
  handle:Graphs.Handle.t ->
  ?coords:Graphs.Coords.t ->
  config:Config.t ->
  unit ->
  t

val config : t -> Config.t
val alt : t -> Alt.t

(** The service's versioned graph. Exposed for tests and the benchmark
    (e.g. committing from another thread to exercise snapshot
    isolation); the service itself commits only on the batcher thread. *)
val versioned : t -> Graphs.Versioned.t

(** The latest committed graph version. *)
val version : t -> int

(** [submit t req ~reply] validates, stamps the deadline, and admits
    [req]. Invalid requests and admission rejections invoke [reply]
    immediately (statuses [error] / [rejected]); admitted requests hold
    their [reply] until the batcher resolves them. Never blocks. *)
val submit : t -> Protocol.request -> reply:(Protocol.response -> unit) -> unit

(** [process_pending t ~wait] runs one batcher cycle: drains ≤
    [max_batch] requests, groups, runs, replies, and returns the number
    of requests taken off the queue. With [~wait:false] an empty queue
    returns [0] at once. With [~wait:true] it first blocks until a
    request is pushed, or until a {!Request_queue.tick} or a close ends
    the wait with [0] (see {!Request_queue.pop_batch}). Consumer thread
    only. *)
val process_pending : t -> wait:bool -> int

(** [idle_warm t] warms one cold ALT landmark (the background warmup
    step {!run_loop} takes on each idle tick); [false] when the
    cache is already warm. *)
val idle_warm : t -> bool

(** [warm_alt t] warms the whole cache now; returns newly warmed
    landmarks. *)
val warm_alt : t -> int

(** [run_loop t ~should_stop] is the runner-thread body: blocking batcher
    cycles ({!process_pending} [~wait:true]), until [should_stop ()] or a
    [shutdown] request. A request wakes the loop at once. One ticker
    thread, started here and joined before the loop returns, wakes it
    every 50 ms when idle; each such wake-up runs one idle
    warm-up step and re-checks [should_stop], so a stop takes effect
    within one tick plus the work in flight. *)
val run_loop : t -> should_stop:(unit -> bool) -> unit

(** [drain_shutdown t] closes the queue and answers every still-queued
    request with [rejected] ("server stopping") — the server calls it
    after the runner thread exits so no admitted request is left
    dangling. *)
val drain_shutdown : t -> unit

(** [shutdown_requested t] is set once a [shutdown] op was processed. *)
val shutdown_requested : t -> bool

(** [pending t] is the current queue depth. *)
val pending : t -> int

(** [stats_json t] is the [stats] op payload (graph, config, caches,
    queue, and a {!Observe.Metrics} snapshot). *)
val stats_json : t -> Support.Json.t
