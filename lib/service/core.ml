module Pool = Parallel.Pool
module Atomic_array = Parallel.Atomic_array
module Csr = Graphs.Csr
module Handle = Graphs.Handle
module Versioned = Graphs.Versioned
module Delta = Graphs.Delta
module Edge_list = Graphs.Edge_list
module Bucket_order = Bucketing.Bucket_order
module Pq = Ordered.Priority_queue
module Engine = Ordered.Engine
module Deadline = Ordered.Deadline
module Schedule = Ordered.Schedule
module Json = Support.Json
module Metrics = Observe.Metrics
module Span = Observe.Span
module Tracer = Observe.Tracer
module Log = Observe.Log

let null = Bucket_order.null_priority

type item = {
  req : Protocol.request;
  reply : Protocol.response -> unit;
  enqueued_at : float;
  mutable popped_at : float;
      (* when the batcher took it off the queue: [popped_at -
         enqueued_at] is the wake-up share of its queue wait *)
  deadline : Deadline.t option;
  trace : int;
      (* process-unique query id: the trace context of the batch run
         that answers this query, the async-slice id in the Perfetto
         export, and the [query] field of its log records *)
}

type t = {
  pool : Pool.t;
  versioned : Versioned.t;
      (* The graph behind every query: mutations commit new versions,
         query groups pin the snapshot they run against. *)
  coords : Graphs.Coords.t option;
  config : Config.t;
  queue : item Request_queue.t;
  alt_cache : Alt.t;
  mutable coreness : (int * int array) option;
      (* Local k-core answers are lookups into one global decomposition,
         keyed by the version it was computed on — a mutation commit
         retires it by key, never by an explicit invalidation call (the
         stale-cache fix). *)
  mutable kcore_handle : (int * Handle.t) option;
      (* The peel requires a symmetric graph; service graphs need not
         be. One symmetrized view per version, built on first kcore
         query after each commit. *)
  cancelled : (int, float) Hashtbl.t;
      (* request ids a [cancel] op targeted, stamped with registration
         time; consumed when the target resolves, swept when stale *)
  cancel_mutex : Mutex.t;
  mutable compactor : Thread.t option;
      (* the background compaction thread, if one was spawned; joined
         before the next spawn and at drain_shutdown *)
  shutdown : bool Atomic.t;
  trace_counter : int Atomic.t;
      (* query/batch trace ids; one sequence so a batch id never
         collides with a member id in the same export *)
  mutable subscribers : Thread.t list;
      (* live subscription pushers, joined at drain_shutdown *)
  sub_mutex : Mutex.t;
  (* Flight-recorder instruments (docs/OBSERVABILITY.md §9). *)
  m_requests : Metrics.counter;
  m_rejected : Metrics.counter;
  m_batches : Metrics.counter;
  m_batched_queries : Metrics.counter;
  m_ok : Metrics.counter;
  m_partial : Metrics.counter;
  m_error : Metrics.counter;
  m_deadline_miss : Metrics.counter;
  m_alt_assisted : Metrics.counter;
  m_alt_unassisted : Metrics.counter;
  m_kcore_hits : Metrics.counter;
  m_kcore_runs : Metrics.counter;
  m_slow : Metrics.counter;
  m_subs : Metrics.counter;
  m_sub_pushes : Metrics.counter;
  m_cancelled : Metrics.counter;
  m_cancel_requests : Metrics.counter;
  m_commits : Metrics.counter;
  m_commit_ops : Metrics.counter;
  m_compactions : Metrics.counter;
  h_queue_wait : Metrics.histogram;
  h_wake : Metrics.histogram;
  h_batch_run : Metrics.histogram;
  h_request : Metrics.histogram;
  h_commit : Metrics.histogram;
  h_compaction : Metrics.histogram;
  depth_track : Tracer.label;
  query_track : Tracer.label;
}

let create ~pool ~handle ?coords ~config () =
  (match coords with
  | Some c when Graphs.Coords.num_vertices c <> Handle.num_vertices handle ->
      invalid_arg "Core.create: coordinates do not match the graph"
  | _ -> ());
  let reg = Metrics.default in
  let versioned =
    Versioned.create ~kind:(Handle.kind handle)
      ~compact_every:
        (if config.Config.compact_ops > 0 then config.Config.compact_ops
         else max_int)
      (Handle.csr handle)
  in
  {
    pool;
    versioned;
    coords;
    config;
    queue = Request_queue.create ~capacity:config.Config.queue_capacity ();
    alt_cache =
      Alt.create ~pool ~handle:(Versioned.latest versioned)
        ~schedule:config.Config.schedule ~landmarks:config.Config.landmarks ();
    coreness = None;
    kcore_handle = None;
    cancelled = Hashtbl.create 16;
    cancel_mutex = Mutex.create ();
    compactor = None;
    shutdown = Atomic.make false;
    trace_counter = Atomic.make 1;
    subscribers = [];
    sub_mutex = Mutex.create ();
    m_requests = Metrics.counter reg "service.requests";
    m_rejected = Metrics.counter reg "service.rejected";
    m_batches = Metrics.counter reg "service.batches";
    m_batched_queries = Metrics.counter reg "service.batched_queries";
    m_ok = Metrics.counter reg "service.replies.ok";
    m_partial = Metrics.counter reg "service.replies.partial";
    m_error = Metrics.counter reg "service.replies.error";
    m_deadline_miss = Metrics.counter reg "service.deadline_misses";
    m_alt_assisted = Metrics.counter reg "service.alt.assisted";
    m_alt_unassisted = Metrics.counter reg "service.alt.unassisted";
    m_kcore_hits = Metrics.counter reg "service.kcore.cache_hits";
    m_kcore_runs = Metrics.counter reg "service.kcore.runs";
    m_slow = Metrics.counter reg "service.slow_queries";
    m_subs = Metrics.counter reg "service.subscriptions";
    m_sub_pushes = Metrics.counter reg "service.subscribe.pushes";
    m_cancelled = Metrics.counter reg "service.replies.cancelled";
    m_cancel_requests = Metrics.counter reg "service.cancel_requests";
    m_commits = Metrics.counter reg "dynamic.commits";
    m_commit_ops = Metrics.counter reg "dynamic.ops_applied";
    m_compactions = Metrics.counter reg "dynamic.compactions";
    h_queue_wait = Metrics.histogram reg "service.queue_wait";
    h_wake = Metrics.histogram reg "service.wake";
    h_batch_run = Metrics.histogram reg "service.batch_run";
    h_request = Metrics.histogram reg "service.request";
    h_commit = Metrics.histogram reg "dynamic.commit";
    h_compaction = Metrics.histogram reg "dynamic.compaction";
    depth_track = Tracer.label "service.queue_depth";
    query_track = Tracer.label "service.query";
  }

let config t = t.config
let alt t = t.alt_cache
let versioned t = t.versioned
let version t = Versioned.version t.versioned
let pending t = Request_queue.length t.queue
let shutdown_requested t = Atomic.get t.shutdown

(* Pin the latest snapshot for the duration of one group run: commits
   and background compactions that land mid-run cannot retire (or
   half-rebuild) the graph this group reads — snapshot isolation. *)
let with_snapshot t f =
  let snapshot = Versioned.pin t.versioned in
  Fun.protect
    ~finally:(fun () -> Versioned.release t.versioned snapshot)
    (fun () -> f snapshot)

(* Consume a pending cancellation for request id [id]. One [cancel]
   resolves at most one query: the entry is removed on first match. *)
let is_cancelled t id =
  Mutex.lock t.cancel_mutex;
  let hit = Hashtbl.mem t.cancelled id in
  if hit then Hashtbl.remove t.cancelled id;
  Mutex.unlock t.cancel_mutex;
  hit

(* Cancellations whose target already resolved (or never existed) would
   otherwise pin their table entry forever; sweep the stale ones once
   the table is non-trivial. *)
let sweep_cancelled t =
  Mutex.lock t.cancel_mutex;
  if Hashtbl.length t.cancelled > 64 then begin
    let cutoff = Unix.gettimeofday () -. 60. in
    let stale =
      Hashtbl.fold
        (fun id at acc -> if at < cutoff then id :: acc else acc)
        t.cancelled []
    in
    List.iter (Hashtbl.remove t.cancelled) stale
  end;
  Mutex.unlock t.cancel_mutex

let record_depth t =
  match Tracer.current () with
  | Some tr -> Tracer.counter tr ~tid:0 t.depth_track (Request_queue.length t.queue)
  | None -> ()

(* Every reply funnels through here so the status counters and the
   end-to-end latency histogram cannot drift from what clients saw. *)
let finish t item resp =
  (match resp.Protocol.status with
  | Protocol.Ok -> Metrics.incr t.m_ok ~tid:0 ()
  | Protocol.Partial -> Metrics.incr t.m_partial ~tid:0 ()
  | Protocol.Cancelled -> Metrics.incr t.m_cancelled ~tid:0 ()
  | Protocol.Rejected | Protocol.Error -> Metrics.incr t.m_error ~tid:0 ());
  Metrics.observe t.h_request (Unix.gettimeofday () -. item.enqueued_at);
  item.reply resp

let mk_meta ?(alt_assisted = false) ?version ~width ~rounds item =
  {
    Protocol.batch_width = width;
    rounds;
    wall_ms = (Unix.gettimeofday () -. item.enqueued_at) *. 1000.;
    alt_assisted;
    version;
  }

let next_trace t = Atomic.fetch_and_add t.trace_counter 1

(* ------------------------------------------------------------------ *)
(* Per-query attribution (docs/OBSERVABILITY.md §8a)                   *)

let schedule_string t =
  Ordered.Schedule.to_string t.config.Config.schedule

(* The paste-able check_runner line that replays this query solo — only
   when the server knows which file it loaded the graph from. *)
let repro_of t item =
  match t.config.Config.graph_file with
  | None -> None
  | Some graph_file ->
      let mk app source target =
        Some
          (Check.Query_repro.to_line
             {
               Check.Query_repro.app;
               graph_file;
               symmetric = t.config.Config.symmetric;
               source;
               target;
               schedule = t.config.Config.schedule;
               workers = Pool.num_workers t.pool;
             })
      in
      (match item.req.Protocol.op with
      | Protocol.Ppsp { source; target } -> mk Check.Query_repro.Ppsp source target
      | Protocol.Astar { source; target } ->
          mk Check.Query_repro.Astar source target
      | Protocol.Widest { source; target } ->
          mk Check.Query_repro.Widest source target
      | Protocol.Kcore { vertex } -> mk Check.Query_repro.Kcore vertex (-1)
      | _ -> None)

(* The attribution record: built at resolve time, logged at Debug
   ([service.query.done]) for every point query and at Warn — as the
   slow-query record [service.slow_query] — when the query missed its
   deadline or beat the slow_query_ms threshold. [rounds]/[edges] are
   the engine's live totals when this member's reply resolved, which
   for a coalesced batch attributes shared work per member. *)
let log_query t item (resp : Protocol.response) ~batch_trace ~width ~rounds
    ~edges ~queue_wait_ms ~alt_assisted ~version =
  let deadline_missed = resp.Protocol.status = Protocol.Partial in
  let wall_ms = (Unix.gettimeofday () -. item.enqueued_at) *. 1000. in
  let slow_ms = t.config.Config.slow_query_ms in
  let slow = deadline_missed || (slow_ms > 0. && wall_ms >= slow_ms) in
  if slow then Metrics.incr t.m_slow ~tid:0 ();
  let level = if slow then Log.Warn else Log.Debug in
  if Log.enabled level then begin
    let endpoints =
      match item.req.Protocol.op with
      | Protocol.Ppsp { source; target }
      | Protocol.Astar { source; target }
      | Protocol.Widest { source; target } ->
          [ ("source", Json.Int source); ("target", Json.Int target) ]
      | Protocol.Kcore { vertex } -> [ ("vertex", Json.Int vertex) ]
      | _ -> []
    in
    let deadline_ms =
      match (item.req.Protocol.deadline_ms, item.deadline) with
      | Some ms, _ -> Json.Float ms
      | None, Some _ -> Json.Float t.config.Config.default_deadline_ms
      | None, None -> Json.Null
    in
    let slack_ms =
      (* Positive: the reply beat its deadline by this much. Negative:
         missed by this much (the partial-answer case). *)
      match item.deadline with
      | None -> Json.Null
      | Some d -> Json.Float (Deadline.remaining_seconds d *. 1000.)
    in
    Log.event ~tid:0 level
      (if slow then "service.slow_query" else "service.query.done")
      ([
         ("query", Json.Int item.trace);
         ("id", Json.Int item.req.Protocol.id);
         ("op", Json.String (Protocol.op_name item.req.Protocol.op));
         ("batch", Json.Int batch_trace);
         ("batch_width", Json.Int width);
       ]
      @ endpoints
      @ [
          ("status", Json.String (Protocol.status_to_string resp.Protocol.status));
          ("rounds", Json.Int rounds);
          ("edges_relaxed", Json.Int edges);
          ("wall_ms", Json.Float wall_ms);
          ("wake_ms", Json.Float ((item.popped_at -. item.enqueued_at) *. 1000.));
          ("queue_wait_ms", Json.Float queue_wait_ms);
          ("deadline_ms", deadline_ms);
          ("deadline_slack_ms", slack_ms);
          ("schedule", Json.String (schedule_string t));
          ("workers", Json.Int (Pool.num_workers t.pool));
          ("alt_assisted", Json.Bool alt_assisted);
          ("version", Json.Int version);
        ]
      @
      match repro_of t item with
      | Some line -> [ ("repro", Json.String line) ]
      | None -> [])
  end

(* Reply + attribute: the funnel every point-query resolution takes.
   Closes the query's async trace slice, replies through [finish], and
   emits the attribution record. *)
let finish_query t item resp ~batch_trace ~width ~rounds ~edges ~queue_wait_ms
    ~alt_assisted ~version =
  (match Tracer.current () with
  | Some tr -> Tracer.async_end tr ~tid:0 ~id:item.trace t.query_track
  | None -> ());
  finish t item resp;
  log_query t item resp ~batch_trace ~width ~rounds ~edges ~queue_wait_ms
    ~alt_assisted ~version

(* Open one async slice per member and scope the tracer's ambient query
   context to the batch for the duration of [f]: every engine/traverse/
   pool slice recorded inside carries [args:{"query": batch_trace}]. *)
let with_batch_context t ~batch_trace members f =
  (match Tracer.current () with
  | Some tr ->
      List.iter
        (fun m -> Tracer.async_begin tr ~tid:0 ~id:m.trace t.query_track)
        members
  | None -> ());
  Tracer.set_context (Some batch_trace);
  Fun.protect ~finally:(fun () -> Tracer.set_context None) f

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

let deadline_of t req =
  match req.Protocol.deadline_ms with
  | Some ms when ms > 0. -> Some (Deadline.after_ms ms)
  | Some _ -> None (* explicit 0: no deadline *)
  | None ->
      if t.config.Config.default_deadline_ms > 0. then
        Some (Deadline.after_ms t.config.Config.default_deadline_ms)
      else None

let validate t (req : Protocol.request) =
  let n = Versioned.num_vertices t.versioned in
  let range what v =
    if v < 0 || v >= n then
      Some (Printf.sprintf "%s %d out of range [0, %d)" what v n)
    else None
  in
  let endpoints s tg =
    match range "source" s with Some e -> Some e | None -> range "target" tg
  in
  match req.Protocol.op with
  | Protocol.Ppsp { source; target }
  | Protocol.Astar { source; target }
  | Protocol.Widest { source; target } ->
      endpoints source target
  | Protocol.Kcore { vertex } -> range "vertex" vertex
  | Protocol.Subscribe { interval_ms; updates } ->
      if interval_ms < 0. || Float.is_nan interval_ms then
        Some "interval_ms must be non-negative"
      else if updates < 0 || updates > 100_000 then
        Some "updates out of range [0, 100000]"
      else None
  | Protocol.Mutate { ops } -> (
      match Delta.validate ~num_vertices:n ops with
      | Result.Ok () -> None
      | Result.Error msg -> Some msg)
  | Protocol.Cancel { query } ->
      if query < 0 then Some "query must be a non-negative request id"
      else None
  | Protocol.Warm_alt | Protocol.Stats | Protocol.Ping | Protocol.Shutdown ->
      None

let enqueue t req ~reply =
  let now = Unix.gettimeofday () in
  let item =
    {
      req;
      reply;
      enqueued_at = now;
      popped_at = now;
      deadline = deadline_of t req;
      trace = next_trace t;
    }
  in
  if Request_queue.try_push t.queue item then record_depth t
  else begin
    Metrics.incr t.m_rejected ~tid:0 ();
    Metrics.incr t.m_error ~tid:0 ();
    reply
      (Protocol.rejected ~id:req.Protocol.id
         (if Request_queue.is_closed t.queue then "server stopping"
          else
            Printf.sprintf "queue full (capacity %d)"
              (Request_queue.capacity t.queue)))
  end

let submit t req ~reply =
  Metrics.incr t.m_requests ~tid:0 ();
  match validate t req with
  | Some msg ->
      Metrics.incr t.m_error ~tid:0 ();
      reply (Protocol.error ~id:req.Protocol.id msg)
  | None -> (
      match req.Protocol.op with
      | Protocol.Cancel { query } ->
          (* Never queued: a cancellation racing the batcher must be
             visible while its target runs, not after. Registered here on
             the submitting thread; the batcher consumes it at the next
             round boundary (in-flight) or when it reaches the queued
             target. *)
          Mutex.lock t.cancel_mutex;
          Hashtbl.replace t.cancelled query (Unix.gettimeofday ());
          Mutex.unlock t.cancel_mutex;
          Metrics.incr t.m_cancel_requests ~tid:0 ();
          Metrics.incr t.m_ok ~tid:0 ();
          reply
            (Protocol.ok ~id:req.Protocol.id
               (Json.Obj
                  [
                    ("cancelling", Json.Int query);
                    ("registered", Json.Bool true);
                  ]))
      | _ -> enqueue t req ~reply)

(* ------------------------------------------------------------------ *)
(* Batching: group requests that can share one engine run.             *)

type group =
  | G_sssp of int * item list  (* ppsp sharing a source *)
  | G_astar of (int * int) * item list  (* identical A* queries *)
  | G_widest of int * item list  (* widest sharing a source *)
  | G_kcore of item list  (* every local k-core query *)
  | G_admin of item

type key =
  | K_sssp of int
  | K_astar of int * int
  | K_widest of int
  | K_kcore
  | K_admin of int (* unique per item: admin ops never coalesce *)

let group_items items =
  let counter = ref 0 in
  let key item =
    match item.req.Protocol.op with
    | Protocol.Ppsp { source; _ } -> K_sssp source
    | Protocol.Astar { source; target } -> K_astar (source, target)
    | Protocol.Widest { source; _ } -> K_widest source
    | Protocol.Kcore _ -> K_kcore
    | Protocol.Mutate _ | Protocol.Cancel _ | Protocol.Subscribe _
    | Protocol.Warm_alt | Protocol.Stats | Protocol.Ping | Protocol.Shutdown
      ->
        (* Mutations never coalesce and keep their first-appearance
           position among the cycle's groups; a query coalesced into an
           earlier group may run before a mutate that preceded it on the
           wire — its meta [version] names the snapshot it actually
           read. *)
        incr counter;
        K_admin !counter
  in
  (* Groups run in first-appearance order; members stay FIFO within
     their group. *)
  let members = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun item ->
      let k = key item in
      match Hashtbl.find_opt members k with
      | Some l -> Hashtbl.replace members k (item :: l)
      | None ->
          Hashtbl.add members k [ item ];
          order := k :: !order)
    items;
  List.rev_map
    (fun k ->
      let ms = List.rev (Hashtbl.find members k) in
      match (k, ms) with
      | K_sssp s, _ -> G_sssp (s, ms)
      | K_astar (s, tg), _ -> G_astar ((s, tg), ms)
      | K_widest s, _ -> G_widest (s, ms)
      | K_kcore, _ -> G_kcore ms
      | K_admin _, [ item ] -> G_admin item
      | K_admin _, _ -> assert false)
    !order

(* Batch deadline: the engine run may keep going while any member could
   still profit — members are resolved individually at round
   boundaries, so the run-level deadline only has to cover the most
   generous member. A single member without a deadline means the run
   gets none. *)
let run_deadline members =
  List.fold_left
    (fun acc m ->
      match (acc, m.deadline) with
      | None, _ | _, None -> None
      | Some a, Some b -> Some (Deadline.latest a b))
    (match members with [] -> None | m :: _ -> m.deadline)
    (match members with [] -> [] | _ :: rest -> rest)

(* ------------------------------------------------------------------ *)
(* Group runners                                                       *)

(* Shared shape of the sssp/widest group runners: one engine run from
   [source]; each member resolves at a round boundary — exact once
   [finished_vertex] holds for its target, partial the moment its own
   deadline expires. [value_of] reads the member's current answer,
   [done_ tgt] decides finalization. [start] is stamped by the caller
   before it builds the distance array and queue, so that set-up counts
   as batch run time, not queue wait. *)
let run_point_group t members ~start ~snapshot ~pq ~dist_ready ~value_json
    ~edge_fn =
  let width = List.length members in
  let version = Handle.version snapshot in
  let batch_trace = next_trace t in
  Metrics.incr t.m_batches ~tid:0 ();
  Metrics.incr t.m_batched_queries ~tid:0 ~by:width ();
  List.iter
    (fun m -> Metrics.observe t.h_queue_wait (start -. m.enqueued_at))
    members;
  let rounds = ref 0 in
  (* Live engine totals, refreshed by the on_round hook after every
     global round. [stop] runs before the next round, so a member
     resolved there is attributed exactly the rounds and relaxations the
     engine had completed when its reply left. *)
  let live_rounds = ref 0 and live_edges = ref 0 in
  let on_round (s : Ordered.Stats.t) _ =
    live_rounds := s.Ordered.Stats.rounds;
    live_edges := s.Ordered.Stats.edges_relaxed
  in
  let target_of m =
    match m.req.Protocol.op with
    | Protocol.Ppsp { target; _ } | Protocol.Widest { target; _ } -> target
    | _ -> assert false
  in
  let pending = ref (List.map (fun m -> (m, target_of m)) members) in
  let answer m resp =
    finish_query t m resp ~batch_trace ~width ~rounds:!live_rounds
      ~edges:!live_edges
      ~queue_wait_ms:((start -. m.enqueued_at) *. 1000.)
      ~alt_assisted:false ~version
  in
  let resolve ~final =
    pending :=
      List.filter
        (fun (m, tgt) ->
          if is_cancelled t m.req.Protocol.id then begin
            (* A cancel raced in: the reply carries whatever monotone
               bound the run has reached, exactly like a deadline miss
               but with its own status. *)
            answer m
              (Protocol.cancelled
                 ~meta:(mk_meta ~version ~width ~rounds:!rounds m)
                 ~id:m.req.Protocol.id (value_json tgt));
            false
          end
          else if final || dist_ready tgt then begin
            answer m
              (Protocol.ok
                 ~meta:(mk_meta ~version ~width ~rounds:!rounds m)
                 ~id:m.req.Protocol.id (value_json tgt));
            false
          end
          else
            match m.deadline with
            | Some dl when Deadline.expired dl ->
                Metrics.incr t.m_deadline_miss ~tid:0 ();
                answer m
                  (Protocol.partial
                     ~meta:(mk_meta ~version ~width ~rounds:!rounds m)
                     ~id:m.req.Protocol.id (value_json tgt));
                false
            | _ -> true)
        !pending
  in
  let stop () =
    incr rounds;
    resolve ~final:false;
    !pending = []
  in
  let run () =
    ignore
      (Engine.run ~pool:t.pool ~handle:snapshot
         ~schedule:t.config.Config.schedule ~pq ~edge_fn ~stop ~on_round
         ?deadline:(run_deadline members) ())
  in
  Span.with_ "service.batch" (fun () ->
      with_batch_context t ~batch_trace members run);
  Metrics.observe t.h_batch_run (Unix.gettimeofday () -. start);
  (* Queue exhausted (or run-level deadline): whatever is left is final —
     for monotone queries the vector now holds the true values, or the
     best bounds the deadline allowed. *)
  resolve ~final:true

let run_sssp_group t ~source members =
  with_snapshot t (fun snapshot ->
      let start = Unix.gettimeofday () in
      let dist = Atomic_array.make (Handle.num_vertices snapshot) null in
      Atomic_array.set dist source 0;
      let pq =
        Pq.create ~schedule:t.config.Config.schedule
          ~num_workers:(Pool.num_workers t.pool)
          ~direction:Bucket_order.Lower_first ~allow_coarsening:true
          ~priorities:dist ~initial:(Pq.Start_vertex source) ~pool:t.pool ()
      in
      let edge_fn ctx ~src ~dst ~weight =
        let new_dist = Atomic_array.get dist src + weight in
        Pq.update_priority_min pq ctx dst new_dist
      in
      run_point_group t members ~start ~snapshot ~pq ~edge_fn
        ~dist_ready:(fun tgt ->
          Atomic_array.get dist tgt <> null && Pq.finished_vertex pq tgt)
        ~value_json:(fun tgt ->
          Protocol.distance_json (Atomic_array.get dist tgt)))

let run_widest_group t ~source members =
  with_snapshot t (fun snapshot ->
      let start = Unix.gettimeofday () in
      let graph = Handle.csr snapshot in
      let n = Csr.num_vertices graph in
      let capacity = Atomic_array.make n 0 in
      Atomic_array.set capacity source (max 1 (Csr.max_weight graph));
      let pq =
        Pq.create ~schedule:t.config.Config.schedule
          ~num_workers:(Pool.num_workers t.pool)
          ~direction:Bucket_order.Higher_first ~allow_coarsening:true
          ~priorities:capacity ~initial:(Pq.Start_vertex source) ~pool:t.pool ()
      in
      let edge_fn ctx ~src ~dst ~weight =
        let through = min (Atomic_array.get capacity src) weight in
        Pq.update_priority_max pq ctx dst through
      in
      run_point_group t members ~start ~snapshot ~pq ~edge_fn
        ~dist_ready:(fun tgt ->
          Atomic_array.get capacity tgt > 0 && Pq.finished_vertex pq tgt)
        ~value_json:(fun tgt ->
          Protocol.capacity_json (Atomic_array.get capacity tgt)))

let run_astar_group t ~source ~target members =
  with_snapshot t (fun snapshot ->
  let version = Handle.version snapshot in
  let width = List.length members in
  let batch_trace = next_trace t in
  Metrics.incr t.m_batches ~tid:0 ();
  Metrics.incr t.m_batched_queries ~tid:0 ~by:width ();
  let start = Unix.gettimeofday () in
  List.iter
    (fun m -> Metrics.observe t.h_queue_wait (start -. m.enqueued_at))
    members;
  (* A cancel that lands while these members are still queued resolves
     here, before the run; mid-run cancellation is the point groups'
     round-boundary seam. *)
  let cancelled_ms, members =
    List.partition (fun m -> is_cancelled t m.req.Protocol.id) members
  in
  List.iter
    (fun m ->
      finish_query t m
        (Protocol.cancelled
           ~meta:(mk_meta ~version ~width ~rounds:0 m)
           ~id:m.req.Protocol.id Json.Null)
        ~batch_trace ~width ~rounds:0 ~edges:0
        ~queue_wait_ms:((start -. m.enqueued_at) *. 1000.)
        ~alt_assisted:false ~version)
    cancelled_ms;
  if members = [] then ()
  else begin
  let heuristic = Alt.heuristic t.alt_cache ~target in
  let alt_assisted = heuristic <> None in
  Metrics.incr
    (if alt_assisted then t.m_alt_assisted else t.m_alt_unassisted)
    ~tid:0 ();
  let run () =
    Algorithms.Astar.run ~pool:t.pool ~graph:(Handle.csr snapshot)
      ?coords:t.coords ?heuristic ~handle:snapshot
      ~schedule:t.config.Config.schedule ~source ~target
      ?deadline:(run_deadline members) ()
  in
  let r, seconds =
    Support.Timer.time (fun () ->
        Span.with_ "service.batch" (fun () ->
            with_batch_context t ~batch_trace members run))
  in
  Metrics.observe t.h_batch_run seconds;
  let timed_out = r.Algorithms.Astar.stats.Ordered.Stats.timed_out in
  let rounds = r.Algorithms.Astar.stats.Ordered.Stats.rounds in
  let edges = r.Algorithms.Astar.stats.Ordered.Stats.edges_relaxed in
  if timed_out then Metrics.incr t.m_deadline_miss ~tid:0 ~by:width ();
  List.iter
    (fun m ->
      let meta = mk_meta ~alt_assisted ~version ~width ~rounds m in
      let payload = Protocol.distance_json r.Algorithms.Astar.distance in
      finish_query t m
        (if timed_out then Protocol.partial ~meta ~id:m.req.Protocol.id payload
         else Protocol.ok ~meta ~id:m.req.Protocol.id payload)
        ~batch_trace ~width ~rounds ~edges
        ~queue_wait_ms:((start -. m.enqueued_at) *. 1000.)
        ~alt_assisted ~version)
    members
  end)

let kcore_vertex m =
  match m.req.Protocol.op with
  | Protocol.Kcore { vertex } -> vertex
  | _ -> assert false

let run_kcore_group t members =
  with_snapshot t (fun snapshot ->
  let version = Handle.version snapshot in
  let width = List.length members in
  let start = Unix.gettimeofday () in
  List.iter
    (fun m -> Metrics.observe t.h_queue_wait (start -. m.enqueued_at))
    members;
  let batch_trace = next_trace t in
  let cancelled_ms, members =
    List.partition (fun m -> is_cancelled t m.req.Protocol.id) members
  in
  List.iter
    (fun m ->
      finish_query t m
        (Protocol.cancelled
           ~meta:(mk_meta ~version ~width ~rounds:0 m)
           ~id:m.req.Protocol.id Json.Null)
        ~batch_trace ~width ~rounds:0 ~edges:0
        ~queue_wait_ms:((start -. m.enqueued_at) *. 1000.)
        ~alt_assisted:false ~version)
    cancelled_ms;
  if members = [] then ()
  else
  match t.coreness with
  | Some (v, core) when v = version ->
      (* The decomposition is query-independent: cache hits are O(1).
         The version key retires it on mutation — a post-commit query
         can never read the old graph's coreness. *)
      Metrics.incr t.m_kcore_hits ~tid:0 ~by:width ();
      with_batch_context t ~batch_trace members (fun () ->
          List.iter
            (fun m ->
              finish_query t m
                (Protocol.ok
                   ~meta:(mk_meta ~version ~width ~rounds:0 m)
                   ~id:m.req.Protocol.id
                   (Protocol.coreness_json core.(kcore_vertex m)))
                ~batch_trace ~width ~rounds:0 ~edges:0
                ~queue_wait_ms:((start -. m.enqueued_at) *. 1000.)
                ~alt_assisted:false ~version)
            members)
  | _ ->
      Metrics.incr t.m_batches ~tid:0 ();
      Metrics.incr t.m_batched_queries ~tid:0 ~by:width ();
      Metrics.incr t.m_kcore_runs ~tid:0 ();
      let handle =
        match t.kcore_handle with
        | Some (v, h) when v = version -> h
        | _ ->
            let h =
              Handle.create ~version
                (Csr.of_edge_list
                   (Edge_list.symmetrized
                      (Csr.to_edge_list (Handle.csr snapshot))))
            in
            t.kcore_handle <- Some (version, h);
            h
      in
      let run () =
        Algorithms.Kcore.run ~pool:t.pool ~graph:(Handle.csr handle) ~handle
          ~schedule:t.config.Config.schedule ?deadline:(run_deadline members) ()
      in
      let r, seconds =
        Support.Timer.time (fun () ->
            Span.with_ "service.batch" (fun () ->
                with_batch_context t ~batch_trace members run))
      in
      Metrics.observe t.h_batch_run seconds;
      let timed_out = r.Algorithms.Kcore.stats.Ordered.Stats.timed_out in
      let rounds = r.Algorithms.Kcore.stats.Ordered.Stats.rounds in
      let edges = r.Algorithms.Kcore.stats.Ordered.Stats.edges_relaxed in
      if timed_out then Metrics.incr t.m_deadline_miss ~tid:0 ~by:width ()
      else t.coreness <- Some (version, r.Algorithms.Kcore.coreness);
      List.iter
        (fun m ->
          let meta = mk_meta ~version ~width ~rounds m in
          let payload =
            Protocol.coreness_json r.Algorithms.Kcore.coreness.(kcore_vertex m)
          in
          finish_query t m
            (if timed_out then Protocol.partial ~meta ~id:m.req.Protocol.id payload
             else Protocol.ok ~meta ~id:m.req.Protocol.id payload)
            ~batch_trace ~width ~rounds ~edges
            ~queue_wait_ms:((start -. m.enqueued_at) *. 1000.)
            ~alt_assisted:false ~version)
        members)

(* ------------------------------------------------------------------ *)
(* Admin ops                                                           *)

let warm_alt t = Alt.warm_all t.alt_cache
let idle_warm t = Alt.warm_one t.alt_cache

(* p50/p95/p99 of the service latency histograms, derived from their
   log2-ns buckets (within one bucket of exact — see
   Metrics.percentile_ns). Milliseconds on the wire, like wall_ms. *)
let percentiles_json (snap : Metrics.snapshot) =
  let of_hist name =
    match List.assoc_opt name snap.Metrics.histograms with
    | None -> Json.Obj [ ("count", Json.Int 0) ]
    | Some h ->
        let p q = Json.Float (Metrics.percentile_ns h q /. 1e6) in
        Json.Obj
          [
            ("count", Json.Int h.Metrics.count);
            ("p50_ms", p 0.5);
            ("p95_ms", p 0.95);
            ("p99_ms", p 0.99);
          ]
  in
  Json.Obj
    [
      ("request", of_hist "service.request");
      ("batch_run", of_hist "service.batch_run");
      ("queue_wait", of_hist "service.queue_wait");
      ("wake", of_hist "service.wake");
    ]

(* One streamed stats push: a compact subset of [stats_json] (queue
   depth, reply counters, latency percentiles) cheap enough to emit
   every interval without touching the graph. *)
let snapshot_json t ~seq ~updates =
  let snap = Metrics.snapshot Metrics.default in
  let c name =
    Json.Int (Option.value ~default:0 (List.assoc_opt name snap.Metrics.counters))
  in
  Json.Obj
    [
      ("seq", Json.Int seq);
      ("updates", Json.Int updates);
      ("ts_ms", Json.Float (Unix.gettimeofday () *. 1000.));
      ("version", Json.Int (Versioned.version t.versioned));
      ( "queue",
        Json.Obj
          [
            ("depth", Json.Int (Request_queue.length t.queue));
            ("capacity", Json.Int (Request_queue.capacity t.queue));
          ] );
      ("kcore_cached", Json.Bool (Option.is_some t.coreness));
      ("alt_warmed", Json.Int (Alt.warmed t.alt_cache));
      ( "counters",
        Json.Obj
          [
            ("requests", c "service.requests");
            ("ok", c "service.replies.ok");
            ("partial", c "service.replies.partial");
            ("error", c "service.replies.error");
            ("deadline_misses", c "service.deadline_misses");
            ("slow_queries", c "service.slow_queries");
            ("batches", c "service.batches");
          ] );
      ("latency", percentiles_json snap);
    ]

let stats_json t =
  let snap = Metrics.snapshot Metrics.default in
  Json.Obj
    [
      ( "graph",
        Json.Obj
          [
            ("vertices", Json.Int (Versioned.num_vertices t.versioned));
            ( "edges",
              Json.Int (Handle.num_edges (Versioned.latest t.versioned)) );
            ( "layout",
              Json.String
                (Graphs.Layout.kind_to_string (Versioned.kind t.versioned)) );
            ("version", Json.Int (Versioned.version t.versioned));
          ] );
      ( "config",
        Json.Obj
          [
            ("queue_capacity", Json.Int t.config.Config.queue_capacity);
            ("max_batch", Json.Int t.config.Config.max_batch);
            ( "default_deadline_ms",
              Json.Float t.config.Config.default_deadline_ms );
            ("landmarks", Json.Int t.config.Config.landmarks);
            ("compact_ops", Json.Int t.config.Config.compact_ops);
            ("workers", Json.Int (Pool.num_workers t.pool));
          ] );
      ( "dynamic",
        Json.Obj
          [
            ("version", Json.Int (Versioned.version t.versioned));
            ("ops_pending", Json.Int (Versioned.ops_pending t.versioned));
            ("compactions", Json.Int (Versioned.compactions t.versioned));
            ( "pinned",
              Json.List
                (List.map
                   (fun v -> Json.Int v)
                   (Versioned.pinned_versions t.versioned)) );
          ] );
      ("alt", Alt.to_json t.alt_cache);
      ("kcore_cached", Json.Bool (Option.is_some t.coreness));
      ( "queue",
        Json.Obj
          [
            ("depth", Json.Int (Request_queue.length t.queue));
            ("capacity", Json.Int (Request_queue.capacity t.queue));
          ] );
      ("metrics", Metrics.to_json snap);
      ("latency", percentiles_json snap);
    ]

(* A subscription: the first snapshot is pushed synchronously through
   [finish] (it doubles as the op's ok reply and lands in the status
   counters once); the rest stream from a dedicated pusher thread
   straight through [item.reply] — the server's per-connection write
   lock makes that safe, and bypassing [finish] keeps the reply
   counters from counting one request many times. Pushers sleep in
   short slices so shutdown never waits a full interval, and are
   joined by [drain_shutdown]. *)
let run_subscribe t item ~interval_ms ~updates =
  Metrics.incr t.m_subs ~tid:0 ();
  let interval_s = Float.max 0.01 (interval_ms /. 1000.) in
  let push_via send seq =
    Metrics.incr t.m_sub_pushes ~tid:0 ();
    send
      (Protocol.ok ~id:item.req.Protocol.id (snapshot_json t ~seq ~updates))
  in
  push_via (finish t item) 1;
  if updates <> 1 then begin
    let pusher () =
      let seq = ref 2 in
      let continue () =
        (not (Atomic.get t.shutdown)) && (updates = 0 || !seq <= updates)
      in
      while continue () do
        let slept = ref 0. in
        while continue () && !slept < interval_s do
          let slice = Float.min 0.05 (interval_s -. !slept) in
          Thread.delay slice;
          slept := !slept +. slice
        done;
        if continue () then begin
          push_via item.reply !seq;
          incr seq
        end
      done
    in
    Mutex.lock t.sub_mutex;
    t.subscribers <- Thread.create pusher () :: t.subscribers;
    Mutex.unlock t.sub_mutex
  end

(* Background compaction: rebuild every derived layout of the latest
   version hot on a helper thread, then swap — queries keep reading
   their pinned snapshots throughout, and the next pin finds all caches
   warm. One compactor at a time; a still-running one is joined first
   (it is normally long done by the next trigger). *)
let maybe_compact t =
  if t.config.Config.compact_ops > 0 && Versioned.should_compact t.versioned
  then begin
    (match t.compactor with
    | Some th ->
        Thread.join th;
        t.compactor <- None
    | None -> ());
    t.compactor <-
      Some
        (Thread.create
           (fun () ->
             let swapped, seconds =
               Support.Timer.time (fun () -> Versioned.compact t.versioned)
             in
             if swapped then begin
               Metrics.incr t.m_compactions ~tid:0 ();
               Metrics.observe t.h_compaction seconds
             end)
           ());
    true
  end
  else false

(* One mutation commit: apply the batch (a fresh version), retire the
   version-keyed caches, repair the ALT vectors incrementally, and kick
   compaction when the op budget is reached. Runs on the batcher thread,
   so every query is strictly before or after the commit. *)
let run_mutate t item ~ops =
  let start = Unix.gettimeofday () in
  Metrics.observe t.h_queue_wait (start -. item.enqueued_at);
  let old_handle = Versioned.latest t.versioned in
  let version =
    Span.with_ "service.mutate" (fun () -> Versioned.commit t.versioned ops)
  in
  let handle = Versioned.latest t.versioned in
  Metrics.incr t.m_commits ~tid:0 ();
  Metrics.incr t.m_commit_ops ~tid:0 ~by:(Delta.size ops) ();
  let refreshed, kept = Alt.refresh t.alt_cache ~old_handle ~handle ~batch:ops in
  let compacting = maybe_compact t in
  Metrics.observe t.h_commit (Unix.gettimeofday () -. start);
  finish t item
    (Protocol.ok
       ~meta:(mk_meta ~version ~width:1 ~rounds:0 item)
       ~id:item.req.Protocol.id
       (Json.Obj
          [
            ("version", Json.Int version);
            ("applied", Json.Int (Delta.size ops));
            ("alt_refreshed", Json.Int refreshed);
            ("alt_kept", Json.Int kept);
            ("compacting", Json.Bool compacting);
          ]))

let run_admin t item =
  let reply_ok payload =
    finish t item (Protocol.ok ~id:item.req.Protocol.id payload)
  in
  match item.req.Protocol.op with
  | Protocol.Ping -> reply_ok (Json.Obj [ ("pong", Json.Bool true) ])
  | Protocol.Mutate { ops } -> run_mutate t item ~ops
  | Protocol.Subscribe { interval_ms; updates } ->
      run_subscribe t item ~interval_ms ~updates
  | Protocol.Warm_alt ->
      let added = warm_alt t in
      reply_ok
        (Json.Obj
           [
             ("landmarks", Json.Int (Alt.total t.alt_cache));
             ("warmed", Json.Int (Alt.warmed t.alt_cache));
             ("newly_warmed", Json.Int added);
           ])
  | Protocol.Stats -> reply_ok (stats_json t)
  | Protocol.Shutdown ->
      Atomic.set t.shutdown true;
      reply_ok (Json.Obj [ ("stopping", Json.Bool true) ])
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* The batcher cycle                                                   *)

let run_group t = function
  | G_sssp (source, members) -> run_sssp_group t ~source members
  | G_astar ((source, target), members) ->
      run_astar_group t ~source ~target members
  | G_widest (source, members) -> run_widest_group t ~source members
  | G_kcore members -> run_kcore_group t members
  | G_admin item -> run_admin t item

let process_pending t ~wait =
  let items =
    Request_queue.pop_batch t.queue ~max:t.config.Config.max_batch ~wait
  in
  let popped_at = Unix.gettimeofday () in
  List.iter
    (fun item ->
      item.popped_at <- popped_at;
      Metrics.observe t.h_wake (popped_at -. item.enqueued_at))
    items;
  record_depth t;
  sweep_cancelled t;
  match items with
  | [] -> 0
  | _ ->
      List.iter (run_group t) (group_items items);
      List.length items

let drain_shutdown t =
  (* Stop the subscription pushers first: they write to connections the
     server only closes after this returns, so every stream gets to
     finish its in-flight push. *)
  Atomic.set t.shutdown true;
  let pushers =
    Mutex.lock t.sub_mutex;
    let l = t.subscribers in
    t.subscribers <- [];
    Mutex.unlock t.sub_mutex;
    l
  in
  List.iter Thread.join pushers;
  (match t.compactor with
  | Some th ->
      Thread.join th;
      t.compactor <- None
  | None -> ());
  Request_queue.close t.queue;
  let rec drain () =
    match Request_queue.pop_batch t.queue ~max:max_int ~wait:false with
    | [] -> ()
    | items ->
        List.iter
          (fun item ->
            Metrics.incr t.m_error ~tid:0 ();
            item.reply
              (Protocol.rejected ~id:item.req.Protocol.id "server stopping"))
          items;
        drain ()
  in
  drain ()

let idle_tick_s = 0.05

(* The batcher sleeps in [pop_batch ~wait:true], so a push wakes it at
   once. The ticker is its only other wake-up: every [idle_tick_s] it
   ends an idle wait with [[]], which is the slot for background ALT
   warm-up and for noticing [should_stop]. [should_stop] is a plain
   flag, so a signal handler that sets it never touches the queue
   mutex. The ticker sleeps in [select] on a pipe rather than in
   [Thread.delay], so that [run_loop] can wake it to join it, and a
   signal that interrupts its sleep (EINTR) ticks at once. *)
let run_loop t ~should_stop =
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  let ticker =
    Thread.create
      (fun () ->
        let rec loop () =
          match Unix.select [ stop_r ] [] [] idle_tick_s with
          | [], _, _ | (exception Unix.Unix_error (Unix.EINTR, _, _)) ->
              Request_queue.tick t.queue;
              loop ()
          | _ -> ()
        in
        loop ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.write_substring stop_w "x" 0 1);
      Thread.join ticker;
      Unix.close stop_r;
      Unix.close stop_w)
    (fun () ->
      while not (should_stop () || Atomic.get t.shutdown) do
        let resolved = process_pending t ~wait:true in
        (* An idle tick is the background-warmup slot: one landmark pair
           per quiet tick until the ALT cache is fully warm. *)
        if resolved = 0 then ignore (idle_warm t)
      done)
