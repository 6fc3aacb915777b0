(* The traversal kernel is a performance choice, never a semantic one:
   Push, Pull, and Hybrid sweeps of the same edge function must produce
   identical results, and reusing one Scratch across runs must equal fresh
   state. *)

module Pool = Parallel.Pool
module Atomic_array = Parallel.Atomic_array
module Csr = Graphs.Csr
module Generators = Graphs.Generators
module Rng = Support.Rng
module Bucket_order = Bucketing.Bucket_order
module Update_buffer = Bucketing.Update_buffer
module Vertex_subset = Frontier.Vertex_subset
module Edge_map = Traverse.Edge_map
module Scratch = Traverse.Scratch
module Schedule = Ordered.Schedule

let random_weighted_graph = Testlib.random_weighted_graph

(* Bellman-Ford directly on the kernel, one edge-map per iteration in the
   requested direction. The relax function is the schedule-oblivious shape
   every converted call site uses: branch on [ctx.use_atomics] only. *)
let kernel_sssp ~scratch ~graph ~transpose ~direction ~source =
  let n = Csr.num_vertices graph in
  let dist = Atomic_array.make n Bucket_order.null_priority in
  Atomic_array.set dist source 0;
  let buffer = Scratch.buffer scratch in
  let relax ctx ~src ~dst ~weight =
    let ds = Atomic_array.get dist src in
    if ds <> Bucket_order.null_priority then begin
      let nd = ds + weight in
      if ctx.Edge_map.use_atomics then begin
        if Atomic_array.fetch_min dist dst nd then
          ignore (Update_buffer.try_add buffer ~tid:ctx.Edge_map.tid dst)
      end
      else if nd < Atomic_array.get dist dst then begin
        Atomic_array.set dist dst nd;
        ignore (Update_buffer.try_add buffer ~tid:ctx.Edge_map.tid dst)
      end
    end
  in
  let frontier = ref (Vertex_subset.singleton ~num_vertices:n source) in
  while not (Vertex_subset.is_empty !frontier) do
    ignore (Edge_map.run scratch ~graph ~transpose ~direction !frontier ~f:relax);
    frontier := Scratch.drain_frontier scratch
  done;
  Atomic_array.to_array dist

(* The same Bellman-Ford loop through the layout-dispatching entry point,
   so the specialized compressed-kernel instance runs the identical relax
   function. *)
let kernel_sssp_layout ~scratch ~kind ~graph ~transpose ~direction ~source =
  let n = Csr.num_vertices graph in
  let dist = Atomic_array.make n Bucket_order.null_priority in
  Atomic_array.set dist source 0;
  let buffer = Scratch.buffer scratch in
  let relax ctx ~src ~dst ~weight =
    let ds = Atomic_array.get dist src in
    if ds <> Bucket_order.null_priority then begin
      let nd = ds + weight in
      if ctx.Edge_map.use_atomics then begin
        if Atomic_array.fetch_min dist dst nd then
          ignore (Update_buffer.try_add buffer ~tid:ctx.Edge_map.tid dst)
      end
      else if nd < Atomic_array.get dist dst then begin
        Atomic_array.set dist dst nd;
        ignore (Update_buffer.try_add buffer ~tid:ctx.Edge_map.tid dst)
      end
    end
  in
  let graph = Graphs.Layout.of_csr kind graph in
  let transpose = Graphs.Layout.of_csr kind transpose in
  let frontier = ref (Vertex_subset.singleton ~num_vertices:n source) in
  while not (Vertex_subset.is_empty !frontier) do
    ignore
      (Edge_map.run_layout scratch ~graph ~transpose ~direction !frontier
         ~f:relax);
    frontier := Scratch.drain_frontier scratch
  done;
  Atomic_array.to_array dist

let directions = [ Edge_map.Push; Edge_map.Pull; Edge_map.Hybrid ]

(* Every direction of the raw kernel computes the same fixed point as the
   sequential oracle, on 1-worker and multi-worker pools. *)
let qcheck_kernel_direction_equivalence =
  QCheck.Test.make ~name:"kernel push/pull/hybrid SSSP are identical"
    ~count:30
    QCheck.(triple (int_range 2 60) (int_bound 300) (int_range 1 15))
    (fun (n, m, max_w) ->
      let g = random_weighted_graph (n + (m * 31) + max_w) ~n ~m ~max_w in
      let t = Csr.transpose g in
      let expected = Algorithms.Dijkstra.distances g ~source:0 in
      List.for_all
        (fun workers ->
          Pool.with_pool ~num_workers:workers (fun pool ->
              List.for_all
                (fun direction ->
                  let scratch = Scratch.create ~pool ~graph:g in
                  kernel_sssp ~scratch ~graph:g ~transpose:t ~direction
                    ~source:0
                  = expected)
                directions))
        [ 1; 3 ])

(* Layout polymorphism is a performance choice too: the compressed-kernel
   instance (and the plain one through the same dispatching entry point)
   computes the same fixed point in every direction. *)
let qcheck_kernel_layout_equivalence =
  QCheck.Test.make ~name:"kernel layouts compute identical SSSP" ~count:25
    QCheck.(triple (int_range 2 60) (int_bound 300) (int_range 1 15))
    (fun (n, m, max_w) ->
      let g = random_weighted_graph (n + (m * 57) + max_w) ~n ~m ~max_w in
      let t = Csr.transpose g in
      let expected = Algorithms.Dijkstra.distances g ~source:0 in
      List.for_all
        (fun workers ->
          Pool.with_pool ~num_workers:workers (fun pool ->
              List.for_all
                (fun direction ->
                  List.for_all
                    (fun kind ->
                      let scratch = Scratch.create ~pool ~graph:g in
                      kernel_sssp_layout ~scratch ~kind ~graph:g ~transpose:t
                        ~direction ~source:0
                      = expected)
                    Graphs.Layout.all_kinds)
                directions))
        [ 1; 3 ])

(* The engine's handle path: a compressed-kind handle (with its cached
   compressed transpose) matches the plain run. *)
let qcheck_engine_compressed_handle =
  QCheck.Test.make ~name:"engine on a compressed handle stays exact" ~count:20
    QCheck.(triple (int_range 2 50) (int_bound 250) (int_range 1 8))
    (fun (n, m, delta) ->
      let g = random_weighted_graph (n + (m * 29) + delta) ~n ~m ~max_w:9 in
      let expected = Algorithms.Dijkstra.distances g ~source:0 in
      let handle = Graphs.Handle.create ~kind:Graphs.Layout.Compressed g in
      List.for_all
        (fun workers ->
          Pool.with_pool ~num_workers:workers (fun pool ->
              List.for_all
                (fun traversal ->
                  let schedule =
                    { Schedule.default with strategy = Schedule.Lazy; traversal; delta }
                  in
                  let r =
                    Algorithms.Sssp_delta.run ~pool ~graph:g ~handle ~schedule
                      ~source:0 ()
                  in
                  r.Algorithms.Sssp_delta.dist = expected)
                [ Schedule.Sparse_push; Schedule.Dense_pull; Schedule.Hybrid ]))
        [ 1; 4 ])

(* The same property through the ordered engine: a lazy wBFS schedule run
   under each traversal direction (the engine maps them onto the kernel)
   stays exact. *)
let qcheck_engine_direction_equivalence =
  QCheck.Test.make ~name:"engine SparsePush/DensePull/Hybrid wBFS are identical"
    ~count:20
    QCheck.(triple (int_range 2 50) (int_bound 250) (int_range 1 8))
    (fun (n, m, delta) ->
      let g = random_weighted_graph (n + (m * 13) + delta) ~n ~m ~max_w:9 in
      let handle = Graphs.Handle.create g in
      let expected = Algorithms.Dijkstra.distances g ~source:0 in
      List.for_all
        (fun workers ->
          Pool.with_pool ~num_workers:workers (fun pool ->
              List.for_all
                (fun traversal ->
                  let schedule =
                    { Schedule.default with strategy = Schedule.Lazy; traversal; delta }
                  in
                  let r =
                    Algorithms.Sssp_delta.run ~pool ~graph:g ~handle ~schedule
                      ~source:0 ()
                  in
                  r.Algorithms.Sssp_delta.dist = expected)
                [ Schedule.Sparse_push; Schedule.Dense_pull; Schedule.Hybrid ]))
        [ 1; 4 ])

(* Scratch reuse: the second run on a reused scratch must equal a run on
   fresh state — the dense gating bitmap, buffer, and counters all reset
   between runs. Hybrid on a dense-ish graph exercises the pull path (and
   its clear-by-members sweep) both times. *)
let test_scratch_reuse () =
  let g = random_weighted_graph 2024 ~n:80 ~m:2500 ~max_w:10 in
  let t = Csr.transpose g in
  Pool.with_pool ~num_workers:3 (fun pool ->
      let reused = Scratch.create ~pool ~graph:g in
      let first =
        kernel_sssp ~scratch:reused ~graph:g ~transpose:t
          ~direction:Edge_map.Hybrid ~source:0
      in
      let second =
        kernel_sssp ~scratch:reused ~graph:g ~transpose:t
          ~direction:Edge_map.Hybrid ~source:0
      in
      let fresh =
        let scratch = Scratch.create ~pool ~graph:g in
        kernel_sssp ~scratch ~graph:g ~transpose:t ~direction:Edge_map.Hybrid
          ~source:0
      in
      Alcotest.(check (array int)) "reused run = fresh run" fresh second;
      Alcotest.(check (array int)) "first run = second run" first second)

(* The kernel's counters account every processed vertex and edge: a push
   sweep over the full frontier of a graph touches each edge exactly
   once. *)
let test_counter_accounting () =
  let g = random_weighted_graph 7 ~n:50 ~m:400 ~max_w:5 in
  Pool.with_pool ~num_workers:2 (fun pool ->
      let scratch = Scratch.create ~pool ~graph:g in
      let n = Csr.num_vertices g in
      let touched = Atomic.make 0 in
      let f _ctx ~src:_ ~dst:_ ~weight:_ = Atomic.incr touched in
      ignore
        (Edge_map.run scratch ~graph:g ~direction:Edge_map.Push
           (Vertex_subset.full ~num_vertices:n)
           ~f);
      Alcotest.(check int) "edges traversed" (Csr.num_edges g)
        (Scratch.edges_traversed scratch);
      Alcotest.(check int) "edges applied" (Csr.num_edges g) (Atomic.get touched);
      Alcotest.(check int) "vertices processed" n
        (Scratch.vertices_processed scratch);
      Scratch.reset_counters scratch;
      Alcotest.(check int) "counters reset" 0 (Scratch.edges_traversed scratch))

(* Cheap constructors: same members as the validated of_array forms, and
   fill/clear leave a reusable bitmap empty again. *)
let test_cheap_constructors () =
  let n = 37 in
  Alcotest.(check int) "empty card" 0 (Vertex_subset.cardinal (Vertex_subset.empty ~num_vertices:n));
  let s = Vertex_subset.singleton ~num_vertices:n 5 in
  Alcotest.(check bool) "singleton mem" true (Vertex_subset.mem s 5);
  Alcotest.(check int) "singleton card" 1 (Vertex_subset.cardinal s);
  Alcotest.check_raises "singleton range" (Invalid_argument "Vertex_subset.singleton: vertex out of range")
    (fun () -> ignore (Vertex_subset.singleton ~num_vertices:n n));
  let f = Vertex_subset.full ~num_vertices:n in
  Alcotest.(check int) "full card" n (Vertex_subset.cardinal f);
  Alcotest.(check bool) "full = of_array identity" true
    (Vertex_subset.equal_members f
       (Vertex_subset.of_array ~num_vertices:n (Array.init n (fun i -> i))));
  let flags = Support.Bitset.create n in
  let sub = Vertex_subset.of_array ~num_vertices:n [| 3; 11; 20 |] in
  Vertex_subset.fill_flags sub flags;
  Alcotest.(check int) "filled" 3 (Support.Bitset.count flags);
  Alcotest.(check bool) "member set" true (Support.Bitset.mem flags 11);
  Vertex_subset.clear_flags sub flags;
  Alcotest.(check int) "cleared" 0 (Support.Bitset.count flags)

(* Pull and Hybrid without a transpose are schedule errors, not silent
   push fallbacks. *)
let test_requires_transpose () =
  let g = random_weighted_graph 3 ~n:10 ~m:30 ~max_w:4 in
  Pool.with_pool ~num_workers:1 (fun pool ->
      let scratch = Scratch.create ~pool ~graph:g in
      let frontier = Vertex_subset.singleton ~num_vertices:10 0 in
      let f _ctx ~src:_ ~dst:_ ~weight:_ = () in
      List.iter
        (fun direction ->
          Alcotest.check_raises "missing transpose"
            (Invalid_argument "Edge_map.run: Pull/Hybrid requires ~transpose")
            (fun () ->
              ignore (Edge_map.run scratch ~graph:g ~direction frontier ~f)))
        [ Edge_map.Pull; Edge_map.Hybrid ])

let () =
  Alcotest.run "traverse"
    [
      ( "edge_map",
        [
          QCheck_alcotest.to_alcotest qcheck_kernel_direction_equivalence;
          QCheck_alcotest.to_alcotest qcheck_kernel_layout_equivalence;
          QCheck_alcotest.to_alcotest qcheck_engine_compressed_handle;
          QCheck_alcotest.to_alcotest qcheck_engine_direction_equivalence;
          Alcotest.test_case "counter accounting" `Quick test_counter_accounting;
          Alcotest.test_case "requires transpose" `Quick test_requires_transpose;
        ] );
      ( "scratch",
        [
          Alcotest.test_case "reuse equals fresh" `Quick test_scratch_reuse;
        ] );
      ( "vertex_subset",
        [
          Alcotest.test_case "cheap constructors + flags" `Quick test_cheap_constructors;
        ] );
    ]
