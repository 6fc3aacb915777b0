(* Correctness of the ordered runtime and all six applications, checked
   against sequential oracles across every schedule and several worker
   counts. Coarsening and bucket strategies may change the work performed,
   never the results. *)

module Pool = Parallel.Pool
module Csr = Graphs.Csr
module Edge_list = Graphs.Edge_list
module Generators = Graphs.Generators
module Rng = Support.Rng
module Schedule = Ordered.Schedule
module Bucket_order = Bucketing.Bucket_order

let schedule = Testlib.schedule
let all_strategies = Testlib.all_strategies
let random_weighted_graph = Testlib.random_weighted_graph

(* ---------------- schedule validation ---------------- *)

let test_schedule_validation () =
  let check_err msg s =
    match Schedule.validate s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail msg
  in
  check_err "delta 0 rejected" (schedule ~delta:0 ());
  check_err "pull+eager rejected"
    (schedule ~strategy:Schedule.Eager_with_fusion ~traversal:Schedule.Dense_pull ());
  (match Schedule.validate (schedule ~strategy:Schedule.Lazy ~traversal:Schedule.Dense_pull ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("pull+lazy should be valid: " ^ e));
  Alcotest.(check string) "strategy roundtrip" "eager_with_fusion"
    (Schedule.strategy_to_string Schedule.Eager_with_fusion);
  (match Schedule.strategy_of_string "lazy_constant_sum" with
  | Ok Schedule.Lazy_constant_sum -> ()
  | _ -> Alcotest.fail "parse lazy_constant_sum");
  (match Schedule.traversal_of_string "DensePull" with
  | Ok Schedule.Dense_pull -> ()
  | _ -> Alcotest.fail "parse DensePull")

(* The repro-line syntax every checker prints: printing then parsing is
   the identity, and parsing validates. *)
let test_schedule_string_roundtrip () =
  let cases =
    [
      Schedule.default;
      {
        Schedule.default with
        strategy = Schedule.Lazy;
        delta = 8;
        traversal = Schedule.Dense_pull;
        num_open_buckets = 512;
        sched = Some Pool.Guided;
      };
      {
        Schedule.default with
        strategy = Schedule.Eager_no_fusion;
        delta = 2;
        chunk_size = 64;
        sched = Some Pool.Static;
      };
    ]
  in
  List.iter
    (fun sched ->
      let s = Schedule.to_string sched in
      match Schedule.of_string s with
      | Ok sched' ->
          Alcotest.(check string) ("round-trip " ^ s) s (Schedule.to_string sched');
          Alcotest.(check bool) ("equal schedule " ^ s) true (sched = sched')
      | Error e -> Alcotest.fail (Printf.sprintf "parse %S: %s" s e))
    cases

let test_schedule_string_rejects_invalid () =
  (match Schedule.of_string "strategy=eager_with_fusion,traversal=DensePull" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "pull+eager must not validate");
  match Schedule.of_string "delta=nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad integer must not parse"

(* A handle around another CSR than ~graph is refused, not silently mixed
   in: the algorithm would read degrees from one graph and traverse the
   other. A structurally equal copy is still another CSR. *)
let test_mismatched_handle_rejected () =
  let g = random_weighted_graph 1 ~n:20 ~m:60 ~max_w:5 in
  let other = Graphs.Handle.create (Csr.of_edge_list (Csr.to_edge_list g)) in
  Pool.with_pool ~num_workers:1 (fun pool ->
      Alcotest.check_raises "handle of another graph"
        (Invalid_argument "Handle.resolve: ~handle does not wrap ~graph")
        (fun () ->
          ignore
            (Algorithms.Sssp_delta.run ~pool ~graph:g ~handle:other
               ~schedule:(schedule ()) ~source:0 ())))

(* The reversed handle shares the original's cached transposes in both
   layouts, and a backward run over it is a forward run on the transpose. *)
let test_reverse_handle () =
  let g = random_weighted_graph 12 ~n:80 ~m:2400 ~max_w:10 in
  let h = Graphs.Handle.create g in
  let r = Graphs.Handle.reverse h in
  let module H = Graphs.Handle in
  Alcotest.(check bool) "reverse csr is the cached transpose" true
    (H.csr r == H.transpose_csr h);
  Alcotest.(check bool) "transpose of reverse is the csr" true
    (H.transpose_csr r == g);
  let compressed_transpose h =
    match H.transpose (H.with_kind Graphs.Layout.Compressed h) with
    | Graphs.Layout.Compressed_graph c -> c
    | Graphs.Layout.Plain_graph _ -> Alcotest.fail "compressed kind"
  in
  Alcotest.(check bool) "compressed reverse is the compressed transpose" true
    (H.compressed r == compressed_transpose h);
  Alcotest.(check bool) "compressed transpose of reverse is the compressed csr"
    true
    (compressed_transpose r == H.compressed h);
  let expected = Algorithms.Dijkstra.distances (H.transpose_csr h) ~source:0 in
  Pool.with_pool ~num_workers:2 (fun pool ->
      let { Algorithms.Sssp_delta.dist; stats } =
        Algorithms.Sssp_delta.run ~pool ~graph:(H.csr r) ~handle:r
          ~schedule:(schedule ~strategy:Schedule.Lazy ~traversal:Schedule.Hybrid ~delta:8 ())
          ~source:0 ()
      in
      Alcotest.(check (array int)) "backward hybrid = Dijkstra on transpose" expected
        dist;
      Alcotest.(check bool) "some rounds pulled" true (stats.Ordered.Stats.pull_rounds > 0))

(* ---------------- SSSP ---------------- *)

let check_sssp_matches graph source sched pool label =
  let expected = Algorithms.Dijkstra.distances graph ~source in
  let { Algorithms.Sssp_delta.dist; _ } =
    Algorithms.Sssp_delta.run ~pool ~graph ~schedule:sched ~source ()
  in
  Alcotest.(check (array int)) label expected dist

let test_sssp_fixed_graph () =
  (* Hand-checkable diamond with a long detour. *)
  let el =
    Edge_list.create ~num_vertices:6
      [|
        { src = 0; dst = 1; weight = 7 };
        { src = 0; dst = 2; weight = 2 };
        { src = 2; dst = 1; weight = 3 };
        { src = 1; dst = 3; weight = 1 };
        { src = 2; dst = 3; weight = 8 };
        { src = 3; dst = 4; weight = 2 };
      |]
  in
  let g = Csr.of_edge_list el in
  Pool.with_pool ~num_workers:1 (fun pool ->
      let { Algorithms.Sssp_delta.dist; _ } =
        Algorithms.Sssp_delta.run ~pool ~graph:g ~schedule:(schedule ~delta:2 ())
          ~source:0 ()
      in
      Alcotest.(check (array int))
        "distances (vertex 5 unreachable)"
        [| 0; 5; 2; 6; 8; Bucket_order.null_priority |]
        dist)

let test_sssp_all_strategies_all_workers () =
  let g = random_weighted_graph 7 ~n:200 ~m:1200 ~max_w:20 in
  List.iter
    (fun workers ->
      Pool.with_pool ~num_workers:workers (fun pool ->
          List.iter
            (fun strategy ->
              List.iter
                (fun delta ->
                  check_sssp_matches g 0
                    (schedule ~strategy ~delta ())
                    pool
                    (Printf.sprintf "strategy=%s delta=%d workers=%d"
                       (Schedule.strategy_to_string strategy)
                       delta workers))
                [ 1; 3; 16 ])
            all_strategies))
    [ 1; 2; 4 ]

let test_sssp_dense_pull () =
  let g = random_weighted_graph 8 ~n:100 ~m:800 ~max_w:10 in
  let expected = Algorithms.Dijkstra.distances g ~source:0 in
  Pool.with_pool ~num_workers:2 (fun pool ->
      let { Algorithms.Sssp_delta.dist; _ } =
        Algorithms.Sssp_delta.run ~pool ~graph:g
          ~schedule:(schedule ~strategy:Schedule.Lazy ~traversal:Schedule.Dense_pull ~delta:4 ())
          ~source:0 ()
      in
      Alcotest.(check (array int)) "DensePull matches Dijkstra" expected dist)

let test_sssp_hybrid_direction () =
  (* Hybrid traversal: dense-ish graph so some rounds pull, some push. *)
  let g = random_weighted_graph 9 ~n:80 ~m:2400 ~max_w:10 in
  let expected = Algorithms.Dijkstra.distances g ~source:0 in
  Pool.with_pool ~num_workers:2 (fun pool ->
      let { Algorithms.Sssp_delta.dist; stats } =
        Algorithms.Sssp_delta.run ~pool ~graph:g
          ~schedule:
            (schedule ~strategy:Schedule.Lazy ~traversal:Schedule.Hybrid ~delta:8 ())
          ~source:0 ()
      in
      Alcotest.(check (array int)) "hybrid matches Dijkstra" expected dist;
      Alcotest.(check bool)
        (Printf.sprintf "some rounds pulled (%d/%d)" stats.Ordered.Stats.pull_rounds
           stats.Ordered.Stats.rounds)
        true
        (stats.Ordered.Stats.pull_rounds > 0
        && stats.Ordered.Stats.pull_rounds < stats.Ordered.Stats.rounds))

let test_hybrid_requires_lazy () =
  match
    Schedule.validate
      (schedule ~strategy:Schedule.Eager_with_fusion ~traversal:Schedule.Hybrid ())
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "hybrid must require a lazy strategy"

let test_sssp_road_like () =
  let rng = Rng.create 21 in
  let el, _coords = Generators.road_grid ~rng ~rows:15 ~cols:20 () in
  let g = Csr.of_edge_list el in
  let expected = Algorithms.Dijkstra.distances g ~source:0 in
  Pool.with_pool ~num_workers:4 (fun pool ->
      List.iter
        (fun strategy ->
          let { Algorithms.Sssp_delta.dist; _ } =
            Algorithms.Sssp_delta.run ~pool ~graph:g
              ~schedule:(schedule ~strategy ~delta:512 ())
              ~source:0 ()
          in
          Alcotest.(check (array int))
            ("road " ^ Schedule.strategy_to_string strategy)
            expected dist)
        all_strategies)

let qcheck_sssp_matches_dijkstra =
  QCheck.Test.make ~name:"sssp = dijkstra on random graphs/schedules" ~count:60
    QCheck.(
      quad (int_range 2 80) (int_bound 400) (int_range 1 20) (int_range 0 2))
    (fun (n, m, delta, strat_idx) ->
      let g = random_weighted_graph (n + (m * 131) + delta) ~n ~m ~max_w:30 in
      let strategy = List.nth all_strategies strat_idx in
      let expected = Algorithms.Dijkstra.distances g ~source:0 in
      Pool.with_pool ~num_workers:2 (fun pool ->
          let { Algorithms.Sssp_delta.dist; _ } =
            Algorithms.Sssp_delta.run ~pool ~graph:g ~schedule:(schedule ~strategy ~delta ())
              ~source:0 ()
          in
          dist = expected))

(* ---------------- bucket fusion statistics ---------------- *)

let test_fusion_reduces_rounds () =
  (* A long path is the extreme road network: without fusion every vertex is
     its own round; with fusion a worker chews through its local bucket. *)
  let g = Csr.of_edge_list (Generators.path 2000) in
  Pool.with_pool ~num_workers:2 (fun pool ->
      (* delta = 32: each bucket holds a 32-vertex chain that refills the
         current bucket 32 times; fusion collapses those rounds into one. *)
      let with_fusion =
        Algorithms.Sssp_delta.run ~pool ~graph:g
          ~schedule:(schedule ~strategy:Schedule.Eager_with_fusion ~delta:32 ())
          ~source:0 ()
      in
      let without_fusion =
        Algorithms.Sssp_delta.run ~pool ~graph:g
          ~schedule:(schedule ~strategy:Schedule.Eager_no_fusion ~delta:32 ())
          ~source:0 ()
      in
      Alcotest.(check (array int))
        "same distances" without_fusion.dist with_fusion.dist;
      let rf = with_fusion.stats.Ordered.Stats.rounds in
      let rn = without_fusion.stats.Ordered.Stats.rounds in
      Alcotest.(check bool)
        (Printf.sprintf "fusion cuts rounds (%d vs %d)" rf rn)
        true
        (rf * 10 < rn);
      Alcotest.(check bool) "fused drains recorded" true
        (with_fusion.stats.Ordered.Stats.fused_drains > 0);
      Alcotest.(check int) "no fused drains without fusion" 0
        without_fusion.stats.Ordered.Stats.fused_drains)

let test_fusion_threshold_respected () =
  let g = Csr.of_edge_list (Generators.path 500) in
  Pool.with_pool ~num_workers:1 (fun pool ->
      (* threshold 1: local buckets of size 1 may still fuse, so the path
         should fuse fully anyway (each round produces one vertex). *)
      let r =
        Algorithms.Sssp_delta.run ~pool ~graph:g
          ~schedule:(schedule ~strategy:Schedule.Eager_with_fusion ~fusion_threshold:1 ())
          ~source:0 ()
      in
      Alcotest.(check bool) "still correct" true (r.dist.(499) = 499))

let test_round_hook_sees_every_round () =
  let g = random_weighted_graph 10 ~n:120 ~m:700 ~max_w:20 in
  Pool.with_pool ~num_workers:2 (fun pool ->
      let seen = ref [] in
      let on_round (live : Ordered.Stats.t) (r : Ordered.Engine.round) =
        Alcotest.(check int) "live rounds = round index" live.rounds r.index;
        seen := r :: !seen
      in
      let { Algorithms.Sssp_delta.stats; _ } =
        Algorithms.Sssp_delta.run ~pool ~graph:g ~schedule:(schedule ~delta:8 ())
          ~source:0 ~on_round ()
      in
      let rounds = List.rev !seen in
      Alcotest.(check int) "one call per round" stats.Ordered.Stats.rounds
        (List.length rounds);
      let keys = List.map (fun (r : Ordered.Engine.round) -> r.bucket_key) rounds in
      Alcotest.(check bool) "bucket keys nondecreasing" true
        (List.sort compare keys = keys);
      Alcotest.(check bool) "frontiers non-empty" true
        (List.for_all (fun (r : Ordered.Engine.round) -> r.frontier_size > 0) rounds);
      Alcotest.(check bool) "fusion drained some bins" true (stats.fused_drains > 0);
      Alcotest.(check int) "fused drains sum to the total" stats.Ordered.Stats.fused_drains
        (List.fold_left
           (fun acc (r : Ordered.Engine.round) -> acc + r.fused_drains)
           0 rounds))

let test_stats_sanity () =
  let g = random_weighted_graph 3 ~n:100 ~m:500 ~max_w:10 in
  Pool.with_pool ~num_workers:2 (fun pool ->
      let { Algorithms.Sssp_delta.stats; _ } =
        Algorithms.Sssp_delta.run ~pool ~graph:g ~schedule:(schedule ~delta:4 ()) ~source:0 ()
      in
      let open Ordered.Stats in
      Alcotest.(check bool) "rounds > 0" true (stats.rounds > 0);
      Alcotest.(check bool) "vertices processed >= reachable" true
        (stats.vertices_processed > 0);
      Alcotest.(check bool) "edges relaxed > 0" true (stats.edges_relaxed > 0);
      Alcotest.(check bool) "inserts > 0" true (stats.bucket_inserts > 0);
      Alcotest.(check bool) "buckets <= rounds" true
        (stats.buckets_processed <= stats.rounds))

(* ---------------- wBFS / PPSP / A* ---------------- *)

let test_wbfs_matches_dijkstra () =
  let rng = Rng.create 12 in
  let el = Generators.erdos_renyi ~rng ~num_vertices:150 ~num_edges:900 () in
  let g = Csr.of_edge_list (Generators.wbfs_weights ~rng el) in
  let expected = Algorithms.Dijkstra.distances g ~source:3 in
  Pool.with_pool ~num_workers:2 (fun pool ->
      List.iter
        (fun strategy ->
          let { Algorithms.Sssp_delta.dist; _ } =
            (* wBFS ignores the schedule's delta. *)
            Algorithms.Wbfs.run ~pool ~graph:g ~schedule:(schedule ~strategy ~delta:999 ())
              ~source:3 ()
          in
          Alcotest.(check (array int))
            ("wbfs " ^ Schedule.strategy_to_string strategy)
            expected dist)
        all_strategies)

let test_ppsp_matches_and_stops_early () =
  let g = random_weighted_graph 31 ~n:300 ~m:1500 ~max_w:50 in
  let full = Algorithms.Dijkstra.distances g ~source:0 in
  (* Pick a reachable, close-ish target. *)
  let target =
    let best = ref (-1) in
    Array.iteri
      (fun v d -> if v <> 0 && d <> Bucket_order.null_priority && !best = -1 then best := v)
      full;
    !best
  in
  Pool.with_pool ~num_workers:2 (fun pool ->
      let sssp =
        Algorithms.Sssp_delta.run ~pool ~graph:g ~schedule:(schedule ~delta:8 ()) ~source:0 ()
      in
      let ppsp =
        Algorithms.Ppsp.run ~pool ~graph:g ~schedule:(schedule ~delta:8 ()) ~source:0
          ~target ()
      in
      Alcotest.(check int) "ppsp distance exact" full.(target) ppsp.distance;
      Alcotest.(check bool) "ppsp does no more rounds than sssp" true
        (ppsp.stats.Ordered.Stats.rounds <= sssp.stats.Ordered.Stats.rounds))

let qcheck_ppsp_equals_sssp_at_target =
  QCheck.Test.make ~name:"ppsp = sssp at the target (early exit is sound)" ~count:40
    QCheck.(
      quad (int_range 2 70) (int_bound 350) (int_range 1 16) (int_range 0 2))
    (fun (n, m, delta, strat_idx) ->
      let g = random_weighted_graph (n + (m * 61) + delta) ~n ~m ~max_w:25 in
      let strategy = List.nth all_strategies strat_idx in
      let target = n - 1 in
      Pool.with_pool ~num_workers:2 (fun pool ->
          let sssp =
            Algorithms.Sssp_delta.run ~pool ~graph:g ~schedule:(schedule ~strategy ~delta ())
              ~source:0 ()
          in
          let ppsp =
            Algorithms.Ppsp.run ~pool ~graph:g ~schedule:(schedule ~strategy ~delta ())
              ~source:0 ~target ()
          in
          ppsp.distance = sssp.dist.(target)))

let test_ppsp_unreachable () =
  (* Two disconnected components. *)
  let el =
    Edge_list.create ~num_vertices:4
      [| { src = 0; dst = 1; weight = 1 }; { src = 2; dst = 3; weight = 1 } |]
  in
  let g = Csr.of_edge_list el in
  Pool.with_pool ~num_workers:1 (fun pool ->
      let r = Algorithms.Ppsp.run ~pool ~graph:g ~schedule:(schedule ()) ~source:0 ~target:3 () in
      Alcotest.(check int) "unreachable" Bucket_order.null_priority r.distance)

let test_astar_matches_dijkstra () =
  let rng = Rng.create 17 in
  let el, coords = Generators.road_grid ~rng ~rows:12 ~cols:18 () in
  let g = Csr.of_edge_list el in
  let source = 0 and target = (12 * 18) - 1 in
  let expected = Algorithms.Dijkstra.distance_to g ~source ~target in
  Pool.with_pool ~num_workers:2 (fun pool ->
      List.iter
        (fun strategy ->
          let r =
            Algorithms.Astar.run ~pool ~graph:g ~coords
              ~schedule:(schedule ~strategy ~delta:256 ())
              ~source ~target ()
          in
          Alcotest.(check int)
            ("astar exact " ^ Schedule.strategy_to_string strategy)
            expected r.distance)
        all_strategies)

let test_astar_explores_less_than_sssp () =
  let rng = Rng.create 18 in
  let el, coords = Generators.road_grid ~rng ~rows:25 ~cols:25 () in
  let g = Csr.of_edge_list el in
  (* Source and target adjacent corners: the heuristic should prune most of
     the grid compared with plain Δ-stepping run to completion. *)
  let source = 0 and target = 24 in
  Pool.with_pool ~num_workers:1 (fun pool ->
      let sssp =
        Algorithms.Sssp_delta.run ~pool ~graph:g ~schedule:(schedule ~delta:512 ()) ~source ()
      in
      let astar =
        Algorithms.Astar.run ~pool ~graph:g ~coords ~schedule:(schedule ~delta:512 ())
          ~source ~target ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "astar touches fewer edges (%d vs %d)"
           astar.stats.Ordered.Stats.edges_relaxed sssp.stats.Ordered.Stats.edges_relaxed)
        true
        (astar.stats.Ordered.Stats.edges_relaxed < sssp.stats.Ordered.Stats.edges_relaxed))

(* ---------------- Bellman-Ford ---------------- *)

let test_bellman_ford_matches () =
  let g = random_weighted_graph 40 ~n:150 ~m:700 ~max_w:30 in
  let expected = Algorithms.Dijkstra.distances g ~source:0 in
  List.iter
    (fun workers ->
      Pool.with_pool ~num_workers:workers (fun pool ->
          let r = Algorithms.Bellman_ford.run ~pool ~graph:g ~source:0 () in
          Alcotest.(check (array int))
            (Printf.sprintf "bellman-ford workers=%d" workers)
            expected r.dist))
    [ 1; 4 ]

(* ---------------- k-core ---------------- *)

(* Naive quadratic peeling oracle: repeatedly remove a minimum-degree
   vertex; coreness is the running maximum of peel degrees. *)
let naive_coreness_running_max = Testlib.naive_coreness_running_max
let symmetric_random = Testlib.symmetric_random
let kcore_strategies = Testlib.kcore_strategies

let test_kcore_oracles_agree () =
  let g = symmetric_random 51 ~n:60 ~m:300 in
  Alcotest.(check (array int))
    "Matula-Beck = naive"
    (naive_coreness_running_max g)
    (Algorithms.Kcore_peel_seq.coreness g)

let test_kcore_all_strategies () =
  let g = symmetric_random 52 ~n:120 ~m:800 in
  let expected = Algorithms.Kcore_peel_seq.coreness g in
  List.iter
    (fun workers ->
      Pool.with_pool ~num_workers:workers (fun pool ->
          List.iter
            (fun strategy ->
              let r =
                Algorithms.Kcore.run ~pool ~graph:g ~schedule:(schedule ~strategy ()) ()
              in
              Alcotest.(check (array int))
                (Printf.sprintf "kcore %s workers=%d"
                   (Schedule.strategy_to_string strategy)
                   workers)
                expected r.coreness)
            kcore_strategies))
    [ 1; 2; 4 ]

let test_kcore_ignores_coarsening () =
  (* k-core must run with delta = 1 even if the schedule requests more. *)
  let g = symmetric_random 53 ~n:80 ~m:400 in
  let expected = Algorithms.Kcore_peel_seq.coreness g in
  Pool.with_pool ~num_workers:2 (fun pool ->
      let r = Algorithms.Kcore.run ~pool ~graph:g ~schedule:(schedule ~delta:64 ()) () in
      Alcotest.(check (array int)) "coarsening disabled" expected r.coreness)

let test_kcore_tiny_window_regression () =
  (* Regression for the stale-overflow re-materialization bug: a window far
     smaller than the degree range forces vertices through the overflow
     bucket repeatedly; stale copies must never be re-peeled. *)
  let g = symmetric_random 55 ~n:150 ~m:2000 in
  let expected = Algorithms.Kcore_peel_seq.coreness g in
  Pool.with_pool ~num_workers:2 (fun pool ->
      List.iter
        (fun strategy ->
          let sched =
            { (schedule ~strategy ()) with Schedule.num_open_buckets = 2 }
          in
          let r = Algorithms.Kcore.run ~pool ~graph:g ~schedule:sched () in
          Alcotest.(check (array int))
            ("tiny window " ^ Schedule.strategy_to_string strategy)
            expected r.coreness)
        [ Schedule.Lazy; Schedule.Lazy_constant_sum ])

let test_kcore_unordered_matches () =
  let g = symmetric_random 54 ~n:100 ~m:600 in
  let expected = Algorithms.Kcore_peel_seq.coreness g in
  List.iter
    (fun workers ->
      Pool.with_pool ~num_workers:workers (fun pool ->
          let r = Algorithms.Kcore_unordered.run ~pool ~graph:g () in
          Alcotest.(check (array int))
            (Printf.sprintf "h-index fixpoint workers=%d" workers)
            expected r.coreness;
          Alcotest.(check bool) "iterated" true (r.iterations >= 1)))
    [ 1; 4 ]

let qcheck_kcore_matches_oracle =
  QCheck.Test.make ~name:"kcore = sequential peeling on random graphs" ~count:40
    QCheck.(triple (int_range 2 50) (int_bound 250) (int_range 0 3))
    (fun (n, m, strat_idx) ->
      let g = symmetric_random (n + (m * 37)) ~n ~m in
      let strategy = List.nth kcore_strategies strat_idx in
      let expected = Algorithms.Kcore_peel_seq.coreness g in
      Pool.with_pool ~num_workers:2 (fun pool ->
          let r = Algorithms.Kcore.run ~pool ~graph:g ~schedule:(schedule ~strategy ()) () in
          r.coreness = expected))

(* ---------------- weighted core (variable-diff updatePrioritySum) ------ *)

let symmetric_weighted = Testlib.symmetric_weighted

let test_score_unit_weights_equal_kcore () =
  (* With unit weights, s-core degenerates to k-core. *)
  let rng = Rng.create 81 in
  let el = Generators.erdos_renyi ~rng ~num_vertices:90 ~num_edges:500 () in
  let g = Csr.of_edge_list (Edge_list.symmetrized el) in
  let expected = Algorithms.Kcore_peel_seq.coreness g in
  Alcotest.(check (array int)) "sequential s-core = k-core" expected
    (Algorithms.Score.sequential g);
  Pool.with_pool ~num_workers:2 (fun pool ->
      let r = Algorithms.Score.run ~pool ~graph:g ~schedule:(schedule ()) () in
      Alcotest.(check (array int)) "parallel s-core = k-core" expected r.coreness)

let test_score_all_strategies () =
  let g = symmetric_weighted 82 ~n:100 ~m:600 ~max_w:9 in
  let expected = Algorithms.Score.sequential g in
  List.iter
    (fun workers ->
      Pool.with_pool ~num_workers:workers (fun pool ->
          List.iter
            (fun strategy ->
              let r = Algorithms.Score.run ~pool ~graph:g ~schedule:(schedule ~strategy ()) () in
              Alcotest.(check (array int))
                (Printf.sprintf "s-core %s workers=%d"
                   (Schedule.strategy_to_string strategy)
                   workers)
                expected r.coreness)
            all_strategies))
    [ 1; 4 ]

let test_score_rejects_histogram () =
  let g = symmetric_weighted 83 ~n:20 ~m:60 ~max_w:5 in
  Pool.with_pool ~num_workers:1 (fun pool ->
      match
        Algorithms.Score.run ~pool ~graph:g
          ~schedule:(schedule ~strategy:Schedule.Lazy_constant_sum ())
          ()
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected rejection of the histogram schedule")

let qcheck_score_matches_oracle =
  QCheck.Test.make ~name:"s-core = sequential weighted peeling" ~count:40
    QCheck.(triple (int_range 2 50) (int_bound 250) (int_range 0 2))
    (fun (n, m, strat_idx) ->
      let g = symmetric_weighted (n + (m * 41)) ~n ~m ~max_w:12 in
      let strategy = List.nth all_strategies strat_idx in
      let expected = Algorithms.Score.sequential g in
      Pool.with_pool ~num_workers:2 (fun pool ->
          let r = Algorithms.Score.run ~pool ~graph:g ~schedule:(schedule ~strategy ()) () in
          r.coreness = expected))

(* ---------------- widest path (Higher_first + updatePriorityMax) ------- *)

let test_widest_fixed_graph () =
  (* Two routes 0->3: direct with capacity 2, detour with bottleneck 5. *)
  let el =
    Edge_list.create ~num_vertices:4
      [|
        { src = 0; dst = 3; weight = 2 };
        { src = 0; dst = 1; weight = 9 };
        { src = 1; dst = 2; weight = 5 };
        { src = 2; dst = 3; weight = 7 };
      |]
  in
  let g = Csr.of_edge_list el in
  Pool.with_pool ~num_workers:1 (fun pool ->
      let r = Algorithms.Widest_path.run ~pool ~graph:g ~schedule:(schedule ()) ~source:0 () in
      Alcotest.(check (array int)) "bottleneck capacities" [| 9; 9; 5; 5 |] r.capacity)

let test_widest_all_strategies () =
  let g = random_weighted_graph 71 ~n:150 ~m:900 ~max_w:40 in
  let expected = Algorithms.Widest_path.sequential g ~source:0 in
  List.iter
    (fun workers ->
      Pool.with_pool ~num_workers:workers (fun pool ->
          List.iter
            (fun strategy ->
              List.iter
                (fun delta ->
                  let r =
                    Algorithms.Widest_path.run ~pool ~graph:g
                      ~schedule:(schedule ~strategy ~delta ())
                      ~source:0 ()
                  in
                  Alcotest.(check (array int))
                    (Printf.sprintf "widest %s delta=%d workers=%d"
                       (Schedule.strategy_to_string strategy)
                       delta workers)
                    expected r.capacity)
                [ 1; 4 ])
            all_strategies))
    [ 1; 4 ]

let qcheck_widest_matches_oracle =
  QCheck.Test.make ~name:"widest path = sequential oracle" ~count:50
    QCheck.(triple (int_range 2 60) (int_bound 300) (int_range 1 8))
    (fun (n, m, delta) ->
      let g = random_weighted_graph (n + (m * 53) + delta) ~n ~m ~max_w:25 in
      let expected = Algorithms.Widest_path.sequential g ~source:0 in
      Pool.with_pool ~num_workers:2 (fun pool ->
          let r =
            Algorithms.Widest_path.run ~pool ~graph:g ~schedule:(schedule ~delta ())
              ~source:0 ()
          in
          r.capacity = expected))

(* ---------------- SetCover ---------------- *)

let test_setcover_valid_and_bounded () =
  let g = symmetric_random 61 ~n:150 ~m:900 in
  let greedy = Algorithms.Setcover_greedy.run g in
  Alcotest.(check bool) "greedy valid" true
    (Algorithms.Setcover_greedy.is_valid_cover g greedy);
  List.iter
    (fun strategy ->
      Pool.with_pool ~num_workers:2 (fun pool ->
          let r = Algorithms.Setcover.run ~pool ~graph:g ~schedule:(schedule ~strategy ()) () in
          Alcotest.(check bool)
            ("valid cover " ^ Schedule.strategy_to_string strategy)
            true
            (Algorithms.Setcover.is_valid_cover g r);
          Alcotest.(check bool)
            (Printf.sprintf "size %d within 4x of greedy %d" r.cover_size
               greedy.cover_size)
            true
            (r.cover_size <= 4 * greedy.cover_size)))
    all_strategies

let test_setcover_star () =
  (* The center of a star covers everything: both algorithms find a cover of
     size 1. *)
  let g = Csr.of_edge_list (Edge_list.symmetrized (Generators.star 30)) in
  let greedy = Algorithms.Setcover_greedy.run g in
  Alcotest.(check int) "greedy picks the center" 1 greedy.cover_size;
  Pool.with_pool ~num_workers:1 (fun pool ->
      let r = Algorithms.Setcover.run ~pool ~graph:g ~schedule:(schedule ()) () in
      Alcotest.(check int) "parallel picks the center" 1 r.cover_size;
      Alcotest.(check bool) "center chosen" true r.in_cover.(0))

let test_setcover_weighted () =
  (* The paper's noted generalization: bucket by cost-per-element ratio. *)
  let g = symmetric_random 63 ~n:120 ~m:700 in
  let rng = Rng.create 64 in
  let costs = Array.init 120 (fun _ -> Rng.int_range rng 1 8) in
  let greedy, greedy_cost = Algorithms.Setcover_greedy.run_weighted g ~costs in
  Alcotest.(check bool) "weighted greedy valid" true
    (Algorithms.Setcover_greedy.is_valid_cover g greedy);
  Pool.with_pool ~num_workers:2 (fun pool ->
      let r =
        Algorithms.Setcover.run ~pool ~graph:g ~schedule:(schedule ()) ~costs ()
      in
      Alcotest.(check bool) "weighted cover valid" true
        (Algorithms.Setcover.is_valid_cover g r);
      Alcotest.(check bool)
        (Printf.sprintf "cost %d within 4x of greedy %d" r.cover_cost greedy_cost)
        true
        (r.cover_cost <= 4 * greedy_cost);
      Alcotest.(check bool) "cost >= size (costs >= 1)" true
        (r.cover_cost >= r.cover_size))

let test_setcover_weighted_prefers_cheap () =
  (* A star where the center is exorbitantly priced: the weighted algorithm
     must not buy the center even though it covers everything. *)
  let g = Csr.of_edge_list (Edge_list.symmetrized (Generators.star 20)) in
  let costs = Array.make 20 1 in
  costs.(0) <- 10_000;
  Pool.with_pool ~num_workers:1 (fun pool ->
      let r = Algorithms.Setcover.run ~pool ~graph:g ~schedule:(schedule ()) ~costs () in
      Alcotest.(check bool) "valid" true (Algorithms.Setcover.is_valid_cover g r);
      Alcotest.(check bool) "center avoided" false r.in_cover.(0);
      Alcotest.(check int) "buys the 19 cheap leaves" 19 r.cover_size)

let test_setcover_rejects_bad_costs () =
  let g = symmetric_random 65 ~n:10 ~m:20 in
  Pool.with_pool ~num_workers:1 (fun pool ->
      Alcotest.check_raises "non-positive cost"
        (Invalid_argument "Setcover.run: costs must be positive") (fun () ->
          ignore
            (Algorithms.Setcover.run ~pool ~graph:g ~schedule:(schedule ())
               ~costs:(Array.make 10 0) ())))

let test_setcover_rejects_constant_sum () =
  let g = symmetric_random 62 ~n:10 ~m:20 in
  Pool.with_pool ~num_workers:1 (fun pool ->
      match
        Algorithms.Setcover.run ~pool ~graph:g
          ~schedule:(schedule ~strategy:Schedule.Lazy_constant_sum ())
          ()
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected rejection of lazy_constant_sum")

let qcheck_setcover_valid =
  QCheck.Test.make ~name:"setcover always produces a valid cover" ~count:40
    QCheck.(pair (int_range 2 60) (int_bound 300))
    (fun (n, m) ->
      let g = symmetric_random (n * 7919 + m) ~n ~m in
      Pool.with_pool ~num_workers:2 (fun pool ->
          let r = Algorithms.Setcover.run ~pool ~graph:g ~schedule:(schedule ()) () in
          Algorithms.Setcover.is_valid_cover g r))

let () =
  Alcotest.run "ordered"
    [
      ( "schedule",
        [
          Alcotest.test_case "validation" `Quick test_schedule_validation;
          Alcotest.test_case "string round-trip" `Quick test_schedule_string_roundtrip;
          Alcotest.test_case "string rejects invalid" `Quick
            test_schedule_string_rejects_invalid;
          Alcotest.test_case "mismatched handle rejected" `Quick
            test_mismatched_handle_rejected;
          Alcotest.test_case "reversed handle" `Quick test_reverse_handle;
        ] );
      ( "sssp",
        [
          Alcotest.test_case "fixed graph" `Quick test_sssp_fixed_graph;
          Alcotest.test_case "all strategies x workers" `Slow
            test_sssp_all_strategies_all_workers;
          Alcotest.test_case "dense pull" `Quick test_sssp_dense_pull;
          Alcotest.test_case "hybrid direction" `Quick test_sssp_hybrid_direction;
          Alcotest.test_case "hybrid requires lazy" `Quick test_hybrid_requires_lazy;
          Alcotest.test_case "road-like graph" `Quick test_sssp_road_like;
          QCheck_alcotest.to_alcotest qcheck_sssp_matches_dijkstra;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "reduces rounds" `Quick test_fusion_reduces_rounds;
          Alcotest.test_case "threshold respected" `Quick
            test_fusion_threshold_respected;
          Alcotest.test_case "stats sanity" `Quick test_stats_sanity;
          Alcotest.test_case "round hook sees every round" `Quick
            test_round_hook_sees_every_round;
        ] );
      ( "variants",
        [
          Alcotest.test_case "wbfs" `Quick test_wbfs_matches_dijkstra;
          Alcotest.test_case "ppsp exact + early stop" `Quick
            test_ppsp_matches_and_stops_early;
          Alcotest.test_case "ppsp unreachable" `Quick test_ppsp_unreachable;
          QCheck_alcotest.to_alcotest qcheck_ppsp_equals_sssp_at_target;
          Alcotest.test_case "astar exact" `Quick test_astar_matches_dijkstra;
          Alcotest.test_case "astar prunes" `Quick test_astar_explores_less_than_sssp;
          Alcotest.test_case "bellman-ford" `Quick test_bellman_ford_matches;
        ] );
      ( "kcore",
        [
          Alcotest.test_case "oracles agree" `Quick test_kcore_oracles_agree;
          Alcotest.test_case "all strategies x workers" `Slow
            test_kcore_all_strategies;
          Alcotest.test_case "coarsening disabled" `Quick test_kcore_ignores_coarsening;
          Alcotest.test_case "tiny window (regression)" `Quick
            test_kcore_tiny_window_regression;
          Alcotest.test_case "unordered h-index" `Quick test_kcore_unordered_matches;
          QCheck_alcotest.to_alcotest qcheck_kcore_matches_oracle;
        ] );
      ( "score",
        [
          Alcotest.test_case "unit weights = k-core" `Quick
            test_score_unit_weights_equal_kcore;
          Alcotest.test_case "all strategies" `Quick test_score_all_strategies;
          Alcotest.test_case "rejects histogram" `Quick test_score_rejects_histogram;
          QCheck_alcotest.to_alcotest qcheck_score_matches_oracle;
        ] );
      ( "widest_path",
        [
          Alcotest.test_case "fixed graph" `Quick test_widest_fixed_graph;
          Alcotest.test_case "all strategies" `Quick test_widest_all_strategies;
          QCheck_alcotest.to_alcotest qcheck_widest_matches_oracle;
        ] );
      ( "setcover",
        [
          Alcotest.test_case "valid and bounded" `Quick test_setcover_valid_and_bounded;
          Alcotest.test_case "star" `Quick test_setcover_star;
          Alcotest.test_case "weighted" `Quick test_setcover_weighted;
          Alcotest.test_case "weighted prefers cheap" `Quick
            test_setcover_weighted_prefers_cheap;
          Alcotest.test_case "rejects bad costs" `Quick test_setcover_rejects_bad_costs;
          Alcotest.test_case "rejects constant sum" `Quick
            test_setcover_rejects_constant_sum;
          QCheck_alcotest.to_alcotest qcheck_setcover_valid;
        ] );
    ]
