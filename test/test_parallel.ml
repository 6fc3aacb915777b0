module Pool = Parallel.Pool
module Atomic_array = Parallel.Atomic_array
module Prefix_sum = Parallel.Prefix_sum

let worker_counts = [ 1; 2; 4 ]

let test_run_workers_covers_all_tids () =
  List.iter
    (fun w ->
      Pool.with_pool ~num_workers:w (fun pool ->
          let seen = Array.make w 0 in
          Pool.run_workers pool (fun tid -> seen.(tid) <- seen.(tid) + 1);
          Alcotest.(check (array int))
            (Printf.sprintf "every tid ran once (w=%d)" w)
            (Array.make w 1) seen))
    worker_counts

let test_run_workers_propagates_exception () =
  Pool.with_pool ~num_workers:3 (fun pool ->
      Alcotest.check_raises "exception reaches caller" (Failure "boom") (fun () ->
          Pool.run_workers pool (fun tid -> if tid = 2 then failwith "boom"));
      (* The pool must still be usable afterwards. *)
      let total = Atomic.make 0 in
      Pool.run_workers pool (fun _ -> ignore (Atomic.fetch_and_add total 1));
      Alcotest.(check int) "pool alive after exception" 3 (Atomic.get total))

let test_parallel_for_sums () =
  List.iter
    (fun w ->
      Pool.with_pool ~num_workers:w (fun pool ->
          let n = 10_000 in
          let hits = Atomic_array.make n 0 in
          Pool.parallel_for pool ~chunk:7 ~lo:0 ~hi:n (fun i ->
              ignore (Atomic_array.fetch_add hits i 1));
          let ok = ref true in
          for i = 0 to n - 1 do
            if Atomic_array.get hits i <> 1 then ok := false
          done;
          Alcotest.(check bool)
            (Printf.sprintf "each index exactly once (w=%d)" w)
            true !ok))
    worker_counts

let test_parallel_for_empty_range () =
  Pool.with_pool ~num_workers:2 (fun pool ->
      let ran = ref false in
      Pool.parallel_for pool ~lo:5 ~hi:5 (fun _ -> ran := true);
      Pool.parallel_for pool ~lo:5 ~hi:2 (fun _ -> ran := true);
      Alcotest.(check bool) "no iterations" false !ran)

let test_parallel_for_reduce () =
  List.iter
    (fun w ->
      Pool.with_pool ~num_workers:w (fun pool ->
          let n = 5000 in
          let total =
            Pool.parallel_for_reduce pool ~chunk:13 ~lo:0 ~hi:n ~neutral:0
              ~combine:( + ) (fun i -> i)
          in
          Alcotest.(check int)
            (Printf.sprintf "sum 0..%d (w=%d)" (n - 1) w)
            (n * (n - 1) / 2)
            total))
    worker_counts

let test_parallel_for_tid () =
  Pool.with_pool ~num_workers:4 (fun pool ->
      let n = 1000 in
      let per_tid = Array.make 4 0 in
      let marks = Atomic_array.make n 0 in
      Pool.parallel_for_tid pool ~chunk:9 ~lo:0 ~hi:n (fun ~tid i ->
          per_tid.(tid) <- per_tid.(tid) + 1;
          ignore (Atomic_array.fetch_add marks i 1));
      Alcotest.(check int) "work conserved" n (Array.fold_left ( + ) 0 per_tid);
      let ok = ref true in
      for i = 0 to n - 1 do
        if Atomic_array.get marks i <> 1 then ok := false
      done;
      Alcotest.(check bool) "each index once" true !ok)

let test_atomic_fetch_min_max () =
  let a = Atomic_array.make 4 10 in
  Alcotest.(check bool) "min lowers" true (Atomic_array.fetch_min a 0 5);
  Alcotest.(check bool) "min no-op" false (Atomic_array.fetch_min a 0 7);
  Alcotest.(check int) "value after min" 5 (Atomic_array.get a 0);
  Alcotest.(check bool) "max raises" true (Atomic_array.fetch_max a 1 20);
  Alcotest.(check bool) "max no-op" false (Atomic_array.fetch_max a 1 15);
  Alcotest.(check int) "value after max" 20 (Atomic_array.get a 1)

(* fetch_min/fetch_max sit on the per-edge relaxation path, so they must
   not allocate: 100,000 calls of each, half of them taking the update
   branch, stay under 0.01 minor words per call. *)
let test_atomic_fetch_min_max_no_alloc () =
  let calls = 100_000 in
  let a = Atomic_array.make 64 0 in
  let words_per_call f =
    let before = Gc.minor_words () in
    for i = 1 to calls do
      ignore (Sys.opaque_identity (f a (i land 63) (i * 7919 mod 1000)))
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  let check name f =
    let w = words_per_call f in
    if w >= 0.01 then Alcotest.failf "%s: %.4f minor words per call" name w
  in
  check "fetch_min" Atomic_array.fetch_min;
  check "fetch_max" Atomic_array.fetch_max

(* Minor and major words [f] allocates, net of the measurement itself. *)
let alloc_words f =
  let measure f =
    let minor0, _, major0 = Gc.counters () in
    ignore (Sys.opaque_identity (f ()));
    let minor1, _, major1 = Gc.counters () in
    (minor1 -. minor0, major1 -. major0)
  in
  let base_minor, base_major = measure (fun () -> ()) in
  let minor, major = measure f in
  (minor -. base_minor, major -. base_major)

(* The cells are one flat array: 100,000 of them are one [Array.make],
   100,001 words straight onto the major heap, plus the constant-size
   handle on the minor heap. Boxed [Atomic.t] cells cost about 200k
   minor and 300k major words. The counters also pick up the GC's own
   bookkeeping around a major allocation (about a hundred words, as for a
   plain [Array.make]), so the check takes the quietest of five builds. *)
let test_make_is_flat () =
  let n = 100_000 in
  let minor, major =
    List.init 5 (fun _ -> alloc_words (fun () -> Atomic_array.make n 0))
    |> List.fold_left
         (fun (mi, ma) (mi', ma') -> (Float.min mi mi', Float.min ma ma'))
         (infinity, infinity)
  in
  if minor > 256. then Alcotest.failf "make %d: %.0f minor words" n minor;
  if major > 100_064. then Alcotest.failf "make %d: %.0f major words" n major

(* A near point-to-point query on a fixed 200x200 road grid allocates
   the n-word distance array plus work proportional to the edges it
   relaxed, not a multiple of n: at most n + 2 words per relaxed edge +
   4096 words, counting minor and major words once each. *)
let test_near_ppsp_allocation () =
  let side = 200 in
  let el, _ =
    Graphs.Generators.road_grid ~rng:(Support.Rng.create 7) ~rows:side
      ~cols:side ()
  in
  let handle = Graphs.Handle.of_edge_list el in
  let graph = Graphs.Handle.csr handle in
  let n = Graphs.Csr.num_vertices graph in
  let schedule =
    { Ordered.Schedule.default with
      strategy = Ordered.Schedule.Eager_with_fusion; delta = 1024 }
  in
  let source = (100 * side) + 100 in
  Pool.with_pool ~num_workers:1 (fun pool ->
      let run () =
        Algorithms.Ppsp.run ~pool ~graph ~handle ~schedule ~source
          ~target:(source + 3) ()
      in
      ignore (run ());
      let minor0, promoted0, major0 = Gc.counters () in
      let r = Sys.opaque_identity (run ()) in
      let minor1, promoted1, major1 = Gc.counters () in
      let words = minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0) in
      let edges = r.Algorithms.Ppsp.stats.Ordered.Stats.edges_relaxed in
      let bound = float_of_int (n + (2 * edges) + 4096) in
      if words > bound then
        Alcotest.failf "near ppsp: %.0f words for n = %d and %d relaxed edges (bound %.0f)"
          words n edges bound)

(* Four domains hammer padded arrays small enough to be born on the
   minor heap while forced minor collections promote, and so move, them
   between CAS calls; the totals stay exact. *)
let test_padded_stress_across_promotion () =
  let updates = 40_000 in
  let sums = Atomic_array.make_padded 4 0 in
  let mins = Atomic_array.make_padded 4 max_int in
  Pool.with_pool ~num_workers:4 (fun pool ->
      Pool.parallel_for pool ~chunk:64 ~lo:0 ~hi:updates (fun i ->
          ignore (Atomic_array.fetch_add sums (i land 3) 1);
          ignore (Atomic_array.fetch_min mins (i land 3) (updates - i));
          if i land 511 = 0 then Gc.minor ()));
  Alcotest.(check (array int)) "fetch_add totals"
    (Array.make 4 (updates / 4)) (Atomic_array.to_array sums);
  Alcotest.(check (array int)) "fetch_min results" [| 4; 3; 2; 1 |]
    (Atomic_array.to_array mins)

let test_atomic_add_with_floor () =
  let a = Atomic_array.make 1 10 in
  (match Atomic_array.add_with_floor a 0 ~delta:(-3) ~floor:5 with
  | Some (before, after) ->
      Alcotest.(check (pair int int)) "decrement" (10, 7) (before, after)
  | None -> Alcotest.fail "expected a change");
  (match Atomic_array.add_with_floor a 0 ~delta:(-5) ~floor:5 with
  | Some (before, after) ->
      Alcotest.(check (pair int int)) "clamped at floor" (7, 5) (before, after)
  | None -> Alcotest.fail "expected a clamped change");
  Alcotest.(check bool) "no change at floor" true
    (Atomic_array.add_with_floor a 0 ~delta:(-1) ~floor:5 = None);
  (* Crucially: a decrement with a *higher* floor must not raise the value
     (finalized k-core vertices stay finalized). *)
  Alcotest.(check bool) "never raises toward floor" true
    (Atomic_array.add_with_floor a 0 ~delta:(-1) ~floor:9 = None);
  Alcotest.(check int) "value untouched" 5 (Atomic_array.get a 0)

let test_atomic_concurrent_min () =
  Pool.with_pool ~num_workers:4 (fun pool ->
      let a = Atomic_array.make 1 max_int in
      let wins = Atomic.make 0 in
      Pool.parallel_for pool ~chunk:1 ~lo:0 ~hi:1000 (fun i ->
          if Atomic_array.fetch_min a 0 (1000 - i) then
            ignore (Atomic.fetch_and_add wins 1));
      Alcotest.(check int) "final is global min" 1 (Atomic_array.get a 0);
      Alcotest.(check bool) "at least one win" true (Atomic.get wins >= 1))

let test_atomic_concurrent_fetch_add () =
  Pool.with_pool ~num_workers:4 (fun pool ->
      let a = Atomic_array.make 1 0 in
      Pool.parallel_for pool ~chunk:3 ~lo:0 ~hi:10_000 (fun _ ->
          ignore (Atomic_array.fetch_add a 0 1));
      Alcotest.(check int) "no lost updates" 10_000 (Atomic_array.get a 0))

let test_prefix_sum_small () =
  Alcotest.(check (array int)) "empty" [| 0 |] (Prefix_sum.exclusive [||]);
  Alcotest.(check (array int))
    "basic" [| 0; 1; 3; 6; 10 |]
    (Prefix_sum.exclusive [| 1; 2; 3; 4 |])

let qcheck_prefix_sum_parallel_matches =
  QCheck.Test.make ~name:"parallel prefix sum = sequential" ~count:50
    QCheck.(pair (array (int_bound 100)) (int_range 1 4))
    (fun (a, workers) ->
      Pool.with_pool ~num_workers:workers (fun pool ->
          Prefix_sum.exclusive_parallel pool a = Prefix_sum.exclusive a))

let qcheck_prefix_sum_parallel_large =
  QCheck.Test.make ~name:"parallel prefix sum on large arrays" ~count:10
    (QCheck.int_range 4096 20000)
    (fun n ->
      let rng = Support.Rng.create n in
      let a = Array.init n (fun _ -> Support.Rng.int rng 50) in
      Pool.with_pool ~num_workers:4 (fun pool ->
          Prefix_sum.exclusive_parallel pool a = Prefix_sum.exclusive a))

(* ---- range API properties ---- *)

let sched_of_int = function
  | 0 -> Pool.Static
  | 1 -> Pool.Dynamic
  | _ -> Pool.Guided

let sched_name = function
  | Pool.Static -> "static"
  | Pool.Dynamic -> "dynamic"
  | Pool.Guided -> "guided"

(* Random (lo, hi, chunk, workers, sched) including empty/backwards ranges
   and chunks larger than the range. *)
let range_case =
  QCheck.(
    map
      (fun (lo, len, chunk, workers, s) -> (lo, lo + len, chunk, workers, sched_of_int s))
      (tup5 (int_range (-50) 200) (int_range (-10) 3000) (int_range 1 5000)
         (int_range 1 4) (int_range 0 2)))

let print_range_case (lo, hi, chunk, workers, sched) =
  Printf.sprintf "lo=%d hi=%d chunk=%d workers=%d sched=%s" lo hi chunk workers
    (sched_name sched)

let qcheck_ranges_cover_like_sequential =
  QCheck.Test.make ~name:"parallel_for_ranges = sequential loop" ~count:100
    (QCheck.make ~print:print_range_case (QCheck.gen range_case))
    (fun (lo, hi, chunk, workers, sched) ->
      Pool.with_pool ~num_workers:workers (fun pool ->
          let n = max 0 (hi - lo) in
          let hits = Atomic_array.make (max n 1) 0 in
          Pool.parallel_for_ranges pool ~sched ~chunk ~lo ~hi (fun ~lo:rlo ~hi:rhi ->
              if rlo < lo || rhi > hi || rlo >= rhi then failwith "bad range";
              for i = rlo to rhi - 1 do
                ignore (Atomic_array.fetch_add hits (i - lo) 1)
              done);
          let ok = ref true in
          for i = 0 to n - 1 do
            if Atomic_array.get hits i <> 1 then ok := false
          done;
          !ok))

let qcheck_ranges_tid_partition =
  QCheck.Test.make ~name:"parallel_for_ranges_tid partitions work" ~count:100
    (QCheck.make ~print:print_range_case (QCheck.gen range_case))
    (fun (lo, hi, chunk, workers, sched) ->
      Pool.with_pool ~num_workers:workers (fun pool ->
          let covered = Atomic.make 0 in
          Pool.parallel_for_ranges_tid pool ~sched ~chunk ~lo ~hi
            (fun ~tid ~lo:rlo ~hi:rhi ->
              if tid < 0 || tid >= workers then failwith "bad tid";
              ignore (Atomic.fetch_and_add covered (rhi - rlo)));
          Atomic.get covered = max 0 (hi - lo)))

let qcheck_reduce_matches_sequential =
  QCheck.Test.make ~name:"parallel_for_reduce = sequential fold" ~count:100
    (QCheck.make ~print:print_range_case (QCheck.gen range_case))
    (fun (lo, hi, chunk, workers, sched) ->
      Pool.with_pool ~num_workers:workers (fun pool ->
          let expected = ref 0 in
          for i = lo to hi - 1 do
            expected := !expected + (i * i)
          done;
          let got =
            Pool.parallel_for_reduce pool ~sched ~chunk ~lo ~hi ~neutral:0
              ~combine:( + ) (fun i -> i * i)
          in
          got = !expected))

let qcheck_exception_mid_range =
  QCheck.Test.make ~name:"exception mid-range propagates, pool survives" ~count:30
    QCheck.(tup2 (int_range 2 4) (int_range 0 2))
    (fun (workers, s) ->
      let sched = sched_of_int s in
      Pool.with_pool ~num_workers:workers (fun pool ->
          let raised =
            try
              Pool.parallel_for_ranges pool ~sched ~chunk:8 ~lo:0 ~hi:1000
                (fun ~lo ~hi:_ -> if lo >= 496 then failwith "mid-range");
              false
            with Failure msg -> msg = "mid-range"
          in
          (* The pool must stay usable after a worker threw. *)
          let total = Atomic.make 0 in
          Pool.parallel_for pool ~lo:0 ~hi:100 (fun _ ->
              ignore (Atomic.fetch_and_add total 1));
          raised && Atomic.get total = 100))

let test_spin_budget_zero_pool () =
  (* spin_budget 0 forces the pure condvar path of the barrier. *)
  let pool = Pool.create ~spin_budget:0 ~num_workers:3 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let hits = Atomic.make 0 in
      for _ = 1 to 50 do
        Pool.run_workers pool (fun _ -> ignore (Atomic.fetch_and_add hits 1))
      done;
      Alcotest.(check int) "all episodes complete" 150 (Atomic.get hits))

let test_barrier_wait_counter () =
  Pool.with_pool ~num_workers:2 (fun pool ->
      let before = Pool.barrier_wait_seconds pool in
      Alcotest.(check bool) "starts non-negative" true (before >= 0.0);
      for _ = 1 to 20 do
        Pool.run_workers pool (fun _ -> ())
      done;
      Alcotest.(check bool) "monotone" true
        (Pool.barrier_wait_seconds pool >= before))

let test_make_padded () =
  let a = Atomic_array.make_padded 5 7 in
  Alcotest.(check int) "length" 5 (Atomic_array.length a);
  for i = 0 to 4 do
    Alcotest.(check int) "initial" 7 (Atomic_array.get a i)
  done;
  Pool.with_pool ~num_workers:4 (fun pool ->
      Pool.parallel_for pool ~chunk:3 ~lo:0 ~hi:10_000 (fun i ->
          ignore (Atomic_array.fetch_add a (i mod 5) 1)));
  let total = ref 0 in
  for i = 0 to 4 do
    total := !total + Atomic_array.get a i - 7
  done;
  Alcotest.(check int) "no lost updates across padded cells" 10_000 !total;
  Alcotest.(check (array int))
    "to_array sees logical cells" [| 1; 2; 3 |]
    (Atomic_array.to_array (Atomic_array.of_array [| 1; 2; 3 |]))

let qcheck_drain_to_array_matches_drain =
  QCheck.Test.make ~name:"Update_buffer.drain_to_array = drain" ~count:50
    QCheck.(tup2 (int_range 1 4) (list_of_size (Gen.int_range 0 5000) (int_bound 999)))
    (fun (workers, adds) ->
      let module Ub = Bucketing.Update_buffer in
      Pool.with_pool ~num_workers:workers (fun pool ->
          let mk () =
            let b = Ub.create ~num_vertices:1000 ~num_workers:workers () in
            List.iteri
              (fun i v -> ignore (Ub.try_add b ~tid:(i mod workers) v))
              adds;
            b
          in
          let b1 = mk () and b2 = mk () in
          let via_drain = ref [] in
          Ub.drain b1 (fun v -> via_drain := v :: !via_drain);
          let expected = Array.of_list (List.rev !via_drain) in
          let got = Ub.drain_to_array b2 ~pool in
          got = expected
          && Ub.size b2 = 0
          && Ub.total_added b2 = Array.length expected
          (* Flags were reset: everything can be buffered again. *)
          && List.for_all Fun.id
               (List.sort_uniq compare (Array.to_list expected)
               |> List.map (fun v -> Ub.try_add b2 ~tid:0 v))))

let test_pool_invalid_args () =
  Alcotest.check_raises "zero workers"
    (Invalid_argument "Pool.create: num_workers must be >= 1") (fun () ->
      ignore (Pool.create ~num_workers:0 ()));
  Pool.with_pool ~num_workers:1 (fun pool ->
      Alcotest.check_raises "bad chunk"
        (Invalid_argument "Pool.parallel_for: chunk must be >= 1") (fun () ->
          Pool.parallel_for pool ~chunk:0 ~lo:0 ~hi:10 ignore))

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "run_workers covers tids" `Quick
            test_run_workers_covers_all_tids;
          Alcotest.test_case "exception propagation" `Quick
            test_run_workers_propagates_exception;
          Alcotest.test_case "parallel_for coverage" `Quick test_parallel_for_sums;
          Alcotest.test_case "empty range" `Quick test_parallel_for_empty_range;
          Alcotest.test_case "parallel_for_reduce" `Quick test_parallel_for_reduce;
          Alcotest.test_case "parallel_for_tid" `Quick test_parallel_for_tid;
          Alcotest.test_case "invalid args" `Quick test_pool_invalid_args;
          Alcotest.test_case "spin_budget 0 (condvar path)" `Quick
            test_spin_budget_zero_pool;
          Alcotest.test_case "barrier wait counter" `Quick test_barrier_wait_counter;
        ] );
      ( "ranges",
        [
          QCheck_alcotest.to_alcotest qcheck_ranges_cover_like_sequential;
          QCheck_alcotest.to_alcotest qcheck_ranges_tid_partition;
          QCheck_alcotest.to_alcotest qcheck_reduce_matches_sequential;
          QCheck_alcotest.to_alcotest qcheck_exception_mid_range;
        ] );
      ( "atomic_array",
        [
          Alcotest.test_case "fetch_min/max" `Quick test_atomic_fetch_min_max;
          Alcotest.test_case "fetch_min/max allocate nothing" `Quick
            test_atomic_fetch_min_max_no_alloc;
          Alcotest.test_case "add_with_floor" `Quick test_atomic_add_with_floor;
          Alcotest.test_case "concurrent min" `Quick test_atomic_concurrent_min;
          Alcotest.test_case "concurrent fetch_add" `Quick
            test_atomic_concurrent_fetch_add;
          Alcotest.test_case "make_padded" `Quick test_make_padded;
          Alcotest.test_case "make is one flat array" `Quick test_make_is_flat;
          Alcotest.test_case "near ppsp allocates O(visited) + n" `Quick
            test_near_ppsp_allocation;
          Alcotest.test_case "padded stress across promotion" `Quick
            test_padded_stress_across_promotion;
        ] );
      ( "update_buffer",
        [ QCheck_alcotest.to_alcotest qcheck_drain_to_array_matches_drain ] );
      ( "prefix_sum",
        [
          Alcotest.test_case "small cases" `Quick test_prefix_sum_small;
          QCheck_alcotest.to_alcotest qcheck_prefix_sum_parallel_matches;
          QCheck_alcotest.to_alcotest qcheck_prefix_sum_parallel_large;
        ] );
    ]
