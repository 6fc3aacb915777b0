module Bucket_order = Bucketing.Bucket_order
module Lazy_buckets = Bucketing.Lazy_buckets
module Eager_buckets = Bucketing.Eager_buckets
module Update_buffer = Bucketing.Update_buffer
module Histogram = Bucketing.Histogram
module Atomic_array = Parallel.Atomic_array

let test_key_normalization () =
  let key = Bucket_order.key_of_priority in
  Alcotest.(check int) "lower delta 1" 7 (key ~direction:Lower_first ~delta:1 7);
  Alcotest.(check int) "lower coarsened" 3 (key ~direction:Lower_first ~delta:10 35);
  Alcotest.(check int) "higher negates" (-3) (key ~direction:Higher_first ~delta:10 35);
  Alcotest.(check int) "null maps to null key" Bucket_order.null_key
    (key ~direction:Lower_first ~delta:4 Bucket_order.null_priority);
  (* Lower-first: smaller priorities get smaller keys; higher-first: larger
     priorities get smaller keys — both process smallest key first. *)
  Alcotest.(check bool) "lower order" true
    (key ~direction:Lower_first ~delta:1 2 < key ~direction:Lower_first ~delta:1 9);
  Alcotest.(check bool) "higher order" true
    (key ~direction:Higher_first ~delta:1 9 < key ~direction:Higher_first ~delta:1 2)

let test_key_validation () =
  Alcotest.check_raises "negative priority"
    (Invalid_argument "Bucket_order: priorities must be non-negative") (fun () ->
      ignore (Bucket_order.key_of_priority ~direction:Lower_first ~delta:1 (-1)));
  Alcotest.check_raises "bad delta"
    (Invalid_argument "Bucket_order: delta must be positive") (fun () ->
      ignore (Bucket_order.key_of_priority ~direction:Lower_first ~delta:0 5))

let test_representative () =
  Alcotest.(check int) "lower" 30
    (Bucket_order.representative_priority ~direction:Lower_first ~delta:10 3);
  Alcotest.(check int) "higher" 30
    (Bucket_order.representative_priority ~direction:Higher_first ~delta:10 (-3))

let test_direction_strings () =
  Alcotest.(check bool) "parse lower" true
    (Bucket_order.direction_of_string "lower_first" = Ok Bucket_order.Lower_first);
  Alcotest.(check bool) "parse higher" true
    (Bucket_order.direction_of_string "higher_first" = Ok Bucket_order.Higher_first);
  Alcotest.(check bool) "reject junk" true
    (match Bucket_order.direction_of_string "sideways" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Lazy buckets against a priority-vector model: repeatedly lower some
   priorities, insert the changed vertices, and check that extraction
   yields each vertex exactly once, at its final bucket, in key order.  *)

let drain_lazy lb =
  let rec go acc =
    match Lazy_buckets.next_bucket lb with
    | None -> List.rev acc
    | Some (key, members) -> go ((key, Array.to_list members) :: acc)
  in
  go []

let test_lazy_basic_extraction () =
  let priorities = Atomic_array.of_array [| 5; 3; 5; 8; 1 |] in
  let lb =
    Lazy_buckets.create ~num_vertices:5 ~num_open:4
      ~source:(Lazy_buckets.Vector (priorities, Bucket_order.Lower_first, 1))
      ()
  in
  Lazy_buckets.insert_all lb;
  let buckets = drain_lazy lb in
  Alcotest.(check (list (pair int (list int))))
    "keys ascend, members grouped"
    [ (1, [ 4 ]); (3, [ 1 ]); (5, [ 0; 2 ]); (8, [ 3 ]) ]
    buckets

let test_lazy_overflow_rematerialization () =
  (* num_open = 2 forces several window rematerializations. *)
  let priorities = Atomic_array.of_array [| 0; 10; 20; 30; 40 |] in
  let lb =
    Lazy_buckets.create ~num_vertices:5 ~num_open:2
      ~source:(Lazy_buckets.Vector (priorities, Bucket_order.Lower_first, 1))
      ()
  in
  Lazy_buckets.insert_all lb;
  let keys = List.map fst (drain_lazy lb) in
  Alcotest.(check (list int)) "all buckets found in order" [ 0; 10; 20; 30; 40 ] keys

let test_lazy_stale_copies_filtered () =
  let priorities = Atomic_array.of_array [| 9; 9 |] in
  let lb =
    Lazy_buckets.create ~num_vertices:2 ~num_open:16
      ~source:(Lazy_buckets.Vector (priorities, Bucket_order.Lower_first, 1))
      ()
  in
  Lazy_buckets.insert_all lb;
  (* Vertex 0 improves to 4: a stale copy remains filed under 9. *)
  Atomic_array.set priorities 0 4;
  Lazy_buckets.insert lb 0;
  let buckets = drain_lazy lb in
  Alcotest.(check (list (pair int (list int))))
    "vertex 0 extracted once, at its final bucket"
    [ (4, [ 0 ]); (9, [ 1 ]) ]
    buckets

let test_lazy_null_priorities_ignored () =
  let priorities =
    Atomic_array.of_array [| 2; Bucket_order.null_priority; 7 |]
  in
  let lb =
    Lazy_buckets.create ~num_vertices:3 ~num_open:8
      ~source:(Lazy_buckets.Vector (priorities, Bucket_order.Lower_first, 1))
      ()
  in
  Lazy_buckets.insert_all lb;
  let buckets = drain_lazy lb in
  Alcotest.(check (list (pair int (list int))))
    "null vertex never appears"
    [ (2, [ 0 ]); (7, [ 2 ]) ]
    buckets;
  Alcotest.(check int) "only 2 accepted inserts" 2 (Lazy_buckets.total_inserts lb)

let test_lazy_closure_source () =
  let pri = [| 4; 2; 4 |] in
  let lb =
    Lazy_buckets.create ~num_vertices:3 ~num_open:4
      ~source:(Lazy_buckets.Closure (fun v -> pri.(v)))
      ()
  in
  Lazy_buckets.insert_all lb;
  Alcotest.(check (list (pair int (list int))))
    "closure-computed keys"
    [ (2, [ 1 ]); (4, [ 0; 2 ]) ]
    (drain_lazy lb)

let test_lazy_higher_first () =
  let priorities = Atomic_array.of_array [| 5; 9; 1 |] in
  let lb =
    Lazy_buckets.create ~num_vertices:3 ~num_open:4
      ~source:(Lazy_buckets.Vector (priorities, Bucket_order.Higher_first, 1))
      ()
  in
  Lazy_buckets.insert_all lb;
  let order = List.concat_map snd (drain_lazy lb) in
  Alcotest.(check (list int)) "highest priority first" [ 1; 0; 2 ] order

let test_lazy_stale_overflow_not_rematerialized () =
  (* Regression: with a tiny window, a vertex whose priority drops from the
     overflow range into an already-processed bucket must NOT be emitted
     again at window re-materialization (double emission double-peels in
     k-core). *)
  let priorities = Atomic_array.of_array [| 1; 50; 60 |] in
  let lb =
    Lazy_buckets.create ~num_vertices:3 ~num_open:2
      ~source:(Lazy_buckets.Vector (priorities, Bucket_order.Lower_first, 1))
      ()
  in
  Lazy_buckets.insert_all lb;
  (* Vertex 1 (key 50, in overflow) improves to key 1 while bucket 1 is
     current; it is re-inserted and must be processed exactly once. *)
  (match Lazy_buckets.next_bucket lb with
  | Some (1, [| 0 |]) -> ()
  | _ -> Alcotest.fail "expected bucket 1 = {0}");
  Atomic_array.set priorities 1 1;
  Lazy_buckets.insert lb 1;
  (match Lazy_buckets.next_bucket lb with
  | Some (1, [| 1 |]) -> ()
  | other ->
      Alcotest.failf "expected bucket 1 = {1}, got %s"
        (match other with
        | None -> "None"
        | Some (k, m) ->
            Printf.sprintf "(%d, [%s])" k
              (String.concat ";" (Array.to_list (Array.map string_of_int m)))));
  (* The stale overflow copy of vertex 1 (key 1 <= cursor) must be dropped;
     only vertex 2 remains. *)
  let rest = drain_lazy lb in
  Alcotest.(check (list (pair int (list int)))) "only vertex 2 remains"
    [ (60, [ 2 ]) ]
    rest

(* Interleaved insert/extract trace against a multiset model: every vertex
   is emitted exactly once, at its final key, regardless of window size. *)
let qcheck_lazy_interleaved_no_double_emission =
  QCheck.Test.make ~name:"lazy buckets never emit a vertex twice (interleaved)"
    ~count:200
    QCheck.(
      triple (int_range 1 4) (int_range 1 20)
        (list (pair (int_bound 19) (int_bound 60))))
    (fun (num_open, n, updates) ->
      let priorities = Atomic_array.make n Bucket_order.null_priority in
      let lb =
        Lazy_buckets.create ~num_vertices:n ~num_open
          ~source:(Lazy_buckets.Vector (priorities, Bucket_order.Lower_first, 1))
          ()
      in
      let emitted = Array.make n 0 in
      let wrong_bucket = ref false in
      let drain_one () =
        match Lazy_buckets.next_bucket lb with
        | None -> ()
        | Some (key, members) ->
            Array.iter
              (fun v ->
                emitted.(v) <- emitted.(v) + 1;
                if Atomic_array.get priorities v <> key then wrong_bucket := true)
              members
      in
      List.iteri
        (fun i (v, p) ->
          let v = v mod n in
          (* Only monotone decreases, and never behind the cursor (the
             runtime guarantees both). *)
          let p = max p (Lazy_buckets.current_key lb) in
          if p < Atomic_array.get priorities v then begin
            Atomic_array.set priorities v p;
            Lazy_buckets.insert lb v
          end;
          if i mod 3 = 0 then drain_one ())
        updates;
      let rec drain_all () =
        match Lazy_buckets.next_bucket lb with
        | None -> ()
        | Some (key, members) ->
            Array.iter
              (fun v ->
                emitted.(v) <- emitted.(v) + 1;
                if Atomic_array.get priorities v <> key then wrong_bucket := true)
              members;
            drain_all ()
      in
      drain_all ();
      (not !wrong_bucket) && Array.for_all (fun c -> c <= 1) emitted)

(* Random trace against a model: final extraction order must equal sorting
   vertices by their final key. *)
let qcheck_lazy_matches_model =
  QCheck.Test.make ~name:"lazy buckets extract by final priority" ~count:100
    QCheck.(triple (int_range 1 30) (int_range 1 8) (list (pair (int_bound 29) (int_bound 100))))
    (fun (n, num_open, updates) ->
      let priorities = Atomic_array.make n Bucket_order.null_priority in
      let lb =
        Lazy_buckets.create ~num_vertices:n ~num_open
          ~source:(Lazy_buckets.Vector (priorities, Bucket_order.Lower_first, 1))
          ()
      in
      (* Monotonically decreasing updates, as the runtime guarantees. *)
      List.iter
        (fun (v, p) ->
          let v = v mod n in
          if p < Atomic_array.get priorities v then begin
            Atomic_array.set priorities v p;
            Lazy_buckets.insert lb v
          end)
        updates;
      let extracted = List.concat_map snd (drain_lazy lb) in
      let expected =
        List.init n (fun v -> (Atomic_array.get priorities v, v))
        |> List.filter (fun (p, _) -> p <> Bucket_order.null_priority)
        |> List.sort compare |> List.map snd
      in
      List.sort compare extracted = List.sort compare expected
      && List.length extracted = List.length expected)

(* ------------------------------------------------------------------ *)

let test_eager_basic () =
  let eb = Eager_buckets.create ~num_workers:2 ~min_key:0 () in
  Eager_buckets.insert eb ~tid:0 ~vertex:10 ~key:3;
  Eager_buckets.insert eb ~tid:1 ~vertex:11 ~key:1;
  Eager_buckets.insert eb ~tid:1 ~vertex:12 ~key:3;
  Alcotest.(check (option int)) "min key across workers" (Some 1)
    (Eager_buckets.next_global_key eb);
  Alcotest.(check (array int)) "drain key 1" [| 11 |] (Eager_buckets.drain_global eb ~key:1);
  Alcotest.(check (option int)) "next key" (Some 3) (Eager_buckets.next_global_key eb);
  let drained = Eager_buckets.drain_global eb ~key:3 in
  Array.sort compare drained;
  Alcotest.(check (array int)) "drain both workers" [| 10; 12 |] drained;
  Alcotest.(check (option int)) "exhausted" None (Eager_buckets.next_global_key eb);
  Alcotest.(check int) "insert count" 3 (Eager_buckets.total_inserts eb)

let test_eager_null_ignored () =
  let eb = Eager_buckets.create ~num_workers:1 ~min_key:0 () in
  Eager_buckets.insert eb ~tid:0 ~vertex:5 ~key:Bucket_order.null_key;
  Alcotest.(check (option int)) "nothing inserted" None (Eager_buckets.next_global_key eb);
  Alcotest.(check int) "no inserts" 0 (Eager_buckets.total_inserts eb)

let test_eager_take_local_for_fusion () =
  let eb = Eager_buckets.create ~num_workers:2 ~min_key:0 () in
  Eager_buckets.insert eb ~tid:0 ~vertex:1 ~key:2;
  Eager_buckets.insert eb ~tid:0 ~vertex:2 ~key:2;
  Eager_buckets.insert eb ~tid:1 ~vertex:3 ~key:2;
  ignore (Eager_buckets.next_global_key eb);
  Alcotest.(check int) "local size tid 0" 2 (Eager_buckets.local_size eb ~tid:0 ~key:2);
  (match Eager_buckets.take_local eb ~tid:0 ~key:2 with
  | Some bin ->
      Array.sort compare bin;
      Alcotest.(check (array int)) "take only own bin" [| 1; 2 |] bin
  | None -> Alcotest.fail "expected a bin");
  Alcotest.(check bool) "second take empty" true
    (Eager_buckets.take_local eb ~tid:0 ~key:2 = None);
  (* tid 1's bin is untouched and still reachable globally. *)
  Alcotest.(check (array int)) "other worker bin intact" [| 3 |]
    (Eager_buckets.drain_global eb ~key:2)

let test_eager_clamps_behind_cursor () =
  let eb = Eager_buckets.create ~num_workers:1 ~min_key:0 () in
  Eager_buckets.insert eb ~tid:0 ~vertex:1 ~key:5;
  Alcotest.(check (option int)) "cursor at 5" (Some 5) (Eager_buckets.next_global_key eb);
  ignore (Eager_buckets.drain_global eb ~key:5);
  (* An insert with a key behind the cursor lands in the current bucket. *)
  Eager_buckets.insert eb ~tid:0 ~vertex:2 ~key:3;
  Alcotest.(check (option int)) "clamped to cursor" (Some 5)
    (Eager_buckets.next_global_key eb)

let test_eager_negative_keys () =
  (* Higher-first algorithms produce negative keys. *)
  let eb = Eager_buckets.create ~num_workers:1 ~min_key:(-10) () in
  Eager_buckets.insert eb ~tid:0 ~vertex:1 ~key:(-10);
  Eager_buckets.insert eb ~tid:0 ~vertex:2 ~key:(-4);
  Alcotest.(check (option int)) "min negative key" (Some (-10))
    (Eager_buckets.next_global_key eb)

let qcheck_eager_global_order =
  QCheck.Test.make ~name:"eager global extraction is nondecreasing in key" ~count:100
    QCheck.(list (pair (int_bound 3) (int_bound 20)))
    (fun inserts ->
      let eb = Eager_buckets.create ~num_workers:4 ~min_key:0 () in
      List.iteri
        (fun i (tid, key) -> Eager_buckets.insert eb ~tid ~vertex:i ~key)
        inserts;
      let rec drain last acc =
        match Eager_buckets.next_global_key eb with
        | None -> (last, acc)
        | Some key ->
            let members = Eager_buckets.drain_global eb ~key in
            if key < last then (key, -1)
            else drain key (acc + Array.length members)
      in
      let _, drained = drain min_int 0 in
      drained = List.length inserts)

(* Bins are recycled once the cursor passes them, so interleaving
   inserts with drains must neither lose nor duplicate a vertex: each
   round inserts relative to the cursor (offsets below it clamp to it),
   then one bucket is drained and compared with a model multiset. *)
let qcheck_eager_recycled_bins_lose_nothing =
  QCheck.Test.make ~name:"eager bins recycled across rounds lose nothing"
    ~count:200
    QCheck.(
      list_of_size (Gen.int_range 0 40)
        (list_of_size (Gen.int_range 0 8) (pair (int_bound 3) (int_range (-2) 6))))
    (fun rounds ->
      let eb = Eager_buckets.create ~num_workers:4 ~min_key:0 () in
      let pending = ref [] and next_vertex = ref 0 in
      let push batch =
        let cursor = Eager_buckets.cursor_key eb in
        List.iter
          (fun (tid, offset) ->
            let v = !next_vertex in
            incr next_vertex;
            Eager_buckets.insert eb ~tid ~vertex:v ~key:(cursor + offset);
            pending := (cursor + max 0 offset, v) :: !pending)
          batch
      in
      let drain_one () =
        match Eager_buckets.next_global_key eb with
        | None -> !pending = []
        | Some key ->
            let members = List.sort compare (Array.to_list (Eager_buckets.drain_global eb ~key)) in
            let here, rest = List.partition (fun (k, _) -> k = key) !pending in
            pending := rest;
            List.for_all (fun (k, _) -> k > key) rest
            && members = List.sort compare (List.map snd here)
      in
      let rec finish () =
        match !pending with [] -> drain_one () | _ -> drain_one () && finish ()
      in
      List.for_all (fun batch -> push batch; drain_one ()) rounds && finish ())

(* A Δ = 1 wBFS on the road grid walks ~90k buckets. Walking 10,000
   consecutive single-vertex buckets reuses the bins the cursor passed,
   so promoted words per bucket stay under 1; a fresh vector per key is
   promoted at about 6 words. *)
let test_eager_bins_reused () =
  let buckets = 10_000 in
  let eb = Eager_buckets.create ~num_workers:1 ~min_key:0 () in
  Eager_buckets.insert eb ~tid:0 ~vertex:0 ~key:0;
  Gc.minor ();
  let _, promoted_before, _ = Gc.counters () in
  for k = 0 to buckets - 1 do
    if Eager_buckets.next_global_key eb <> Some k then
      Alcotest.failf "bucket %d not next" k;
    if Eager_buckets.drain_global eb ~key:k <> [| k |] then
      Alcotest.failf "bucket %d does not hold exactly vertex %d" k k;
    Eager_buckets.insert eb ~tid:0 ~vertex:(k + 1) ~key:(k + 1)
  done;
  Gc.minor ();
  let _, promoted_after, _ = Gc.counters () in
  let per_bucket = (promoted_after -. promoted_before) /. float_of_int buckets in
  if per_bucket >= 1.0 then
    Alcotest.failf "%.2f promoted words per bucket" per_bucket

(* ------------------------------------------------------------------ *)

let test_update_buffer_dedup () =
  let b = Update_buffer.create ~num_vertices:10 ~num_workers:2 () in
  Alcotest.(check bool) "first add" true (Update_buffer.try_add b ~tid:0 3);
  Alcotest.(check bool) "duplicate rejected" false (Update_buffer.try_add b ~tid:1 3);
  Alcotest.(check bool) "other vertex" true (Update_buffer.try_add b ~tid:1 7);
  Alcotest.(check int) "size" 2 (Update_buffer.size b);
  let drained = ref [] in
  Update_buffer.drain b (fun v -> drained := v :: !drained);
  Alcotest.(check (list int)) "drained" [ 3; 7 ] (List.sort compare !drained);
  (* Flags reset: the vertex can be buffered again next round. *)
  Alcotest.(check bool) "re-add after drain" true (Update_buffer.try_add b ~tid:0 3);
  Alcotest.(check int) "lifetime count" 2 (Update_buffer.total_added b)

let test_histogram_reduce () =
  let h = Histogram.create ~num_workers:2 () in
  Histogram.record h ~tid:0 4;
  Histogram.record h ~tid:1 4;
  Histogram.record h ~tid:0 4;
  Histogram.record h ~tid:1 9;
  Alcotest.(check int) "events" 4 (Histogram.events h);
  let scratch = Array.make 10 0 in
  let seen = ref [] in
  Histogram.reduce h ~scratch (fun ~vertex ~count -> seen := (vertex, count) :: !seen);
  Alcotest.(check (list (pair int int)))
    "counts per distinct vertex"
    [ (4, 3); (9, 1) ]
    (List.sort compare !seen);
  Alcotest.(check bool) "scratch rezeroed" true (Array.for_all (( = ) 0) scratch);
  Alcotest.(check int) "logs cleared" 0 (Histogram.events h);
  Alcotest.(check int) "lifetime events" 4 (Histogram.total_events h)

(* ------------------------------------------------------------------ *)

let directions = [ Bucket_order.Lower_first; Bucket_order.Higher_first ]

(* Priority order must survive the key mapping: the bucket structure
   processes smaller keys first, so a better priority may never land in a
   later bucket, for either direction and any coarsening. *)
let qcheck_key_monotone =
  QCheck.Test.make ~name:"key_of_priority is monotone in priority" ~count:200
    QCheck.(triple (int_range 1 16) (int_bound 10_000) (int_bound 10_000))
    (fun (delta, p, q) ->
      let lo = min p q and hi = max p q in
      List.for_all
        (fun direction ->
          let key = Bucket_order.key_of_priority ~direction ~delta in
          match direction with
          | Bucket_order.Lower_first -> key lo <= key hi
          | Bucket_order.Higher_first -> key lo >= key hi)
        directions)

(* getCurrentPriority round-trip: the representative priority of a bucket
   maps back to that bucket, and no better priority shares it shifted. *)
let qcheck_representative_roundtrip =
  QCheck.Test.make ~name:"representative_priority inverts key_of_priority"
    ~count:200
    QCheck.(triple (int_range 1 16) (int_bound 10_000) (int_range 0 1))
    (fun (delta, p, dir_idx) ->
      let direction = List.nth directions dir_idx in
      let key = Bucket_order.key_of_priority ~direction ~delta p in
      let rep = Bucket_order.representative_priority ~direction ~delta key in
      Bucket_order.key_of_priority ~direction ~delta rep = key
      && rep <= p
      && (delta > 1 || rep = p))

(* The unreached sentinel lives strictly outside the real key space: it
   maps to null_key and every real priority maps before it. *)
let qcheck_null_priority_isolated =
  QCheck.Test.make ~name:"null_priority maps to null_key, real ones never do"
    ~count:200
    QCheck.(triple (int_range 1 16) (int_bound 1_000_000) (int_range 0 1))
    (fun (delta, p, dir_idx) ->
      let direction = List.nth directions dir_idx in
      let key = Bucket_order.key_of_priority ~direction ~delta in
      key Bucket_order.null_priority = Bucket_order.null_key
      && key p <> Bucket_order.null_key
      && key p < Bucket_order.null_key)

(* Histogram reduction equals the obvious sequential count, whatever the
   interleaving of workers and vertices, and a second round starts clean. *)
let qcheck_histogram_matches_model =
  QCheck.Test.make ~name:"histogram reduce = per-vertex event counts" ~count:100
    QCheck.(
      pair (int_range 1 4) (small_list (pair (int_bound 3) (int_bound 19))))
    (fun (num_workers, events) ->
      let events =
        List.map (fun (tid, v) -> (tid mod num_workers, v)) events
      in
      let h = Histogram.create ~num_workers () in
      List.iter (fun (tid, v) -> Histogram.record h ~tid v) events;
      let model = Array.make 20 0 in
      List.iter (fun (_, v) -> model.(v) <- model.(v) + 1) events;
      let scratch = Array.make 20 0 in
      let got = Array.make 20 0 in
      Histogram.reduce h ~scratch (fun ~vertex ~count -> got.(vertex) <- count);
      got = model
      && Array.for_all (( = ) 0) scratch
      && Histogram.events h = 0
      && Histogram.total_events h = List.length events)

let () =
  Alcotest.run "bucketing"
    [
      ( "bucket_order",
        [
          Alcotest.test_case "normalization" `Quick test_key_normalization;
          Alcotest.test_case "validation" `Quick test_key_validation;
          Alcotest.test_case "representative" `Quick test_representative;
          Alcotest.test_case "direction strings" `Quick test_direction_strings;
          QCheck_alcotest.to_alcotest qcheck_key_monotone;
          QCheck_alcotest.to_alcotest qcheck_representative_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_null_priority_isolated;
        ] );
      ( "lazy_buckets",
        [
          Alcotest.test_case "basic extraction" `Quick test_lazy_basic_extraction;
          Alcotest.test_case "overflow rematerialization" `Quick
            test_lazy_overflow_rematerialization;
          Alcotest.test_case "stale copies filtered" `Quick
            test_lazy_stale_copies_filtered;
          Alcotest.test_case "null ignored" `Quick test_lazy_null_priorities_ignored;
          Alcotest.test_case "closure source" `Quick test_lazy_closure_source;
          Alcotest.test_case "higher first" `Quick test_lazy_higher_first;
          Alcotest.test_case "stale overflow dropped (regression)" `Quick
            test_lazy_stale_overflow_not_rematerialized;
          QCheck_alcotest.to_alcotest qcheck_lazy_matches_model;
          QCheck_alcotest.to_alcotest qcheck_lazy_interleaved_no_double_emission;
        ] );
      ( "eager_buckets",
        [
          Alcotest.test_case "basic" `Quick test_eager_basic;
          Alcotest.test_case "null ignored" `Quick test_eager_null_ignored;
          Alcotest.test_case "take_local (fusion)" `Quick
            test_eager_take_local_for_fusion;
          Alcotest.test_case "clamps behind cursor" `Quick
            test_eager_clamps_behind_cursor;
          Alcotest.test_case "negative keys" `Quick test_eager_negative_keys;
          QCheck_alcotest.to_alcotest qcheck_eager_global_order;
          QCheck_alcotest.to_alcotest qcheck_eager_recycled_bins_lose_nothing;
          Alcotest.test_case "bins reused across buckets" `Quick
            test_eager_bins_reused;
        ] );
      ( "update_buffer",
        [ Alcotest.test_case "dedup and drain" `Quick test_update_buffer_dedup ] );
      ( "histogram",
        [
          Alcotest.test_case "reduce" `Quick test_histogram_reduce;
          QCheck_alcotest.to_alcotest qcheck_histogram_matches_model;
        ] );
    ]
