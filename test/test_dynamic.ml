(* The dynamic-graph stack, bottom to top: Delta batch semantics,
   Versioned snapshot isolation (including a commit landing mid-query),
   the incremental == from-scratch property across schedules and worker
   counts (qcheck over random mutation histories), the per-version cache
   keying that makes push and pull agree after a mutation, and the
   service-level mutate/cancel wire ops. *)

module Pool = Parallel.Pool
module Csr = Graphs.Csr
module Edge_list = Graphs.Edge_list
module Handle = Graphs.Handle
module Delta = Graphs.Delta
module Versioned = Graphs.Versioned
module Schedule = Ordered.Schedule
module Sssp = Algorithms.Sssp_delta
module Oracle = Check.Oracle
module Dynamic = Check.Dynamic
module Protocol = Service.Protocol
module Json = Support.Json

let null = Bucketing.Bucket_order.null_priority

let csr_of edges ~n =
  Csr.of_edge_list
    (Edge_list.create ~num_vertices:n
       (Array.of_list
          (List.map (fun (s, d, w) -> { Edge_list.src = s; dst = d; weight = w }) edges)))

let dist_equal = Alcotest.(check (array int))

(* ---------------- Delta semantics ---------------- *)

let test_delta_apply () =
  let g = csr_of ~n:4 [ (0, 1, 5); (1, 2, 3); (1, 2, 7); (2, 3, 1) ] in
  (* Insert appends; delete removes every parallel copy; reweight sets
     every copy; ops apply in order. *)
  let batch =
    [|
      Delta.Insert { src = 0; dst = 3; weight = 2 };
      Delta.Delete { src = 1; dst = 2 };
      Delta.Insert { src = 1; dst = 2; weight = 9 };
      Delta.Reweight { src = 2; dst = 3; weight = 4 };
      Delta.Delete { src = 3; dst = 0 } (* absent: no-op *);
    |]
  in
  let g' = Delta.apply g batch in
  let edges u =
    let acc = ref [] in
    Csr.iter_out g' u (fun v w -> acc := (v, w) :: !acc);
    List.sort compare !acc
  in
  Alcotest.(check (list (pair int int))) "out(0)" [ (1, 5); (3, 2) ] (edges 0);
  Alcotest.(check (list (pair int int))) "out(1)" [ (2, 9) ] (edges 1);
  Alcotest.(check (list (pair int int))) "out(2)" [ (3, 4) ] (edges 2);
  (* The input CSR is untouched. *)
  Alcotest.(check int) "old num_edges" 4 (Csr.num_edges g);
  (* Round-trip the printable form. *)
  let s = Delta.to_string batch in
  match Delta.of_string s with
  | Error e -> Alcotest.fail e
  | Ok batch' ->
      Alcotest.(check string) "to_string round-trip" s (Delta.to_string batch')

let test_delta_validate () =
  let bad w = [| Delta.Insert { src = 0; dst = 1; weight = w } |] in
  (match Delta.validate ~num_vertices:2 (bad 0) with
  | Ok () -> Alcotest.fail "weight 0 accepted"
  | Error _ -> ());
  (match Delta.validate ~num_vertices:2 [| Delta.Delete { src = 0; dst = 7 } |] with
  | Ok () -> Alcotest.fail "out-of-range dst accepted"
  | Error _ -> ());
  match Delta.validate ~num_vertices:2 (bad 3) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ---------------- Versioned snapshots ---------------- *)

let test_versioned_commit_pin () =
  let g = csr_of ~n:3 [ (0, 1, 1); (1, 2, 1) ] in
  let v = Versioned.create g in
  Alcotest.(check int) "initial version" 0 (Versioned.version v);
  let pinned = Versioned.pin v in
  let v1 = Versioned.commit v [| Delta.Insert { src = 0; dst = 2; weight = 1 } |] in
  Alcotest.(check int) "commit mints 1" 1 v1;
  Alcotest.(check int) "latest advanced" 1 (Versioned.version v);
  (* The pinned snapshot still reads the old graph. *)
  Alcotest.(check int) "pinned edges" 2 (Csr.num_edges (Handle.csr pinned));
  Alcotest.(check int) "new edges" 3
    (Csr.num_edges (Handle.csr (Versioned.latest v)));
  Alcotest.(check (list int)) "pinned versions" [ 0 ] (Versioned.pinned_versions v);
  (* batches_since spans 0 -> 1; from latest it is empty. *)
  (match Versioned.batches_since v ~version:0 with
  | Some [| b |] -> Alcotest.(check int) "one-op batch" 1 (Delta.size b)
  | _ -> Alcotest.fail "batches_since 0");
  (match Versioned.batches_since v ~version:1 with
  | Some [||] -> ()
  | _ -> Alcotest.fail "batches_since latest");
  Versioned.release v pinned;
  Alcotest.(check (list int)) "released" [] (Versioned.pinned_versions v)

let test_versioned_compact () =
  let g = csr_of ~n:3 [ (0, 1, 1) ] in
  let v = Versioned.create ~compact_every:2 g in
  ignore (Versioned.commit v [| Delta.Insert { src = 1; dst = 2; weight = 4 } |]);
  Alcotest.(check bool) "below threshold" false (Versioned.should_compact v);
  ignore (Versioned.commit v [| Delta.Reweight { src = 0; dst = 1; weight = 2 } |]);
  Alcotest.(check bool) "at threshold" true (Versioned.should_compact v);
  Alcotest.(check bool) "compact swaps" true (Versioned.compact v);
  Alcotest.(check int) "compactions" 1 (Versioned.compactions v);
  Alcotest.(check int) "ops reset" 0 (Versioned.ops_pending v);
  (* The log was truncated: the pre-compaction version is unreachable. *)
  (match Versioned.batches_since v ~version:0 with
  | None -> ()
  | Some _ -> Alcotest.fail "log not truncated");
  Alcotest.(check int) "version preserved" 2 (Versioned.version v)

(* A commit landing mid-run must not disturb the pinned snapshot: the
   query answers for version N whether or not N+1 appears while its
   engine is still rounding — the acceptance shape of snapshot
   isolation. *)
let test_snapshot_isolation_mid_flight () =
  Pool.with_pool ~num_workers:2 (fun pool ->
      let g = Testlib.random_weighted_graph 11 ~n:300 ~m:1500 ~max_w:8 in
      let v = Versioned.create g in
      let schedule = Testlib.schedule () in
      let control =
        (Sssp.run ~pool ~graph:g ~schedule ~source:0 ()).Sssp.dist
      in
      let pinned = Versioned.pin v in
      let committed = ref false in
      let on_round _ _ =
        if not !committed then begin
          committed := true;
          ignore
            (Versioned.commit v
               [|
                 Delta.Reweight { src = 0; dst = 1; weight = 1 };
                 Delta.Insert { src = 0; dst = 299; weight = 1 };
               |])
        end
      in
      let dist = Parallel.Atomic_array.make 300 null in
      Parallel.Atomic_array.set dist 0 0;
      let pq =
        Ordered.Priority_queue.create ~schedule ~num_workers:2
          ~direction:Bucketing.Bucket_order.Lower_first ~allow_coarsening:true
          ~priorities:dist ~initial:(Ordered.Priority_queue.Start_vertex 0)
          ~pool ()
      in
      let edge_fn ctx ~src ~dst ~weight =
        let nd = Parallel.Atomic_array.get dist src + weight in
        Ordered.Priority_queue.update_priority_min pq ctx dst nd
      in
      ignore
        (Ordered.Engine.run ~pool ~handle:pinned ~schedule ~pq ~edge_fn
           ~on_round ());
      dist_equal "pinned run unaffected by mid-flight commit" control
        (Parallel.Atomic_array.to_array dist);
      Alcotest.(check bool) "commit did land" true !committed;
      Alcotest.(check int) "latest moved on" 1 (Versioned.version v);
      Alcotest.(check int) "pinned still version 0" 0 (Handle.version pinned);
      Versioned.release v pinned)

(* ---------------- incremental == from-scratch (qcheck) ---------------- *)

(* One property instance: replay random batches over a random graph and
   demand the incremental repair equals a from-scratch run at every
   step. Exercised per (traversal, workers) grid point below; the full
   4-way judgment (plus ddmin shrinking) lives in `check_runner
   --dynamic`. *)
let incremental_matches_scratch ~pool ~schedule seed =
  let g = Testlib.random_weighted_graph seed ~n:60 ~m:260 ~max_w:6 in
  let batches = Dynamic.gen_batches ~seed g ~num_batches:3 ~ops_per_batch:5 in
  let source = 0 in
  let old_graph = ref g in
  let prev =
    ref (Sssp.run ~pool ~graph:g ~handle:(Handle.create g) ~schedule ~source ()).Sssp.dist
  in
  Array.for_all
    (fun batch ->
      let graph = Delta.apply !old_graph batch in
      let handle = Handle.create graph in
      let inc =
        Sssp.run_incremental ~pool ~old_graph:!old_graph ~graph ~handle ~schedule
          ~source ~batch ~prev:!prev ()
      in
      let scratch =
        (Sssp.run ~pool ~graph ~handle ~schedule ~source ()).Sssp.dist
      in
      let equal = inc.Sssp.result.Sssp.dist = scratch in
      old_graph := graph;
      prev := scratch;
      equal)
    batches

let qcheck_incremental ~traversal ~workers =
  let name =
    Printf.sprintf "incremental sssp exact (%s, %d workers)"
      (match traversal with
      | Schedule.Sparse_push -> "push"
      | Schedule.Dense_pull -> "pull"
      | Schedule.Hybrid -> "hybrid")
      workers
  in
  let strategies =
    (* Dense pull and hybrid admit only lazy bucket updates. *)
    match traversal with
    | Schedule.Sparse_push -> [ Schedule.Eager_with_fusion; Schedule.Lazy ]
    | Schedule.Dense_pull | Schedule.Hybrid -> [ Schedule.Lazy ]
  in
  QCheck.Test.make ~name ~count:8 QCheck.(int_bound 10_000) (fun seed ->
      Pool.with_pool ~num_workers:workers (fun pool ->
          List.for_all
            (fun strategy ->
              incremental_matches_scratch ~pool
                ~schedule:(Testlib.schedule ~strategy ~traversal ())
                seed)
            strategies))

(* Forcing the threshold to 0 must take the full-recompute fallback and
   still be exact. *)
let test_incremental_fallback () =
  Pool.with_pool ~num_workers:2 (fun pool ->
      let g = Testlib.random_weighted_graph 3 ~n:80 ~m:300 ~max_w:5 in
      let batch = [| Delta.Insert { src = 0; dst = 79; weight = 1 } |] in
      let g' = Delta.apply g batch in
      let schedule = { (Testlib.schedule ()) with Schedule.incremental_threshold = 0.0 } in
      let prev = (Sssp.run ~pool ~graph:g ~schedule ~source:0 ()).Sssp.dist in
      let inc =
        Sssp.run_incremental ~pool ~old_graph:g ~graph:g' ~schedule ~source:0
          ~batch ~prev ()
      in
      Alcotest.(check bool) "fell back" true inc.Sssp.fell_back;
      let scratch = (Sssp.run ~pool ~graph:g' ~schedule ~source:0 ()).Sssp.dist in
      dist_equal "fallback exact" scratch inc.Sssp.result.Sssp.dist)

(* An insert or reweight whose edge the same batch removes must not seed
   the repair: [i:0-2-1,d:0-2] inserts a shortcut and deletes it again,
   and [d:4-10,r:4-10-1] reweights an edge the batch already deleted.
   Both repairs must land on Dijkstra's distances for the mutated graph. *)
let test_incremental_same_batch_removal () =
  let case =
    Check.Graph_case.build (Check.Graph_case.Road { seed = 1003; rows = 5; cols = 6 })
  in
  let g = Csr.of_edge_list case.Check.Graph_case.el in
  let schedule = Testlib.schedule () in
  Pool.with_pool ~num_workers:1 (fun pool ->
      let prev = (Sssp.run ~pool ~graph:g ~schedule ~source:0 ()).Sssp.dist in
      List.iter
        (fun ops ->
          let batch =
            match Delta.of_string ops with Ok b -> b | Error e -> Alcotest.fail e
          in
          let graph = Delta.apply g batch in
          let expected = Algorithms.Dijkstra.distances graph ~source:0 in
          let inc =
            Sssp.run_incremental ~pool ~old_graph:g ~graph ~schedule ~source:0
              ~batch ~prev ()
          in
          dist_equal (ops ^ ": ordered repair") expected inc.Sssp.result.Sssp.dist;
          let bf =
            Algorithms.Bellman_ford.run_incremental ~pool ~old_graph:g ~graph
              ~source:0 ~batch ~prev ()
          in
          dist_equal (ops ^ ": unordered repair") expected
            bf.Algorithms.Bellman_ford.dist)
        [ "i:0-2-1,d:0-2"; "d:4-10,r:4-10-1" ])

(* ---------------- per-version caches: push vs pull ---------------- *)

(* The regression the version keying exists for: warm every derived
   cache of version 0 (transpose, degree memo), mutate, then check the
   pull/hybrid runs on version 1 agree with push — a stale transpose or
   degree array would make them diverge. *)
let test_mutate_then_push_vs_pull () =
  Pool.with_pool ~num_workers:2 (fun pool ->
      let g = Testlib.random_weighted_graph 7 ~n:120 ~m:700 ~max_w:6 in
      let v = Versioned.create g in
      let h0 = Versioned.latest v in
      (* Warm v0's caches the way a serving process would. *)
      ignore (Handle.transpose_csr h0);
      ignore (Csr.out_degrees_cached (Handle.csr h0));
      ignore
        (Versioned.commit v
           [|
             Delta.Insert { src = 0; dst = 119; weight = 1 };
             Delta.Delete { src = 0; dst = 1 };
             Delta.Insert { src = 5; dst = 0; weight = 2 };
           |]);
      let h1 = Versioned.latest v in
      let run traversal =
        (* Lazy strategy: the only one pull and hybrid admit. *)
        (Sssp.run ~pool ~graph:(Handle.csr h1) ~handle:h1
           ~schedule:(Testlib.schedule ~strategy:Schedule.Lazy ~traversal ())
           ~source:0 ())
          .Sssp.dist
      in
      let push = run Schedule.Sparse_push in
      (match Oracle.default.Oracle.sssp (Handle.csr h1) ~source:0 push with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("push vs oracle: " ^ e));
      dist_equal "pull = push after mutation" push (run Schedule.Dense_pull);
      dist_equal "hybrid = push after mutation" push (run Schedule.Hybrid))

(* ---------------- service: mutate / versions / cancel ---------------- *)

let req ?deadline_ms id op = { Protocol.id; op; deadline_ms }

let run_queries core reqs =
  let replies = Hashtbl.create 16 in
  List.iter
    (fun r ->
      Service.Core.submit core r ~reply:(fun resp ->
          Hashtbl.replace replies r.Protocol.id resp))
    reqs;
  let drained = ref 1 in
  while !drained > 0 do
    drained := Service.Core.process_pending core ~wait:false
  done;
  List.map
    (fun r ->
      match Hashtbl.find_opt replies r.Protocol.id with
      | Some resp -> resp
      | None -> Alcotest.fail (Printf.sprintf "no reply for id %d" r.Protocol.id))
    reqs

let mk_core ~pool ?(landmarks = 2) ?(compact_ops = 4096) csr =
  Service.Core.create ~pool ~handle:(Handle.create csr)
    ~config:
      {
        Service.Config.default with
        Service.Config.landmarks;
        schedule = Testlib.schedule ();
        compact_ops;
      }
    ()

let distance_of resp =
  match resp.Protocol.result with
  | Some j -> (
      match Json.member "distance" j with
      | Some (Json.Int d) -> Some d
      | Some Json.Null -> None
      | _ -> Alcotest.fail "malformed distance payload")
  | None -> Alcotest.fail "no result payload"

let meta_version resp =
  match resp.Protocol.meta with
  | Some m -> m.Protocol.version
  | None -> Alcotest.fail "no meta"

let test_service_mutate () =
  Pool.with_pool ~num_workers:2 (fun pool ->
      (* 0 -> 1 -> 2 -> 3, so d(0,3) = 30; the mutation adds a shortcut
         and deletes the first hop. *)
      let g = csr_of ~n:4 [ (0, 1, 10); (1, 2, 10); (2, 3, 10) ] in
      let core = mk_core ~pool g in
      ignore (Service.Core.warm_alt core);
      let before = run_queries core [ req 1 (Protocol.Ppsp { source = 0; target = 3 }) ] in
      Alcotest.(check (option int)) "pre-mutation distance" (Some 30)
        (distance_of (List.hd before));
      Alcotest.(check (option int)) "pre-mutation version" (Some 0)
        (meta_version (List.hd before));
      let batch =
        [|
          Delta.Insert { src = 0; dst = 2; weight = 3 };
          Delta.Reweight { src = 2; dst = 3; weight = 4 };
        |]
      in
      let replies =
        run_queries core
          [
            req 2 (Protocol.Mutate { ops = batch });
            req 3 (Protocol.Ppsp { source = 0; target = 3 });
            req 4 (Protocol.Astar { source = 0; target = 3 });
            req 5 (Protocol.Widest { source = 0; target = 3 });
          ]
      in
      (match replies with
      | [ m; p; a; w ] ->
          Alcotest.(check bool) "mutate ok" true (m.Protocol.status = Protocol.Ok);
          (match m.Protocol.result with
          | Some j -> (
              match (Json.member "version" j, Json.member "applied" j) with
              | Some (Json.Int 1), Some (Json.Int 2) -> ()
              | _ -> Alcotest.fail "mutate payload")
          | None -> Alcotest.fail "mutate payload missing");
          Alcotest.(check (option int)) "post-mutation ppsp" (Some 7) (distance_of p);
          Alcotest.(check (option int)) "ppsp ran at version 1" (Some 1)
            (meta_version p);
          (* The incremental ALT refresh kept A* admissible: it must
             agree with ppsp on the mutated graph. *)
          Alcotest.(check (option int)) "astar = ppsp after refresh" (Some 7)
            (distance_of a);
          Alcotest.(check bool) "widest answered" true
            (w.Protocol.status = Protocol.Ok)
      | _ -> Alcotest.fail "reply count");
      Alcotest.(check int) "core version" 1 (Service.Core.version core);
      Service.Core.drain_shutdown core)

let test_service_mutate_invalid () =
  Pool.with_pool ~num_workers:1 (fun pool ->
      let g = csr_of ~n:2 [ (0, 1, 1) ] in
      let core = mk_core ~pool g in
      let replies =
        run_queries core
          [ req 1 (Protocol.Mutate { ops = [| Delta.Delete { src = 0; dst = 9 } |] }) ]
      in
      Alcotest.(check bool) "rejected as error" true
        ((List.hd replies).Protocol.status = Protocol.Error);
      Alcotest.(check int) "no version minted" 0 (Service.Core.version core);
      Service.Core.drain_shutdown core)

let test_service_kcore_cache_by_version () =
  Pool.with_pool ~num_workers:2 (fun pool ->
      (* A triangle has coreness 2 everywhere; cutting it open drops to 1. *)
      let g = csr_of ~n:3 [ (0, 1, 1); (1, 0, 1); (1, 2, 1); (2, 1, 1); (2, 0, 1); (0, 2, 1) ] in
      let core = mk_core ~pool ~landmarks:0 g in
      let k1 = run_queries core [ req 1 (Protocol.Kcore { vertex = 0 }) ] in
      let coreness_of resp =
        match resp.Protocol.result with
        | Some j -> (
            match Json.member "coreness" j with
            | Some (Json.Int k) -> k
            | _ -> Alcotest.fail "no coreness")
        | None -> Alcotest.fail "no result"
      in
      Alcotest.(check int) "triangle coreness" 2 (coreness_of (List.hd k1));
      let batch =
        [| Delta.Delete { src = 2; dst = 0 }; Delta.Delete { src = 0; dst = 2 } |]
      in
      let replies =
        run_queries core
          [ req 2 (Protocol.Mutate { ops = batch }); req 3 (Protocol.Kcore { vertex = 0 }) ]
      in
      (* A stale (version-0) decomposition would still answer 2. *)
      Alcotest.(check int) "post-cut coreness" 1 (coreness_of (List.nth replies 1));
      Service.Core.drain_shutdown core)

let test_service_cancel () =
  Pool.with_pool ~num_workers:1 (fun pool ->
      let g = Testlib.random_weighted_graph 19 ~n:200 ~m:900 ~max_w:6 in
      let core = mk_core ~pool ~landmarks:0 g in
      let replies = Hashtbl.create 4 in
      let submit r =
        Service.Core.submit core r ~reply:(fun resp ->
            Hashtbl.replace replies r.Protocol.id resp)
      in
      (* The cancel arrives while its target is still queued: the target
         must resolve with status cancelled, the unrelated query with ok. *)
      submit (req 1 (Protocol.Ppsp { source = 0; target = 9 }));
      submit (req 2 (Protocol.Ppsp { source = 1; target = 9 }));
      submit (req 10 (Protocol.Cancel { query = 1 }));
      let drained = ref 1 in
      while !drained > 0 do
        drained := Service.Core.process_pending core ~wait:false
      done;
      let status id =
        match Hashtbl.find_opt replies id with
        | Some r -> r.Protocol.status
        | None -> Alcotest.fail (Printf.sprintf "no reply %d" id)
      in
      Alcotest.(check bool) "cancel acked ok" true (status 10 = Protocol.Ok);
      Alcotest.(check bool) "target cancelled" true (status 1 = Protocol.Cancelled);
      Alcotest.(check bool) "bystander unaffected" true (status 2 = Protocol.Ok);
      (* A cancel for an id that is not in flight is acknowledged and
         harmless. *)
      submit (req 11 (Protocol.Cancel { query = 999 }));
      Alcotest.(check bool) "dangling cancel acked" true (status 11 = Protocol.Ok);
      Service.Core.drain_shutdown core)

let test_service_compaction () =
  Pool.with_pool ~num_workers:1 (fun pool ->
      let g = csr_of ~n:4 [ (0, 1, 2); (1, 2, 2); (2, 3, 2) ] in
      let core = mk_core ~pool ~landmarks:0 ~compact_ops:2 g in
      let mutate i =
        req i
          (Protocol.Mutate
             { ops = [| Delta.Reweight { src = 0; dst = 1; weight = 1 + (i mod 5) } |] })
      in
      let replies =
        run_queries core
          [ mutate 1; mutate 2; mutate 3; req 4 (Protocol.Ppsp { source = 0; target = 3 }) ]
      in
      List.iter
        (fun r ->
          Alcotest.(check bool) "reply ok" true (r.Protocol.status = Protocol.Ok))
        replies;
      (* drain_shutdown joins the compactor; afterwards at least one
         compaction must have completed and queries still answer. *)
      Service.Core.drain_shutdown core;
      Alcotest.(check bool) "compacted" true
        (Versioned.compactions (Service.Core.versioned core) >= 1))

(* ---------------- wire round-trips for the new ops ---------------- *)

let test_protocol_mutate_roundtrip () =
  let batch =
    [|
      Delta.Insert { src = 1; dst = 2; weight = 3 };
      Delta.Delete { src = 0; dst = 2 };
      Delta.Reweight { src = 2; dst = 0; weight = 8 };
    |]
  in
  let line = Json.to_string (Protocol.request_to_json (req 7 (Protocol.Mutate { ops = batch }))) in
  (match Protocol.parse_request line with
  | Ok { op = Protocol.Mutate { ops }; id = 7; _ } ->
      Alcotest.(check string) "ops round-trip" (Delta.to_string batch)
        (Delta.to_string ops)
  | _ -> Alcotest.fail ("mutate round-trip: " ^ line));
  let cancel_line =
    Json.to_string (Protocol.request_to_json (req 8 (Protocol.Cancel { query = 3 })))
  in
  (match Protocol.parse_request cancel_line with
  | Ok { op = Protocol.Cancel { query = 3 }; id = 8; _ } -> ()
  | _ -> Alcotest.fail ("cancel round-trip: " ^ cancel_line));
  (* A cancelled response's status survives the wire, and meta.version
     parses leniently in both directions. *)
  let resp =
    Protocol.cancelled
      ~meta:
        {
          Protocol.batch_width = 1;
          rounds = 2;
          wall_ms = 0.5;
          alt_assisted = false;
          version = Some 4;
        }
      ~id:9 Json.Null
  in
  match Protocol.response_of_json (Protocol.response_to_json resp) with
  | Ok r ->
      Alcotest.(check bool) "status cancelled" true (r.Protocol.status = Protocol.Cancelled);
      Alcotest.(check (option int)) "meta version" (Some 4) (meta_version r)
  | Error e -> Alcotest.fail e

(* ---------------- driver ---------------- *)

let () =
  Alcotest.run "dynamic"
    [
      ( "delta",
        [
          Alcotest.test_case "apply semantics" `Quick test_delta_apply;
          Alcotest.test_case "validate" `Quick test_delta_validate;
        ] );
      ( "versioned",
        [
          Alcotest.test_case "commit and pin" `Quick test_versioned_commit_pin;
          Alcotest.test_case "compaction" `Quick test_versioned_compact;
          Alcotest.test_case "snapshot isolation mid-flight" `Quick
            test_snapshot_isolation_mid_flight;
        ] );
      ( "incremental",
        [
          QCheck_alcotest.to_alcotest (qcheck_incremental ~traversal:Schedule.Sparse_push ~workers:1);
          QCheck_alcotest.to_alcotest (qcheck_incremental ~traversal:Schedule.Dense_pull ~workers:2);
          QCheck_alcotest.to_alcotest (qcheck_incremental ~traversal:Schedule.Hybrid ~workers:4);
          Alcotest.test_case "threshold 0 falls back" `Quick test_incremental_fallback;
          Alcotest.test_case "same-batch removal seeds nothing" `Quick
            test_incremental_same_batch_removal;
        ] );
      ( "caches",
        [
          Alcotest.test_case "mutate then push vs pull" `Quick
            test_mutate_then_push_vs_pull;
        ] );
      ( "service",
        [
          Alcotest.test_case "mutate commits and queries move" `Quick
            test_service_mutate;
          Alcotest.test_case "invalid mutate rejected" `Quick
            test_service_mutate_invalid;
          Alcotest.test_case "kcore cache keyed by version" `Quick
            test_service_kcore_cache_by_version;
          Alcotest.test_case "cancel resolves queued target" `Quick
            test_service_cancel;
          Alcotest.test_case "background compaction" `Quick test_service_compaction;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "mutate/cancel round-trip" `Quick
            test_protocol_mutate_roundtrip;
        ] );
    ]
