(* The query service must be boring to its clients: every admitted
   request gets exactly one answer, batched answers match solo oracles,
   deadline misses surface as monotone bounds (never wrong values), the
   ALT heuristic never overestimates, and the documented example
   sessions in docs/SERVICE.md replay verbatim against a real server
   core. *)

module Pool = Parallel.Pool
module Csr = Graphs.Csr
module Edge_list = Graphs.Edge_list
module Handle = Graphs.Handle
module Json = Support.Json
module Protocol = Service.Protocol
module Request_queue = Service.Request_queue

let null = Bucketing.Bucket_order.null_priority

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---------------- request queue ---------------- *)

let test_queue_admission () =
  let q = Request_queue.create ~capacity:3 () in
  Alcotest.(check bool) "push 1" true (Request_queue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Request_queue.try_push q 2);
  Alcotest.(check bool) "push 3" true (Request_queue.try_push q 3);
  Alcotest.(check bool) "overflow rejected" false (Request_queue.try_push q 4);
  Alcotest.(check int) "depth" 3 (Request_queue.length q);
  (* FIFO, bounded drain. *)
  Alcotest.(check (list int)) "first two" [ 1; 2 ]
    (Request_queue.pop_batch q ~max:2 ~wait:false);
  Alcotest.(check bool) "room again" true (Request_queue.try_push q 5);
  Alcotest.(check (list int)) "rest in order" [ 3; 5 ]
    (Request_queue.pop_batch q ~max:10 ~wait:false);
  Alcotest.(check (list int)) "empty, no wait" []
    (Request_queue.pop_batch q ~max:10 ~wait:false);
  Request_queue.close q;
  Alcotest.(check bool) "closed rejects" false (Request_queue.try_push q 6)

(* Runs [f] on its own thread and returns its result, failing the test
   if [f] is still blocked after [watchdog_s]: a lost wake-up fails
   loudly instead of hanging the suite. *)
let watchdog_s = 5.

let with_watchdog what f =
  let result = Atomic.make None in
  ignore
    (Thread.create
       (fun () ->
         Atomic.set result (Some (try Ok (f ()) with e -> Error e)))
       ());
  let deadline = Unix.gettimeofday () +. watchdog_s in
  let rec await () =
    match Atomic.get result with
    | Some (Ok r) -> r
    | Some (Error e) -> raise e
    | None when Unix.gettimeofday () > deadline ->
        Alcotest.failf "%s: still blocked after %.0f s" what watchdog_s
    | None ->
        Thread.delay 0.001;
        await ()
  in
  await ()

let test_queue_cross_thread () =
  let q = Request_queue.create ~capacity:64 () in
  let producer =
    Thread.create
      (fun () ->
        for i = 1 to 50 do
          while not (Request_queue.try_push q i) do
            Thread.yield ()
          done
        done)
      ()
  in
  let got =
    with_watchdog "cross-thread consumer" (fun () ->
        let got = ref [] in
        while List.length !got < 50 do
          got := !got @ Request_queue.pop_batch q ~max:8 ~wait:true
        done;
        !got)
  in
  Thread.join producer;
  Alcotest.(check (list int)) "all items in order" (List.init 50 (fun i -> i + 1)) got

(* I9 (a): with no ticker at all, a consumer blocked on an empty queue
   returns the item another thread pushes — the push itself wakes it. *)
let test_queue_push_wakes_consumer () =
  let q = Request_queue.create ~capacity:4 () in
  let producer =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        ignore (Request_queue.try_push q 42))
      ()
  in
  let got =
    with_watchdog "consumer waiting for a push" (fun () ->
        Request_queue.pop_batch q ~max:4 ~wait:true)
  in
  Thread.join producer;
  Alcotest.(check (list int)) "pushed item" [ 42 ] got

(* (b): [close] ends a blocked wait with [[]]. *)
let test_queue_close_wakes_consumer () =
  let q = Request_queue.create ~capacity:4 () in
  let closer =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        Request_queue.close q)
      ()
  in
  let got =
    with_watchdog "consumer waiting for close" (fun () ->
        Request_queue.pop_batch q ~max:4 ~wait:true)
  in
  Thread.join closer;
  Alcotest.(check (list int)) "closed, empty" [] got

(* I9 (c): a tick ends a blocked wait with [[]]; an item pushed just
   before a tick comes back in the batch that tick ends. The tick thread
   keeps ticking until the consumer returns, since a tick sent before
   the consumer starts waiting is (by (d)) not remembered. *)
let test_queue_tick_wakes_consumer () =
  let q = Request_queue.create ~capacity:4 () in
  let tick_until_done returned =
    Thread.create
      (fun () ->
        while not (Atomic.get returned) do
          Thread.delay 0.01;
          Request_queue.tick q
        done)
      ()
  in
  let returned = Atomic.make false in
  let ticker = tick_until_done returned in
  let got =
    with_watchdog "consumer waiting for a tick" (fun () ->
        let r = Request_queue.pop_batch q ~max:4 ~wait:true in
        Atomic.set returned true;
        r)
  in
  Thread.join ticker;
  Alcotest.(check (list int)) "tick, empty" [] got;
  let producer =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        ignore (Request_queue.try_push q 7);
        Request_queue.tick q)
      ()
  in
  let got =
    with_watchdog "consumer woken by push then tick" (fun () ->
        Request_queue.pop_batch q ~max:4 ~wait:true)
  in
  Thread.join producer;
  Alcotest.(check (list int)) "item pushed before the tick" [ 7 ] got

(* (d): a tick sent while no consumer waits is not remembered, so the
   next blocking pop still waits — here for the item pushed later. *)
let test_queue_stale_tick_ignored () =
  let q = Request_queue.create ~capacity:4 () in
  Request_queue.tick q;
  Request_queue.tick q;
  let producer =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        ignore (Request_queue.try_push q 3))
      ()
  in
  let got =
    with_watchdog "consumer after a stale tick" (fun () ->
        Request_queue.pop_batch q ~max:4 ~wait:true)
  in
  Thread.join producer;
  Alcotest.(check (list int)) "waited for the push" [ 3 ] got

(* ---------------- protocol ---------------- *)

let test_protocol_roundtrip () =
  let cases =
    [
      {
        Protocol.id = 1;
        op = Protocol.Ppsp { source = 3; target = 9 };
        deadline_ms = Some 12.5;
      };
      { Protocol.id = 2; op = Protocol.Kcore { vertex = 0 }; deadline_ms = None };
      { Protocol.id = 7; op = Protocol.Shutdown; deadline_ms = None };
    ]
  in
  List.iter
    (fun req ->
      let line = Json.to_string (Protocol.request_to_json req) in
      match Protocol.parse_request line with
      | Ok req' -> Alcotest.(check bool) ("round-trip " ^ line) true (req = req')
      | Error (_, msg) -> Alcotest.fail (line ^ ": " ^ msg))
    cases

let test_protocol_errors () =
  let check_err line expect_id =
    match Protocol.parse_request line with
    | Ok _ -> Alcotest.fail ("parsed: " ^ line)
    | Error (id, _) -> Alcotest.(check int) ("id of " ^ line) expect_id id
  in
  check_err "not json" (-1);
  check_err {|{"op": "ping"}|} (-1);
  check_err {|{"id": 3, "op": "levitate"}|} 3;
  check_err {|{"id": 4, "op": "ppsp", "source": 1}|} 4;
  check_err {|{"id": 5}|} 5

(* ---------------- in-process core helpers ---------------- *)

let mk_core ?(landmarks = 2) ?(queue_capacity = 256) ?(max_batch = 32)
    ?(default_deadline_ms = 0.) ?(slow_query_ms = 0.) ?graph_file
    ?(symmetric = false) ?(compact_ops = 4096) ~pool csr =
  Service.Core.create ~pool ~handle:(Handle.create csr)
    ~config:
      {
        Service.Config.queue_capacity;
        max_batch;
        default_deadline_ms;
        landmarks;
        schedule = Testlib.schedule ();
        slow_query_ms;
        graph_file;
        symmetric;
        compact_ops;
      }
    ()

let pump core =
  let drained = ref 1 in
  while !drained > 0 do
    drained := Service.Core.process_pending core ~wait:false
  done

let req ?deadline_ms id op = { Protocol.id; op; deadline_ms }

(* Submit everything first (so the batcher actually batches), then pump
   until every reply landed. *)
let run_queries core reqs =
  let replies = Hashtbl.create 16 in
  List.iter
    (fun r ->
      Service.Core.submit core r ~reply:(fun resp ->
          Hashtbl.replace replies r.Protocol.id resp))
    reqs;
  pump core;
  List.map
    (fun r ->
      match Hashtbl.find_opt replies r.Protocol.id with
      | Some resp -> resp
      | None -> Alcotest.fail (Printf.sprintf "request %d unanswered" r.Protocol.id))
    reqs

let result_int field resp =
  match resp.Protocol.result with
  | Some j -> (
      match Json.member field j with
      | Some (Json.Int v) -> Some v
      | Some Json.Null -> None
      | _ -> Alcotest.fail ("bad field " ^ field))
  | None -> Alcotest.fail ("no result for field " ^ field)

let check_status what expected resp =
  Alcotest.(check string)
    (what ^ " status")
    (Protocol.status_to_string expected)
    (Protocol.status_to_string resp.Protocol.status)

(* ---------------- batched answers = solo oracles ---------------- *)

let test_batch_demux_matches_oracles () =
  let csr = Testlib.random_weighted_graph 11 ~n:300 ~m:1500 ~max_w:64 in
  let sym = Csr.of_edge_list (Edge_list.symmetrized (Csr.to_edge_list csr)) in
  let dist0 = Check.Oracle.bellman_ford csr ~source:0 in
  let dist7 = Check.Oracle.bellman_ford csr ~source:7 in
  let widest0 = Algorithms.Widest_path.sequential csr ~source:0 in
  let core_oracle = Testlib.naive_coreness_running_max sym in
  Testlib.with_pools [ 1; 2; 4 ] (fun _w pool ->
      let core = mk_core ~pool csr in
      let targets = [ 1; 50; 99; 123; 222; 299 ] in
      let reqs =
        List.concat_map
          (fun (i, t) ->
            [
              req (100 + i) (Protocol.Ppsp { source = 0; target = t });
              req (200 + i) (Protocol.Ppsp { source = 7; target = t });
              req (300 + i) (Protocol.Widest { source = 0; target = t });
              req (400 + i) (Protocol.Astar { source = 0; target = t });
              req (500 + i) (Protocol.Kcore { vertex = t });
            ])
          (List.mapi (fun i t -> (i, t)) targets)
      in
      let replies = run_queries core reqs in
      List.iter2
        (fun r resp ->
          check_status (string_of_int r.Protocol.id) Protocol.Ok resp;
          let expect_dist oracle t =
            let got = result_int "distance" resp in
            let want = if oracle.(t) = null then None else Some oracle.(t) in
            Alcotest.(check (option int))
              (Printf.sprintf "id %d distance" r.Protocol.id)
              want got
          in
          match r.Protocol.op with
          | Protocol.Ppsp { source = 0; target } -> expect_dist dist0 target
          | Protocol.Ppsp { target; _ } -> expect_dist dist7 target
          | Protocol.Astar { target; _ } -> expect_dist dist0 target
          | Protocol.Widest { target; _ } ->
              Alcotest.(check (option int))
                (Printf.sprintf "id %d capacity" r.Protocol.id)
                (Some widest0.(target))
                (result_int "capacity" resp)
          | Protocol.Kcore { vertex } ->
              Alcotest.(check (option int))
                (Printf.sprintf "id %d coreness" r.Protocol.id)
                (Some core_oracle.(vertex))
                (result_int "coreness" resp)
          | _ -> ())
        reqs replies;
      (* The second kcore round must be answered from the cache. *)
      let before =
        Observe.Metrics.counter_value
          (Observe.Metrics.counter Observe.Metrics.default
             "service.kcore.cache_hits")
      in
      let cached =
        run_queries core [ req 900 (Protocol.Kcore { vertex = 42 }) ]
      in
      check_status "cached kcore" Protocol.Ok (List.hd cached);
      let after =
        Observe.Metrics.counter_value
          (Observe.Metrics.counter Observe.Metrics.default
             "service.kcore.cache_hits")
      in
      Alcotest.(check bool) "kcore cache hit counted" true (after > before))

(* ---------------- deadlines: partial, never wrong ---------------- *)

let test_expired_deadline_is_partial_null () =
  let csr = Testlib.random_weighted_graph 3 ~n:200 ~m:1000 ~max_w:32 in
  Pool.with_pool ~num_workers:2 (fun pool ->
      let core = mk_core ~pool csr in
      (* A microscopic budget is always spent before the batcher runs:
         the reply must be partial with the null bound. *)
      let resp =
        List.hd
          (run_queries core
             [
               req ~deadline_ms:0.001 1 (Protocol.Ppsp { source = 0; target = 150 });
             ])
      in
      check_status "expired ppsp" Protocol.Partial resp;
      Alcotest.(check (option int)) "null distance" None (result_int "distance" resp);
      let resp =
        List.hd
          (run_queries core
             [
               req ~deadline_ms:0.001 2
                 (Protocol.Widest { source = 0; target = 150 });
             ])
      in
      check_status "expired widest" Protocol.Partial resp;
      Alcotest.(check (option int)) "zero capacity" (Some 0)
        (result_int "capacity" resp))

let test_partial_results_are_monotone_bounds () =
  (* Sweep deadlines from instant to generous: whatever the status, a
     finite distance must be a real upper bound and a capacity a real
     lower bound; exact answers must match the oracle exactly. *)
  let csr = Testlib.random_weighted_graph 17 ~n:400 ~m:2400 ~max_w:100 in
  let dist = Check.Oracle.bellman_ford csr ~source:0 in
  let widest = Algorithms.Widest_path.sequential csr ~source:0 in
  Pool.with_pool ~num_workers:2 (fun pool ->
      let core = mk_core ~pool csr in
      List.iteri
        (fun i deadline_ms ->
          let target = 37 * (i + 1) mod 400 in
          let resp =
            List.hd
              (run_queries core
                 [ req ~deadline_ms (1000 + i) (Protocol.Ppsp { source = 0; target }) ])
          in
          (match (resp.Protocol.status, result_int "distance" resp) with
          | Protocol.Ok, got ->
              Alcotest.(check (option int))
                "exact distance"
                (if dist.(target) = null then None else Some dist.(target))
                got
          | Protocol.Partial, Some d ->
              Alcotest.(check bool)
                (Printf.sprintf "partial distance %d is an upper bound of %d" d
                   dist.(target))
                true
                (dist.(target) <> null && d >= dist.(target))
          | Protocol.Partial, None -> () (* nothing learned: fine *)
          | _ -> Alcotest.fail "unexpected status");
          let resp =
            List.hd
              (run_queries core
                 [
                   req ~deadline_ms (2000 + i) (Protocol.Widest { source = 0; target });
                 ])
          in
          match (resp.Protocol.status, result_int "capacity" resp) with
          | Protocol.Ok, got ->
              Alcotest.(check (option int)) "exact capacity" (Some widest.(target)) got
          | Protocol.Partial, Some c ->
              Alcotest.(check bool)
                (Printf.sprintf "partial capacity %d is a lower bound of %d" c
                   widest.(target))
                true
                (c <= widest.(target))
          | _ -> Alcotest.fail "unexpected widest status")
        [ 0.001; 0.05; 0.3; 1.0; 5.0; 50.0 ])

let test_timed_out_kcore_not_cached () =
  let csr = Testlib.symmetric_random 5 ~n:400 ~m:3000 in
  let oracle = Testlib.naive_coreness_running_max csr in
  Pool.with_pool ~num_workers:2 (fun pool ->
      let core = mk_core ~pool csr in
      let resp =
        List.hd
          (run_queries core
             [ req ~deadline_ms:0.001 1 (Protocol.Kcore { vertex = 9 }) ])
      in
      check_status "expired kcore" Protocol.Partial resp;
      (* The truncated peel must not have been cached: the next query
         (no deadline) runs the real decomposition and is exact. *)
      let resp =
        List.hd (run_queries core [ req 2 (Protocol.Kcore { vertex = 9 }) ])
      in
      check_status "fresh kcore" Protocol.Ok resp;
      Alcotest.(check (option int)) "exact coreness" (Some oracle.(9))
        (result_int "coreness" resp))

(* ---------------- admission control ---------------- *)

let test_queue_overflow_rejects () =
  let csr = Testlib.random_weighted_graph 7 ~n:50 ~m:200 ~max_w:8 in
  Pool.with_pool ~num_workers:1 (fun pool ->
      let core = mk_core ~queue_capacity:4 ~pool csr in
      let statuses = ref [] in
      for i = 1 to 10 do
        Service.Core.submit core
          (req i (Protocol.Ppsp { source = 0; target = 1 }))
          ~reply:(fun resp -> statuses := resp.Protocol.status :: !statuses)
      done;
      (* Rejections are synchronous: 6 already answered, 4 queued. *)
      let rejected_now =
        List.length (List.filter (( = ) Protocol.Rejected) !statuses)
      in
      Alcotest.(check int) "overflow rejected synchronously" 6 rejected_now;
      Alcotest.(check int) "admitted are pending" 4 (Service.Core.pending core);
      pump core;
      Alcotest.(check int) "everyone answered" 10 (List.length !statuses);
      Alcotest.(check int) "admitted answered ok" 4
        (List.length (List.filter (( = ) Protocol.Ok) !statuses)))

let test_out_of_range_is_error () =
  let csr = Testlib.random_weighted_graph 7 ~n:50 ~m:200 ~max_w:8 in
  Pool.with_pool ~num_workers:1 (fun pool ->
      let core = mk_core ~pool csr in
      let resp = ref None in
      Service.Core.submit core
        (req 1 (Protocol.Ppsp { source = 0; target = 50 }))
        ~reply:(fun r -> resp := Some r);
      match !resp with
      | Some r ->
          check_status "range error" Protocol.Error r;
          Alcotest.(check bool) "mentions range" true
            (match r.Protocol.error with
            | Some msg -> contains ~needle:"out of range" msg
            | None -> false)
      | None -> Alcotest.fail "validation must answer synchronously")

(* ---------------- ALT: admissible, consistent with ppsp ---------------- *)

let qcheck_alt_heuristic_admissible =
  QCheck.Test.make ~name:"ALT heuristic never overestimates d(v, target)"
    ~count:25
    QCheck.(triple (int_range 20 120) (int_range 40 400) small_nat)
    (fun (n, m, salt) ->
      let csr = Testlib.random_weighted_graph (salt + 23) ~n ~m ~max_w:50 in
      let handle = Handle.create csr in
      Pool.with_pool ~num_workers:2 (fun pool ->
          let alt =
            Service.Alt.create ~pool ~handle ~schedule:(Testlib.schedule ())
              ~landmarks:3 ()
          in
          ignore (Service.Alt.warm_all alt);
          let target = salt * 7 mod n in
          (* d(v, target) for every v = SSSP from target on the transpose. *)
          let to_target =
            Check.Oracle.bellman_ford (Handle.transpose_csr handle) ~source:target
          in
          match Service.Alt.heuristic alt ~target with
          | None -> true (* no warm landmark: vacuously admissible *)
          | Some h ->
              let ok = ref true in
              for v = 0 to n - 1 do
                if to_target.(v) <> null && h v > to_target.(v) then ok := false
              done;
              !ok))

let qcheck_astar_with_alt_matches_ppsp =
  QCheck.Test.make ~name:"astar over warm ALT cache = ppsp distances" ~count:20
    QCheck.(pair (int_range 20 150) small_nat)
    (fun (n, salt) ->
      let csr = Testlib.random_weighted_graph (salt + 41) ~n ~m:(4 * n) ~max_w:30 in
      Pool.with_pool ~num_workers:2 (fun pool ->
          let core = mk_core ~landmarks:3 ~pool csr in
          ignore (Service.Core.warm_alt core);
          let dist = Check.Oracle.bellman_ford csr ~source:0 in
          let targets = [ n - 1; n / 2; 1 mod n ] in
          let reqs =
            List.mapi
              (fun i t -> req (i + 1) (Protocol.Astar { source = 0; target = t }))
              targets
          in
          let replies = run_queries core reqs in
          List.for_all2
            (fun t resp ->
              resp.Protocol.status = Protocol.Ok
              && result_int "distance" resp
                 = (if dist.(t) = null then None else Some dist.(t)))
            targets replies))

(* ---------------- the socket server under concurrent clients -------- *)

let tmp_socket_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "svc_test_%d_%d.sock" (Unix.getpid ()) !counter)

let send_line fd line =
  let bytes = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length bytes in
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write fd bytes !written (len - !written)
  done

(* One client: send [queries], read that many responses, return them
   decoded and indexed by id. *)
let run_client path queries =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
  let ic = Unix.in_channel_of_descr fd in
  List.iter (fun q -> send_line fd (Json.to_string (Protocol.request_to_json q))) queries;
  let replies = Hashtbl.create 16 in
  for _ = 1 to List.length queries do
    let line = input_line ic in
    match Result.bind (Json.of_string line) Protocol.response_of_json with
    | Ok resp -> Hashtbl.replace replies resp.Protocol.rid resp
    | Error msg -> Alcotest.fail (Printf.sprintf "bad response %S: %s" line msg)
  done;
  Unix.close fd;
  replies

(* A 2 MiB line with no newline: the reader stops at its bound, replies
   one typed error and drops only that connection; the next client is
   served normally. *)
let test_oversize_line_rejected () =
  let csr = Testlib.random_weighted_graph 30 ~n:50 ~m:200 ~max_w:9 in
  Pool.with_pool ~num_workers:1 (fun pool ->
      let path = tmp_socket_path () in
      let server =
        Service.Server.start ~core:(mk_core ~pool csr)
          ~address:(Service.Server.Unix_sock path) ()
      in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
      let chunk = Bytes.make 65536 'x' in
      (* The server closes after its bound, so late writes may fail. *)
      (try
         for _ = 1 to 32 do
           ignore (Unix.write fd chunk 0 (Bytes.length chunk))
         done
       with Unix.Unix_error _ -> ());
      let line = input_line (Unix.in_channel_of_descr fd) in
      (match Result.bind (Json.of_string line) Protocol.response_of_json with
      | Ok resp -> check_status "oversize line" Protocol.Error resp
      | Error msg -> Alcotest.failf "bad response %S: %s" line msg);
      Unix.close fd;
      let replies = run_client path [ req 1 Protocol.Ping ] in
      check_status "next client served" Protocol.Ok (Hashtbl.find replies 1);
      let replies = run_client path [ req 2 Protocol.Shutdown ] in
      check_status "shutdown" Protocol.Ok (Hashtbl.find replies 2);
      Service.Server.wait server)

let test_concurrent_clients () =
  let csr = Testlib.random_weighted_graph 29 ~n:400 ~m:2400 ~max_w:64 in
  let dist = Array.init 8 (fun s -> Check.Oracle.bellman_ford csr ~source:s) in
  Testlib.with_pools [ 1; 2; 4 ] (fun _w pool ->
      let core = mk_core ~pool csr in
      let path = tmp_socket_path () in
      let server =
        Service.Server.start ~core ~address:(Service.Server.Unix_sock path) ()
      in
      let num_clients = 4 in
      let failures = Atomic.make 0 in
      let clients =
        List.init num_clients (fun c ->
            Thread.create
              (fun () ->
                try
                  let queries =
                    List.init 12 (fun i ->
                        let t = ((c + 1) * 31 * (i + 1)) mod 400 in
                        req
                          ((c * 1000) + i)
                          (if i mod 3 = 0 then
                             Protocol.Astar { source = c; target = t }
                           else Protocol.Ppsp { source = c; target = t }))
                  in
                  let replies = run_client path queries in
                  List.iter
                    (fun q ->
                      let resp = Hashtbl.find replies q.Protocol.id in
                      let target =
                        match q.Protocol.op with
                        | Protocol.Ppsp { target; _ } | Protocol.Astar { target; _ }
                          ->
                            target
                        | _ -> assert false
                      in
                      let want =
                        if dist.(c).(target) = null then None
                        else Some dist.(c).(target)
                      in
                      if
                        resp.Protocol.status <> Protocol.Ok
                        || result_int "distance" resp <> want
                      then Atomic.incr failures)
                    queries
                with _ -> Atomic.incr failures)
              ())
      in
      List.iter Thread.join clients;
      (* Orderly shutdown through the protocol. *)
      let replies = run_client path [ req 999999 Protocol.Shutdown ] in
      check_status "shutdown" Protocol.Ok (Hashtbl.find replies 999999);
      Service.Server.wait server;
      Alcotest.(check int) "zero wrong answers across clients" 0
        (Atomic.get failures);
      Alcotest.(check bool) "socket removed" false (Sys.file_exists path))

(* ---------------- docs/SERVICE.md sessions replay ---------------- *)

(* dune runtest runs in test/, dune exec in the workspace root. *)
let service_md =
  if Sys.file_exists "../docs/SERVICE.md" then "../docs/SERVICE.md"
  else "docs/SERVICE.md"

type fenced = { lang : string; body : string list }

let fenced_blocks path =
  let ic = open_in path in
  let blocks = ref [] in
  let current = ref None in
  (try
     while true do
       let line = input_line ic in
       match !current with
       | None ->
           if String.length line >= 3 && String.sub line 0 3 = "```" then
             let lang = String.trim (String.sub line 3 (String.length line - 3)) in
             if lang <> "" then current := Some { lang; body = [] }
             else current := Some { lang = "_"; body = [] }
       | Some b ->
           if String.trim line = "```" then begin
             blocks := { b with body = List.rev b.body } :: !blocks;
             current := None
           end
           else current := Some { b with body = line :: b.body }
     done
   with End_of_file -> close_in ic);
  List.rev !blocks

let docs_graph blocks =
  match List.find_opt (fun b -> b.lang = "graph") blocks with
  | None -> Alcotest.fail "SERVICE.md has no ```graph block"
  | Some b ->
      let edges =
        List.filter_map
          (fun line ->
            let line = String.trim line in
            if line = "" || line.[0] = '#' then None
            else
              match
                String.split_on_char ' ' line |> List.filter (( <> ) "")
              with
              | [ s; d; w ] ->
                  Some
                    {
                      Edge_list.src = int_of_string s;
                      dst = int_of_string d;
                      weight = int_of_string w;
                    }
              | _ -> Alcotest.fail ("bad graph line in SERVICE.md: " ^ line))
          b.body
      in
      let num_vertices =
        1 + List.fold_left (fun a e -> max a (max e.Edge_list.src e.Edge_list.dst)) 0 edges
      in
      Csr.of_edge_list (Edge_list.create ~num_vertices (Array.of_list edges))

let session_pairs blocks =
  List.concat_map
    (fun b ->
      if b.lang <> "jsonl" then []
      else begin
        let pairs = ref [] in
        let pending = ref None in
        List.iter
          (fun line ->
            let line = String.trim line in
            let strip p = String.sub line (String.length p) (String.length line - String.length p) in
            if String.length line > 4 && String.sub line 0 4 = "--> " then begin
              (match !pending with
              | Some r -> Alcotest.fail ("unanswered request in SERVICE.md: " ^ r)
              | None -> ());
              pending := Some (strip "--> ")
            end
            else if String.length line > 4 && String.sub line 0 4 = "<-- " then
              match !pending with
              | Some r ->
                  pairs := (r, strip "<-- ") :: !pairs;
                  pending := None
              | None -> Alcotest.fail ("response without request: " ^ line))
          b.body;
        (match !pending with
        | Some r -> Alcotest.fail ("trailing unanswered request: " ^ r)
        | None -> ());
        List.rev !pairs
      end)
    blocks

let strip_meta = function
  | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "meta") fields)
  | j -> j

let test_service_md_sessions_roundtrip () =
  let blocks = fenced_blocks service_md in
  let csr = docs_graph blocks in
  let pairs = session_pairs blocks in
  Alcotest.(check bool) "SERVICE.md documents sessions" true (List.length pairs > 10);
  Pool.with_pool ~num_workers:2 (fun pool ->
      (* §8: the test server runs with --landmarks 2. *)
      let core = mk_core ~landmarks:2 ~pool csr in
      List.iter
        (fun (request_line, expected_line) ->
          let expected =
            match Json.of_string expected_line with
            | Ok j -> strip_meta j
            | Error e ->
                Alcotest.fail
                  (Printf.sprintf "SERVICE.md bad response JSON %S: %s"
                     expected_line e)
          in
          let actual =
            match Protocol.parse_request request_line with
            | Error (id, msg) -> Protocol.error ~id msg
            | Ok r -> List.hd (run_queries core [ r ])
          in
          let actual = strip_meta (Protocol.response_to_json actual) in
          if not (Json.equal expected actual) then
            Alcotest.fail
              (Printf.sprintf "SERVICE.md drifted for %s\n  documented: %s\n  actual:     %s"
                 request_line (Json.to_string expected) (Json.to_string actual)))
        pairs;
      Alcotest.(check bool) "session 5 requested shutdown" true
        (Service.Core.shutdown_requested core))

(* ---------------- query-scoped telemetry ---------------- *)

module Log = Observe.Log
module Metrics = Observe.Metrics

(* Capture log records in memory for the duration of [f], at Debug so
   per-query attribution records land too. *)
let with_log_capture f =
  let buf = Buffer.create 1024 in
  Log.set_writer (Some (Buffer.add_string buf));
  Log.set_level Log.Debug;
  Fun.protect
    ~finally:(fun () ->
      Log.set_writer None;
      Log.set_level Log.Info)
    (fun () -> f ())
  |> fun r ->
  Log.flush ();
  ( r,
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun l ->
           match Json.of_string l with
           | Ok j -> j
           | Error e -> Alcotest.fail (Printf.sprintf "bad log line %S: %s" l e))
  )

let log_int field j =
  match Json.member field j with Some (Json.Int v) -> v | _ -> -1

let log_str field j =
  match Json.member field j with Some (Json.String s) -> s | _ -> ""

let records_of_event name =
  List.filter (fun j -> log_str "event" j = name)

let counter_value name =
  Metrics.counter_value (Metrics.counter Metrics.default name)

(* Satellite (c): a coalesced 3-query batch yields three attribution
   records whose per-member round counts are consistent with the
   engine's own Stats — every member at most the run total, the last
   resolved member exactly the total (the engine stops the moment the
   pending set empties, so no rounds run past the final resolution). *)
let test_batch_attribution_records () =
  let csr = Testlib.random_weighted_graph 13 ~n:300 ~m:1500 ~max_w:64 in
  Testlib.with_pools [ 1; 2; 4 ] (fun w pool ->
      let core = mk_core ~pool csr in
      Observe.Span.set_enabled true;
      let before = Metrics.snapshot Metrics.default in
      let (), records =
        with_log_capture (fun () ->
            Observe.Span.set_enabled true;
            let replies =
              run_queries core
                [
                  req 1 (Protocol.Ppsp { source = 0; target = 299 });
                  req 2 (Protocol.Ppsp { source = 0; target = 123 });
                  req 3 (Protocol.Ppsp { source = 0; target = 7 });
                ]
            in
            List.iter (check_status "batched" Protocol.Ok) replies)
      in
      Observe.Span.set_enabled false;
      let d = Metrics.diff ~earlier:before (Metrics.snapshot Metrics.default) in
      let engine_rounds =
        match List.assoc_opt "engine.rounds" d.Metrics.counters with
        | Some r -> r
        | None -> Alcotest.fail "no engine.rounds counter from the batch run"
      in
      let records = records_of_event "service.query.done" records in
      Alcotest.(check int)
        (Printf.sprintf "three attribution records (%d workers)" w)
        3 (List.length records);
      let batches =
        List.sort_uniq compare (List.map (log_int "batch") records)
      in
      Alcotest.(check int) "one coalesced batch" 1 (List.length batches);
      let queries = List.sort_uniq compare (List.map (log_int "query") records) in
      Alcotest.(check int) "member query ids distinct" 3 (List.length queries);
      List.iter
        (fun r ->
          Alcotest.(check int) "batch width" 3 (log_int "batch_width" r);
          Alcotest.(check int) "workers field" w (log_int "workers" r);
          let rounds = log_int "rounds" r in
          Alcotest.(check bool)
            (Printf.sprintf "member rounds %d within engine total %d" rounds
               engine_rounds)
            true
            (rounds >= 0 && rounds <= engine_rounds);
          (match Ordered.Schedule.of_string (log_str "schedule" r) with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("schedule field does not parse: " ^ e));
          Alcotest.(check bool) "edges attributed" true
            (log_int "edges_relaxed" r >= 0))
        records;
      let max_rounds =
        List.fold_left (fun a r -> max a (log_int "rounds" r)) 0 records
      in
      Alcotest.(check int) "last member attributed the full run" engine_rounds
        max_rounds)

(* Satellite (d) + the slow-query acceptance: a deadline-missed query
   emits a Warn record whose repro line parses and re-executes cleanly
   through the check_runner repro path; a threshold-crossing query is
   recorded too. *)
let test_slow_query_record_and_replay () =
  let csr = Testlib.random_weighted_graph 19 ~n:300 ~m:1800 ~max_w:64 in
  let graph_file = Filename.temp_file "svc_slow" ".el" in
  Graphs.Graph_io.write_edge_list graph_file (Csr.to_edge_list csr);
  Fun.protect
    ~finally:(fun () -> Sys.remove graph_file)
    (fun () ->
      Pool.with_pool ~num_workers:2 (fun pool ->
          let core = mk_core ~pool ~graph_file ~slow_query_ms:0.000001 csr in
          let slow_before = counter_value "service.slow_queries" in
          let (), records =
            with_log_capture (fun () ->
                (* One deadline miss (partial) and one merely-slow ok
                   query — both must be recorded. *)
                ignore
                  (run_queries core
                     [
                       req ~deadline_ms:0.001 1
                         (Protocol.Ppsp { source = 0; target = 150 });
                     ]);
                ignore
                  (run_queries core
                     [ req 2 (Protocol.Widest { source = 0; target = 9 }) ]))
          in
          let slow = records_of_event "service.slow_query" records in
          Alcotest.(check int) "both queries recorded as slow" 2
            (List.length slow);
          Alcotest.(check int) "slow-query counter tracks" 2
            (counter_value "service.slow_queries" - slow_before);
          let miss =
            List.find (fun r -> log_str "status" r = "partial") slow
          in
          Alcotest.(check bool) "negative slack on the miss" true
            (match Json.member "deadline_slack_ms" miss with
            | Some (Json.Float s) -> s < 0.
            | _ -> false);
          List.iter
            (fun r ->
              let line = log_str "repro" r in
              Alcotest.(check bool) "repro line present" true (line <> "");
              match Check.Query_repro.of_line line with
              | Error e ->
                  Alcotest.fail
                    (Printf.sprintf "repro %S does not parse: %s" line e)
              | Ok repro -> (
                  Alcotest.(check string) "repro names the served file"
                    graph_file repro.Check.Query_repro.graph_file;
                  match Check.Query_repro.run repro with
                  | Ok () -> ()
                  | Error e ->
                      Alcotest.fail
                        (Printf.sprintf "repro %S does not replay: %s" line e)))
            slow))

(* Fast queries with no threshold configured stay out of the slow log
   but still land as Debug attribution. *)
let test_no_threshold_no_slow_records () =
  let csr = Testlib.random_weighted_graph 23 ~n:60 ~m:240 ~max_w:8 in
  Pool.with_pool ~num_workers:1 (fun pool ->
      let core = mk_core ~pool csr in
      let (), records =
        with_log_capture (fun () ->
            ignore
              (run_queries core [ req 1 (Protocol.Ppsp { source = 0; target = 5 }) ]))
      in
      Alcotest.(check int) "no slow records" 0
        (List.length (records_of_event "service.slow_query" records));
      Alcotest.(check int) "one attribution record" 1
        (List.length (records_of_event "service.query.done" records)))

let log_float field j =
  match Json.member field j with
  | Some (Json.Float v) -> v
  | Some (Json.Int v) -> float_of_int v
  | _ -> Alcotest.failf "record without %s: %s" field (Json.to_string j)

(* Every attribution record splits its latency into nested intervals:
   the wake-up (admission to pop) lies inside the queue wait (admission
   to group start), which lies inside the wall time. *)
let test_wake_within_queue_wait () =
  let csr = Testlib.random_weighted_graph 31 ~n:120 ~m:600 ~max_w:16 in
  Pool.with_pool ~num_workers:1 (fun pool ->
      let core = mk_core ~pool csr in
      let (), records =
        with_log_capture (fun () ->
            ignore
              (run_queries core
                 [
                   req 1 (Protocol.Ppsp { source = 0; target = 50 });
                   req 2 (Protocol.Ppsp { source = 0; target = 51 });
                   req 3 (Protocol.Astar { source = 1; target = 60 });
                   req 4 (Protocol.Widest { source = 2; target = 70 });
                   req 5 (Protocol.Kcore { vertex = 3 });
                 ]))
      in
      let records = records_of_event "service.query.done" records in
      Alcotest.(check int) "one record per query" 5 (List.length records);
      List.iter
        (fun r ->
          let wake = log_float "wake_ms" r
          and queue_wait = log_float "queue_wait_ms" r
          and wall = log_float "wall_ms" r in
          if not (0. <= wake && wake <= queue_wait && queue_wait <= wall) then
            Alcotest.failf "wake %g, queue wait %g, wall %g not nested" wake
              queue_wait wall)
        records)

(* Engine set-up — the O(n) distance array and queue a point group
   builds — is batch run time, not queue wait. On a 300x300 grid, with
   width-1 batches and a target next to the source, the gap between
   queue_wait_ms (admission to group start) and wake_ms (admission to
   pop) stays under half of what building the distance array alone
   costs. Minima over five queries and five builds keep host noise out. *)
let test_setup_not_queue_wait () =
  let side = 300 in
  let el, _ =
    Graphs.Generators.road_grid ~rng:(Support.Rng.create 41) ~rows:side
      ~cols:side ()
  in
  let csr = Csr.of_edge_list el in
  let n = Csr.num_vertices csr in
  let reps = 5 in
  let setup_ms =
    List.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (Parallel.Atomic_array.make n null));
        (Unix.gettimeofday () -. t0) *. 1000.)
    |> List.fold_left Float.min infinity
  in
  Pool.with_pool ~num_workers:1 (fun pool ->
      let core = mk_core ~landmarks:0 ~pool csr in
      let (), records =
        with_log_capture (fun () ->
            for i = 1 to reps do
              let source = (i * side) + i in
              ignore
                (run_queries core
                   [ req i (Protocol.Ppsp { source; target = source + 1 }) ])
            done)
      in
      let records = records_of_event "service.query.done" records in
      Alcotest.(check int) "one record per query" reps (List.length records);
      let gap_ms =
        List.fold_left
          (fun acc r ->
            Float.min acc (log_float "queue_wait_ms" r -. log_float "wake_ms" r))
          infinity records
      in
      if gap_ms >= setup_ms /. 2. then
        Alcotest.failf
          "queue wait exceeds the wake-up by %.3f ms; one distance array \
           costs %.3f ms"
          gap_ms setup_ms)

(* I6 after an idle spell: a server that sat idle for a second (its
   batcher asleep on the queue, woken only by ticks) answers every
   request it admitted — replies or "server stopping" rejections —
   when it is stopped while they are in flight. *)
let test_idle_server_answers_admitted () =
  let csr = Testlib.random_weighted_graph 37 ~n:200 ~m:1000 ~max_w:32 in
  Pool.with_pool ~num_workers:1 (fun pool ->
      let path = tmp_socket_path () in
      let server =
        Service.Server.start ~core:(mk_core ~pool csr)
          ~address:(Service.Server.Unix_sock path) ()
      in
      Thread.delay 1.0;
      let admitted_before = counter_value "service.requests" in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
      let n = 40 in
      for i = 1 to n do
        send_line fd
          (Json.to_string
             (Protocol.request_to_json
                (req i (Protocol.Ppsp { source = i mod 5; target = (7 * i) mod 200 }))))
      done;
      let ic = Unix.in_channel_of_descr fd in
      let first = input_line ic in
      Service.Server.stop server;
      let replies = Hashtbl.create n in
      let record line =
        match Result.bind (Json.of_string line) Protocol.response_of_json with
        | Ok resp ->
            if Hashtbl.mem replies resp.Protocol.rid then
              Alcotest.failf "two replies for id %d" resp.Protocol.rid;
            Hashtbl.replace replies resp.Protocol.rid resp
        | Error msg -> Alcotest.failf "bad response %S: %s" line msg
      in
      record first;
      (try
         while true do
           record (input_line ic)
         done
       with End_of_file -> ());
      Unix.close fd;
      let admitted = counter_value "service.requests" - admitted_before in
      Alcotest.(check bool) "some requests admitted" true (admitted >= 1);
      Alcotest.(check int) "one reply per admitted request" admitted
        (Hashtbl.length replies);
      Hashtbl.iter
        (fun _ resp ->
          if
            resp.Protocol.status <> Protocol.Ok
            && resp.Protocol.status <> Protocol.Rejected
          then Alcotest.failf "reply %d neither ok nor rejected" resp.Protocol.rid)
        replies)

(* ---------------- live stats streaming ---------------- *)

let test_subscribe_stream () =
  let csr = Testlib.random_weighted_graph 7 ~n:50 ~m:200 ~max_w:8 in
  Pool.with_pool ~num_workers:1 (fun pool ->
      let core = mk_core ~pool csr in
      (* Some traffic first, so the percentiles have observations. *)
      ignore (run_queries core [ req 1 (Protocol.Ppsp { source = 0; target = 5 }) ]);
      let mu = Mutex.create () in
      let pushes = ref [] in
      Service.Core.submit core
        (req 2 (Protocol.Subscribe { interval_ms = 20.; updates = 3 }))
        ~reply:(fun r ->
          Mutex.lock mu;
          pushes := r :: !pushes;
          Mutex.unlock mu);
      pump core;
      let count () =
        Mutex.lock mu;
        let n = List.length !pushes in
        Mutex.unlock mu;
        n
      in
      let deadline = Unix.gettimeofday () +. 10. in
      while count () < 3 && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      Service.Core.drain_shutdown core;
      let pushes = List.rev !pushes in
      Alcotest.(check int) "three pushes for one request" 3 (List.length pushes);
      List.iteri
        (fun i r ->
          check_status (Printf.sprintf "push %d" (i + 1)) Protocol.Ok r;
          Alcotest.(check (option int)) "sequence numbers" (Some (i + 1))
            (result_int "seq" r);
          match r.Protocol.result with
          | None -> Alcotest.fail "push without result"
          | Some j ->
              Alcotest.(check bool) "snapshot shape" true
                (Json.member "queue" j <> None
                && Json.member "counters" j <> None
                && Json.member "latency" j <> None))
        pushes;
      (* The percentiles carry the earlier request's latency. *)
      match (List.hd pushes).Protocol.result with
      | Some j -> (
          match Json.member "latency" j with
          | Some lat -> (
              match Json.member "request" lat with
              | Some reqh ->
                  Alcotest.(check bool) "request percentile count > 0" true
                    (log_int "count" reqh > 0)
              | None -> Alcotest.fail "no request percentiles")
          | None -> Alcotest.fail "no latency object")
      | None -> assert false)

let test_subscribe_validation () =
  let csr = Testlib.random_weighted_graph 7 ~n:50 ~m:200 ~max_w:8 in
  Pool.with_pool ~num_workers:1 (fun pool ->
      let core = mk_core ~pool csr in
      let resp = ref None in
      Service.Core.submit core
        (req 1 (Protocol.Subscribe { interval_ms = -5.; updates = 0 }))
        ~reply:(fun r -> resp := Some r);
      (match !resp with
      | Some r -> check_status "negative interval" Protocol.Error r
      | None -> Alcotest.fail "validation must answer synchronously");
      Service.Core.submit core
        (req 2 (Protocol.Subscribe { interval_ms = 10.; updates = 1_000_000 }))
        ~reply:(fun r -> resp := Some r);
      match !resp with
      | Some r -> check_status "absurd updates" Protocol.Error r
      | None -> Alcotest.fail "validation must answer synchronously")

(* The stats reply carries the derived percentiles alongside the raw
   histograms. *)
let test_stats_latency_percentiles () =
  let csr = Testlib.random_weighted_graph 7 ~n:50 ~m:200 ~max_w:8 in
  Pool.with_pool ~num_workers:1 (fun pool ->
      let core = mk_core ~pool csr in
      ignore (run_queries core [ req 1 (Protocol.Ppsp { source = 0; target = 5 }) ]);
      let resp = List.hd (run_queries core [ req 2 Protocol.Stats ]) in
      check_status "stats" Protocol.Ok resp;
      match resp.Protocol.result with
      | None -> Alcotest.fail "no stats result"
      | Some j -> (
          match Json.member "latency" j with
          | None -> Alcotest.fail "stats reply has no latency percentiles"
          | Some lat -> (
              match Json.member "request" lat with
              | Some h ->
                  Alcotest.(check bool) "p50 <= p99" true
                    (match
                       (Json.member "p50_ms" h, Json.member "p99_ms" h)
                     with
                    | Some (Json.Float p50), Some (Json.Float p99) ->
                        p50 <= p99 && p50 >= 0.
                    | _ -> false)
              | None -> Alcotest.fail "no request histogram percentiles")))

let () =
  Alcotest.run "service"
    [
      ( "queue",
        [
          Alcotest.test_case "bounded admission" `Quick test_queue_admission;
          Alcotest.test_case "cross-thread" `Quick test_queue_cross_thread;
          Alcotest.test_case "push wakes a blocked consumer" `Quick
            test_queue_push_wakes_consumer;
          Alcotest.test_case "close wakes a blocked consumer" `Quick
            test_queue_close_wakes_consumer;
          Alcotest.test_case "tick wakes a blocked consumer" `Quick
            test_queue_tick_wakes_consumer;
          Alcotest.test_case "stale tick is not remembered" `Quick
            test_queue_stale_tick_ignored;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "parse errors keep ids" `Quick test_protocol_errors;
        ] );
      ( "batching",
        [
          Alcotest.test_case "demux matches oracles" `Slow
            test_batch_demux_matches_oracles;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "expired -> partial null" `Quick
            test_expired_deadline_is_partial_null;
          Alcotest.test_case "partials are monotone bounds" `Slow
            test_partial_results_are_monotone_bounds;
          Alcotest.test_case "timed-out kcore not cached" `Quick
            test_timed_out_kcore_not_cached;
        ] );
      ( "admission",
        [
          Alcotest.test_case "overflow rejects" `Quick test_queue_overflow_rejects;
          Alcotest.test_case "out of range errors" `Quick test_out_of_range_is_error;
        ] );
      ( "alt",
        [
          QCheck_alcotest.to_alcotest qcheck_alt_heuristic_admissible;
          QCheck_alcotest.to_alcotest qcheck_astar_with_alt_matches_ppsp;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "batch demux attribution on 1/2/4 workers" `Slow
            test_batch_attribution_records;
          Alcotest.test_case "slow-query records replay via repro lines" `Quick
            test_slow_query_record_and_replay;
          Alcotest.test_case "no threshold, no slow records" `Quick
            test_no_threshold_no_slow_records;
          Alcotest.test_case "wake_ms within queue_wait_ms within wall_ms"
            `Quick test_wake_within_queue_wait;
          Alcotest.test_case "engine set-up is not queue wait" `Quick
            test_setup_not_queue_wait;
        ] );
      ( "subscribe",
        [
          Alcotest.test_case "stream pushes n snapshots" `Quick
            test_subscribe_stream;
          Alcotest.test_case "validation" `Quick test_subscribe_validation;
          Alcotest.test_case "stats reply carries percentiles" `Quick
            test_stats_latency_percentiles;
        ] );
      ( "server",
        [
          Alcotest.test_case "4 concurrent clients, zero wrong answers" `Slow
            test_concurrent_clients;
          Alcotest.test_case "oversize line gets an error reply" `Quick
            test_oversize_line_rejected;
          Alcotest.test_case "idle server answers every admitted request"
            `Quick test_idle_server_answers_admitted;
        ] );
      ( "docs",
        [
          Alcotest.test_case "SERVICE.md sessions replay" `Quick
            test_service_md_sessions_roundtrip;
        ] );
    ]
