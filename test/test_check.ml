(* The checker must be trustworthy in both directions: silent on the real
   engine (including under chaos scheduling with the race detector armed)
   and loud on seeded defects — a grafted broken oracle must produce a
   shrunk counterexample with a working repro line, and a deliberately
   racy kernel must trip the detector. *)

module Pool = Parallel.Pool
module Atomic_array = Parallel.Atomic_array
module Race = Parallel.Race
module Chaos = Parallel.Chaos
module Csr = Graphs.Csr
module Schedule = Ordered.Schedule
module Graph_case = Check.Graph_case
module Oracle = Check.Oracle
module Sweep = Check.Sweep
module Harness = Check.Harness

(* ---------------- printable specs ---------------- *)

let test_graph_spec_roundtrip () =
  let specs =
    Sweep.default_specs ~seed:5
    @ [
        Graph_case.Explicit
          {
            num_vertices = 4;
            edges = [ (0, 1, 3); (1, 2, 1); (3, 3, 9) ];
            coords = Some [ (0.0, 0.5); (1.0, 1.5); (2.0, 0.25); (3.0, 4.0) ];
          };
        Graph_case.Explicit { num_vertices = 2; edges = []; coords = None };
      ]
  in
  List.iter
    (fun spec ->
      let s = Graph_case.to_string spec in
      match Graph_case.of_string s with
      | Ok spec' ->
          Alcotest.(check string) ("round-trip " ^ s) s (Graph_case.to_string spec');
          Alcotest.(check bool) ("equal spec " ^ s) true (spec = spec')
      | Error e -> Alcotest.fail (Printf.sprintf "parse %S: %s" s e))
    specs

(* Slow-query records carry these lines and CI evals them, so the graph
   path must survive a shell and [of_line] whatever characters it holds. *)
let test_query_repro_quotes_paths () =
  List.iter
    (fun graph_file ->
      let r =
        {
          Check.Query_repro.app = Check.Query_repro.Ppsp;
          graph_file;
          symmetric = true;
          source = 3;
          target = 7;
          schedule = Schedule.default;
          workers = 2;
        }
      in
      let line = Check.Query_repro.to_line r in
      match Check.Query_repro.of_line line with
      | Ok r' -> Alcotest.(check bool) ("round-trip " ^ line) true (r = r')
      | Error e -> Alcotest.fail (Printf.sprintf "parse %S: %s" line e))
    [ "road.el"; "/tmp/my graphs/road.el"; "/tmp/it's/road.el" ]

(* ---------------- the sweep on the real engine ---------------- *)

let test_small_sweep_clean () =
  let summary =
    Sweep.run
      ~apps:[ Sweep.Sssp; Sweep.Kcore ]
      ~specs:
        [
          Graph_case.Random { seed = 11; n = 24; m = 90; max_w = 8 };
          Graph_case.Self_loops 5;
        ]
      ~workers:[ 2 ] ~budget:30.0 ~seed:11 ()
  in
  Alcotest.(check (list string)) "no failures" []
    (List.map (fun (f : Sweep.failure) -> f.message) summary.Sweep.checks.failures);
  Alcotest.(check bool) "ran configs" true (summary.Sweep.checks.configs_run > 0);
  List.iter
    (fun app ->
      Alcotest.(check bool)
        (Sweep.app_to_string app ^ " covered")
        true
        (List.assoc app summary.Sweep.per_app > 0))
    [ Sweep.Sssp; Sweep.Kcore ]

(* Substrate variants: the same sweep stays clean on the compressed
   layout, under degree reordering, and through a save/load round-trip of
   the binary graph format. *)
let test_variant_sweep_clean () =
  let summary =
    Sweep.run
      ~apps:[ Sweep.Sssp; Sweep.Kcore ]
      ~specs:[ Graph_case.Random { seed = 21; n = 20; m = 70; max_w = 6 } ]
      ~variants:
        [
          { Sweep.default_variant with layout = Graphs.Layout.Compressed };
          { Sweep.default_variant with reorder = Graphs.Reorder.Degree };
          {
            Sweep.layout = Graphs.Layout.Compressed;
            reorder = Graphs.Reorder.Degree;
            bin_roundtrip = true;
          };
        ]
      ~workers:[ 2 ] ~budget:20.0 ~seed:21 ()
  in
  Alcotest.(check (list string)) "no failures" []
    (List.map (fun (f : Sweep.failure) -> f.message) summary.Sweep.checks.failures);
  Alcotest.(check bool) "ran configs" true (summary.Sweep.checks.configs_run > 0)

let test_sweep_chaos_race_silent () =
  (* The acceptance bar: chaos on, detector armed, engine still clean. *)
  let summary =
    Sweep.run
      ~apps:[ Sweep.Sssp; Sweep.Setcover ]
      ~specs:[ Graph_case.Random { seed = 4; n = 20; m = 70; max_w = 6 } ]
      ~workers:[ 4 ] ~budget:30.0 ~seed:4 ~chaos:true ~race:true ()
  in
  Alcotest.(check (list string)) "no failures under chaos" []
    (List.map (fun (f : Sweep.failure) -> f.message) summary.Sweep.checks.failures);
  Alcotest.(check int) "no race findings on the engine" 0
    summary.Sweep.checks.race_findings;
  Alcotest.(check bool) "chaos sweep left chaos off" false (Chaos.enabled ());
  Alcotest.(check bool) "race sweep left detector off" false (Race.enabled ())

(* ---------------- the failure path, end to end ---------------- *)

let broken_oracle =
  { Oracle.default with sssp = (fun _ ~source:_ _ -> Error "forced mismatch") }

let test_forced_mismatch_shrinks () =
  let summary =
    Sweep.run ~oracle:broken_oracle ~apps:[ Sweep.Sssp ]
      ~specs:[ Graph_case.Random { seed = 3; n = 48; m = 200; max_w = 12 } ]
      ~workers:[ 2 ] ~budget:30.0 ~seed:3 ~max_failures:1 ()
  in
  match summary.Sweep.checks.failures with
  | [] -> Alcotest.fail "broken oracle produced no failure"
  | f :: _ -> (
      match f.shrunk.Sweep.spec with
      | Graph_case.Explicit { edges; _ } as spec ->
          Alcotest.(check bool)
            (Printf.sprintf "shrunk to %d <= 10 edges" (List.length edges))
            true
            (List.length edges <= 10);
          (* The repro line carries the shrunk graph and the schedule. *)
          let spec_string = Graph_case.to_string spec in
          Alcotest.(check bool) "repro names check_runner" true
            (String.length f.repro > 0
            && String.sub f.repro 0 12 = "check_runner");
          let contains hay needle =
            let nl = String.length needle and hl = String.length hay in
            let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "repro embeds the shrunk spec" true
            (contains f.repro spec_string);
          (* And the line's pieces actually reproduce the failure, with
             the message the record carries. *)
          let spec' =
            match Graph_case.of_string spec_string with
            | Ok s -> s
            | Error e -> Alcotest.fail ("shrunk spec does not parse: " ^ e)
          in
          let case = Graph_case.build spec' in
          Pool.with_pool ~num_workers:2 (fun pool ->
              match
                Sweep.run_one ~oracle:broken_oracle ~pool Sweep.Sssp case
                  f.shrunk.Sweep.schedule
              with
              | Error message ->
                  Alcotest.(check string) "message is the shrunk run's" message
                    f.message
              | Ok () -> Alcotest.fail "shrunk case no longer fails")
      | other ->
          Alcotest.fail
            ("shrunk spec is not explicit: " ^ Graph_case.to_string other))

(* ---------------- the shared shrinker ---------------- *)

(* ddmin against a deterministic, non-monotone predicate: the array fails
   while it holds at least [k] multiples of [d] and its length is not 3
   mod 4. The result must still fail, the probe cap must hold, and a
   shrink that stayed under the cap must be 1-minimal. *)
let qcheck_ddmin =
  QCheck.Test.make ~name:"ddmin stays failing, capped, 1-minimal" ~count:300
    QCheck.(
      quad (list_of_size (Gen.int_range 0 40) (int_bound 50)) (int_range 1 5)
        (int_range 0 4) (int_range 0 60))
    (fun (parts, d, k, cap) ->
      let fails a =
        Array.length a mod 4 <> 3
        && Array.fold_left (fun n x -> if x mod d = 0 then n + 1 else n) 0 a >= k
      in
      let parts = Array.of_list parts in
      QCheck.assume (fails parts);
      let calls = ref 0 in
      let result =
        Harness.ddmin (Harness.probes ~max:cap)
          (fun a ->
            incr calls;
            fails a)
          parts
      in
      let minimal () =
        List.for_all
          (fun i ->
            not (fails (Array.append (Array.sub result 0 i)
                          (Array.sub result (i + 1) (Array.length result - i - 1)))))
          (List.init (Array.length result) Fun.id)
      in
      fails result && !calls <= cap && (!calls = cap || minimal ()))

(* ---------------- race detector ---------------- *)

let with_race f =
  Race.clear ();
  Race.enable ();
  Fun.protect ~finally:(fun () -> Race.disable ()) f

let test_race_catches_racy_fixture () =
  (* Four workers hammer eight shared slots with plain sets — the exact
     ownership violation the detector exists for. *)
  with_race (fun () ->
      Pool.with_pool ~num_workers:4 (fun pool ->
          let arr = Atomic_array.make 8 0 in
          Pool.run_workers pool (fun tid ->
              for i = 1 to 10_000 do
                Atomic_array.set arr (i land 7) tid
              done));
      Alcotest.(check bool) "racy fixture caught" true (Race.num_findings () > 0);
      match Race.findings () with
      | [] -> Alcotest.fail "num_findings > 0 but findings empty"
      | f :: _ ->
          Alcotest.(check bool) "distinct tids" true (f.first_tid <> f.second_tid);
          Alcotest.(check bool) "slot in range" true (f.slot >= 0 && f.slot < 8))

let test_race_silent_on_owned_slots () =
  (* The sanctioned discipline: each worker plain-sets only slots it
     owns. Same episode, same array, zero findings. *)
  with_race (fun () ->
      Pool.with_pool ~num_workers:4 (fun pool ->
          let arr = Atomic_array.make 4 0 in
          Pool.run_workers pool (fun tid ->
              for i = 1 to 10_000 do
                Atomic_array.set arr tid (i + tid)
              done));
      Alcotest.(check int) "owner-disciplined writes are silent" 0
        (Race.num_findings ()))

let test_race_episodes_do_not_alias () =
  (* The same slot written by different workers in *different* episodes is
     not a race: each episode bump invalidates the previous tags. *)
  with_race (fun () ->
      Pool.with_pool ~num_workers:2 (fun pool ->
          let arr = Atomic_array.make 1 0 in
          Pool.run_workers pool (fun tid ->
              if tid = 0 then Atomic_array.set arr 0 1);
          Pool.run_workers pool (fun tid ->
              if tid = 1 then Atomic_array.set arr 0 2));
      (* Sequential writes after the rounds must not alias either. *)
      Atomic_array.set (Atomic_array.make 1 0) 0 3;
      Alcotest.(check int) "cross-episode writes are silent" 0
        (Race.num_findings ()))

let test_race_cas_family_exempt () =
  (* fetch_min/fetch_add carry their own reconciliation; they are allowed
     to collide across workers. *)
  with_race (fun () ->
      Pool.with_pool ~num_workers:4 (fun pool ->
          let arr = Atomic_array.make 2 max_int in
          Pool.run_workers pool (fun tid ->
              for i = 1 to 1_000 do
                ignore (Atomic_array.fetch_min arr 0 (i + tid));
                ignore (Atomic_array.fetch_add arr 1 1)
              done));
      Alcotest.(check int) "CAS-family collisions are silent" 0
        (Race.num_findings ()))

(* ---------------- chaos ---------------- *)

let test_chaos_preserves_results () =
  let case =
    Graph_case.build (Graph_case.Random { seed = 7; n = 40; m = 180; max_w = 9 })
  in
  let g = Csr.of_edge_list case.Graph_case.el in
  let expected = Algorithms.Dijkstra.distances g ~source:0 in
  Chaos.enable ~seed:99;
  Fun.protect
    ~finally:(fun () -> Chaos.disable ())
    (fun () ->
      Alcotest.(check bool) "chaos reports enabled" true (Chaos.enabled ());
      Pool.with_pool ~num_workers:4 (fun pool ->
          List.iter
            (fun strategy ->
              let r =
                Algorithms.Sssp_delta.run ~pool ~graph:g
                  ~schedule:{ Schedule.default with strategy; delta = 3 }
                  ~source:0 ()
              in
              Alcotest.(check (array int))
                (Schedule.strategy_to_string strategy ^ " under chaos")
                expected r.dist)
            Testlib.all_strategies));
  Alcotest.(check bool) "chaos off again" false (Chaos.enabled ())

(* ---------------- oracles ---------------- *)

let test_oracle_cross_check () =
  let g =
    Csr.of_edge_list
      (Graph_case.build (Graph_case.Random { seed = 21; n = 30; m = 120; max_w = 7 }))
        .Graph_case.el
  in
  let dijkstra = Algorithms.Dijkstra.distances g ~source:0 in
  Alcotest.(check (array int)) "bellman-ford agrees with dijkstra" dijkstra
    (Oracle.bellman_ford g ~source:0);
  (match Oracle.default.Oracle.sssp g ~source:0 dijkstra with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("true distances rejected: " ^ e));
  let wrong = Array.copy dijkstra in
  wrong.(Array.length wrong - 1) <- 12345;
  match Oracle.default.Oracle.sssp g ~source:0 wrong with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "corrupted distances accepted"

let () =
  Alcotest.run "check"
    [
      ( "printable",
        [
          Alcotest.test_case "graph spec round-trip" `Quick test_graph_spec_roundtrip;
          Alcotest.test_case "query repro quotes paths" `Quick
            test_query_repro_quotes_paths;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "small sweep clean" `Quick test_small_sweep_clean;
          Alcotest.test_case "variant sweep clean" `Quick
            test_variant_sweep_clean;
          Alcotest.test_case "chaos+race sweep silent" `Quick
            test_sweep_chaos_race_silent;
          Alcotest.test_case "forced mismatch shrinks" `Quick
            test_forced_mismatch_shrinks;
        ] );
      ("harness", [ QCheck_alcotest.to_alcotest qcheck_ddmin ]);
      ( "race",
        [
          Alcotest.test_case "catches racy fixture" `Quick
            test_race_catches_racy_fixture;
          Alcotest.test_case "silent on owned slots" `Quick
            test_race_silent_on_owned_slots;
          Alcotest.test_case "episodes do not alias" `Quick
            test_race_episodes_do_not_alias;
          Alcotest.test_case "cas family exempt" `Quick test_race_cas_family_exempt;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "results preserved" `Quick test_chaos_preserves_results;
        ] );
      ( "oracle",
        [ Alcotest.test_case "cross-check and rejection" `Quick test_oracle_cross_check ] );
    ]
