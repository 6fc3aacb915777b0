(* validate: end-user correctness harness. Runs an algorithm on a given
   graph under EVERY legal schedule (and several worker counts), checks all
   results against the sequential oracle, and reports the matrix. This is
   the fast way to convince yourself the scheduling language never changes
   results on YOUR data. *)

open Cmdliner

module Schedule = Ordered.Schedule

let schedules_for algorithm =
  let base strategy delta traversal =
    { Schedule.default with strategy; delta; traversal }
  in
  let eager_and_lazy deltas =
    List.concat_map
      (fun delta ->
        [
          base Schedule.Eager_with_fusion delta Schedule.Sparse_push;
          base Schedule.Eager_no_fusion delta Schedule.Sparse_push;
          base Schedule.Lazy delta Schedule.Sparse_push;
          base Schedule.Lazy delta Schedule.Dense_pull;
          base Schedule.Lazy delta Schedule.Hybrid;
        ])
      deltas
  in
  match algorithm with
  | "sssp" | "widest" -> eager_and_lazy [ 1; 8; 512 ]
  | "kcore" ->
      [
        base Schedule.Eager_with_fusion 1 Schedule.Sparse_push;
        base Schedule.Eager_no_fusion 1 Schedule.Sparse_push;
        base Schedule.Lazy 1 Schedule.Sparse_push;
        base Schedule.Lazy_constant_sum 1 Schedule.Sparse_push;
      ]
  | "score" ->
      [
        base Schedule.Eager_with_fusion 1 Schedule.Sparse_push;
        base Schedule.Eager_no_fusion 1 Schedule.Sparse_push;
        base Schedule.Lazy 1 Schedule.Sparse_push;
      ]
  | _ -> []

let describe s =
  Printf.sprintf "%-18s delta=%-4d %s"
    (Schedule.strategy_to_string s.Schedule.strategy)
    s.Schedule.delta
    (Schedule.traversal_to_string s.Schedule.traversal)

let run algorithm graph_path source max_workers =
  let el = Graphs.Graph_io.load graph_path in
  let directed = Graphs.Csr.of_edge_list el in
  let symmetric = lazy (Graphs.Csr.of_edge_list (Graphs.Edge_list.symmetrized el)) in
  (* One handle for every schedule: pull runs share its cached transpose. *)
  let handle = Graphs.Handle.create directed in
  let oracle, run_one =
    match algorithm with
    | "sssp" ->
        ( Algorithms.Dijkstra.distances directed ~source,
          fun pool schedule ->
            (Algorithms.Sssp_delta.run ~pool ~graph:directed ~handle ~schedule
               ~source ())
              .dist )
    | "widest" ->
        ( Algorithms.Widest_path.sequential directed ~source,
          fun pool schedule ->
            (Algorithms.Widest_path.run ~pool ~graph:directed ~handle ~schedule
               ~source ())
              .capacity )
    | "kcore" ->
        ( Algorithms.Kcore_peel_seq.coreness (Lazy.force symmetric),
          fun pool schedule ->
            (Algorithms.Kcore.run ~pool ~graph:(Lazy.force symmetric) ~schedule ())
              .coreness )
    | "score" ->
        ( Algorithms.Score.sequential (Lazy.force symmetric),
          fun pool schedule ->
            (Algorithms.Score.run ~pool ~graph:(Lazy.force symmetric) ~schedule ())
              .coreness )
    | other ->
        Printf.eprintf "unknown algorithm %S (sssp|widest|kcore|score)\n" other;
        exit 1
  in
  let worker_counts = List.filter (fun w -> w <= max_workers) [ 1; 2; 4; 8 ] in
  let schedules = schedules_for algorithm in
  Printf.printf "validating %s on %s (%d vertices, %d edges)\n" algorithm graph_path
    (Graphs.Csr.num_vertices directed)
    (Graphs.Csr.num_edges directed);
  Printf.printf "%d schedules x %d worker counts against the sequential oracle\n\n"
    (List.length schedules) (List.length worker_counts);
  let failures = ref 0 and passed = ref 0 in
  List.iter
    (fun workers ->
      Parallel.Pool.with_pool ~num_workers:workers (fun pool ->
          List.iter
            (fun schedule ->
              match run_one pool schedule with
              | result ->
                  if result = oracle then begin
                    incr passed;
                    Printf.printf "  PASS  workers=%d  %s\n" workers (describe schedule)
                  end
                  else begin
                    incr failures;
                    Printf.printf "  FAIL  workers=%d  %s\n" workers (describe schedule)
                  end
              | exception exn ->
                  incr failures;
                  Printf.printf "  ERROR workers=%d  %s: %s\n" workers
                    (describe schedule) (Printexc.to_string exn))
            schedules))
    worker_counts;
  Printf.printf "\n%d passed, %d failed\n" !passed !failures;
  if !failures > 0 then exit 1

let () =
  let algorithm =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ALGORITHM"
           ~doc:"sssp|widest|kcore|score")
  in
  let graph =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"GRAPH" ~doc:"Graph file")
  in
  let source = Arg.(value & opt int 0 & info [ "source" ] ~doc:"Source vertex") in
  let workers = Arg.(value & opt int 4 & info [ "max-workers" ] ~doc:"Largest pool") in
  let term = Term.(const run $ algorithm $ graph $ source $ workers) in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "validate"
             ~doc:"Check that every schedule produces oracle-identical results")
          term))
