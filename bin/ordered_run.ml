(* ordered_run: run any native ordered algorithm from the command line with
   an explicit schedule — the CLI counterpart of the scheduling language. *)

open Cmdliner

let make_schedule strategy delta threshold buckets traversal =
  let ( let* ) = Result.bind in
  let* strategy = Ordered.Schedule.strategy_of_string strategy in
  let* traversal = Ordered.Schedule.traversal_of_string traversal in
  Ordered.Schedule.validate
    {
      Ordered.Schedule.default with
      strategy;
      delta;
      fusion_threshold = threshold;
      num_open_buckets = buckets;
      traversal;
    }

(* The --rounds table: one row per engine round (the middle of runs
   longer than 40 rounds elided), then phase totals over every round. *)
let print_rounds rounds =
  let total = List.length rounds and max_rows = 40 in
  let row (r : Ordered.Engine.round) =
    Printf.printf "%6d %12d %12d %10d %6s %8d %9.3f %9.3f\n" r.index r.bucket_key
      r.priority r.frontier_size
      (match r.direction with Traverse.Edge_map.Ran_push -> "push" | Ran_pull -> "pull")
      r.fused_drains (1e3 *. r.wall_seconds) (1e3 *. r.traverse_seconds)
  in
  Printf.printf "%6s %12s %12s %10s %6s %8s %9s %9s\n" "round" "bucket" "priority"
    "frontier" "dir" "fused" "wall(ms)" "trav(ms)";
  let half = max_rows / 2 in
  List.iteri
    (fun i r ->
      if total <= max_rows || i < half || i >= total - half then row r
      else if i = half then
        Printf.printf "  ... %d rounds elided ...\n" (total - (2 * half)))
    rounds;
  let sum f = 1e3 *. List.fold_left (fun acc r -> acc +. f r) 0.0 rounds in
  if total > 0 then
    Printf.printf
      "phase totals over %d rounds: wall=%.3fms dequeue=%.3fms \
       traverse=%.3fms sync_wait=%.3fms\n"
      total
      (sum (fun r -> r.Ordered.Engine.wall_seconds))
      (sum (fun r -> r.dequeue_seconds))
      (sum (fun r -> r.traverse_seconds))
      (sum (fun r -> r.sync_wait_seconds))

let run algorithm graph_path source target workers strategy delta threshold buckets
    traversal coords_path show_rounds trace_path profile layout reorder
    save_bin =
  let schedule =
    match make_schedule strategy delta threshold buckets traversal with
    | Ok s -> s
    | Error msg ->
        Printf.eprintf "invalid schedule: %s\n" msg;
        exit 1
  in
  let layout_kind =
    match Graphs.Layout.kind_of_string layout with
    | Ok k -> k
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
  in
  let reorder_kind =
    match Graphs.Reorder.kind_of_string reorder with
    | Ok k -> k
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
  in
  (* Load, optionally relabel vertices, optionally persist the prepared
     graph as a binary, and wrap it in a handle carrying the chosen
     layout. Vertex ids given on the command line are remapped through
     the permutation so the query answers the same question. *)
  let prepare symmetric =
    let el =
      match Graphs.Graph_io.load_any graph_path with
      | Ok el -> el
      | Error msg ->
          Printf.eprintf "cannot load graph: %s\n" msg;
          exit 1
    in
    let el = if symmetric then Graphs.Edge_list.symmetrized el else el in
    let coords = Option.map Graphs.Graph_io.read_coords coords_path in
    let csr = Graphs.Csr.of_edge_list el in
    let perm =
      match Graphs.Reorder.of_kind reorder_kind ~csr ~coords with
      | Ok r -> r
      | Error msg ->
          Printf.eprintf "%s\n" msg;
          exit 1
    in
    let csr =
      if reorder_kind = Graphs.Reorder.Identity then csr
      else Graphs.Csr.of_edge_list (Graphs.Reorder.apply_edge_list perm el)
    in
    let coords = Option.map (Graphs.Reorder.apply_coords perm) coords in
    (match save_bin with
    | Some path ->
        Graphs.Graph_bin.save path ~layout:layout_kind csr;
        Printf.printf "saved binary graph: %s (%s layout)\n" path
          (Graphs.Layout.kind_to_string layout_kind)
    | None -> ());
    let remap v =
      if v >= 0 && v < Graphs.Csr.num_vertices csr then
        Graphs.Reorder.apply_vertex perm v
      else v
    in
    let handle = Graphs.Handle.create ~kind:layout_kind csr in
    (csr, handle, coords, remap source, remap target)
  in
  if profile then begin
    Observe.Span.set_enabled true;
    Observe.Span.install_pool_hook ()
  end;
  let tracer =
    match trace_path with
    | None -> None
    | Some _ ->
        let t = Observe.Tracer.create () in
        Observe.Tracer.set_current (Some t);
        Observe.Tracer.install_pool_hooks ();
        Some t
  in
  (* The pool hooks are process-wide state: detach them even when the run
     below raises (bad graph file, unknown algorithm), or they would keep
     firing — against a dead tracer — for the rest of the process. *)
  Fun.protect
    ~finally:(fun () ->
      if profile then Observe.Span.remove_pool_hook ();
      if tracer <> None then begin
        Observe.Tracer.remove_pool_hooks ();
        Observe.Tracer.set_current None
      end)
  @@ fun () ->
  Parallel.Pool.with_pool ~num_workers:workers (fun pool ->
      let report name seconds (stats : Ordered.Stats.t option) =
        Printf.printf "%s: %.4fs\n" name seconds;
        match stats with
        | Some s -> Format.printf "stats: %a@." Ordered.Stats.pp s
        | None -> ()
      in
      match algorithm with
      | "sssp" ->
          let graph, handle, _, source, _ = prepare false in
          let rounds = ref [] in
          let on_round =
            if show_rounds then Some (fun _ r -> rounds := r :: !rounds) else None
          in
          let r, seconds =
            Support.Timer.time (fun () ->
                Algorithms.Sssp_delta.run ~pool ~graph ~handle ~schedule ~source
                  ?on_round ())
          in
          report "sssp" seconds (Some r.stats);
          if show_rounds then print_rounds (List.rev !rounds)
      | "wbfs" ->
          let graph, handle, _, source, _ = prepare false in
          let r, seconds =
            Support.Timer.time (fun () ->
                Algorithms.Wbfs.run ~pool ~graph ~handle ~schedule ~source ())
          in
          report "wbfs" seconds (Some r.stats)
      | "ppsp" ->
          let graph, handle, _, source, target = prepare false in
          let r, seconds =
            Support.Timer.time (fun () ->
                Algorithms.Ppsp.run ~pool ~graph ~handle ~schedule ~source
                  ~target ())
          in
          Printf.printf "distance %d -> %d = %s\n" source target
            (if r.distance = Bucketing.Bucket_order.null_priority then "unreachable"
             else string_of_int r.distance);
          report "ppsp" seconds (Some r.stats)
      | "astar" ->
          let graph, handle, coords, source, target = prepare false in
          let coords =
            match coords with
            | Some c -> c
            | None ->
                Printf.eprintf "astar requires --coords\n";
                exit 1
          in
          let r, seconds =
            Support.Timer.time (fun () ->
                Algorithms.Astar.run ~pool ~graph ~coords ~handle ~schedule
                  ~source ~target ())
          in
          Printf.printf "distance %d -> %d = %d\n" source target r.distance;
          report "astar" seconds (Some r.stats)
      | "kcore" ->
          let graph, handle, _, _, _ = prepare true in
          let r, seconds =
            Support.Timer.time (fun () ->
                Algorithms.Kcore.run ~pool ~graph ~handle ~schedule ())
          in
          Printf.printf "max core = %d\n" (Algorithms.Kcore.max_core r);
          report "kcore" seconds (Some r.stats)
      | "setcover" ->
          let graph, handle, _, _, _ = prepare true in
          let r, seconds =
            Support.Timer.time (fun () ->
                Algorithms.Setcover.run ~pool ~graph ~handle ~schedule ())
          in
          Printf.printf "cover size = %d (%d rounds)\n" r.cover_size r.rounds;
          report "setcover" seconds None
      | "bellman-ford" ->
          let graph, _, _, source, _ = prepare false in
          let r, seconds =
            Support.Timer.time (fun () ->
                Algorithms.Bellman_ford.run ~pool ~graph ~source ())
          in
          Printf.printf "iterations = %d\n" r.iterations;
          report "bellman-ford" seconds None
      | other ->
          Printf.eprintf
            "unknown algorithm %S (sssp|wbfs|ppsp|astar|kcore|setcover|bellman-ford)\n"
            other;
          exit 1);
  (match (tracer, trace_path) with
  | Some t, Some path ->
      Observe.Tracer.set_current None;
      Observe.Tracer.write t path;
      Printf.printf "trace: %s (%d events; open in ui.perfetto.dev)\n" path
        (Observe.Tracer.event_count t)
  | _ -> ());
  if profile then begin
    let snap = Observe.Metrics.snapshot Observe.Metrics.default in
    Format.printf "@.flight recorder (docs/OBSERVABILITY.md):@.%a"
      (Observe.Metrics.pp ?times:None) snap
  end

let () =
  let algorithm =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ALGORITHM" ~doc:"Algorithm")
  in
  let graph = Arg.(required & pos 1 (some file) None & info [] ~docv:"GRAPH" ~doc:"Graph") in
  let source = Arg.(value & opt int 0 & info [ "source" ] ~doc:"Source vertex") in
  let target = Arg.(value & opt int 0 & info [ "target" ] ~doc:"Target vertex") in
  let workers = Arg.(value & opt int 4 & info [ "j"; "workers" ] ~doc:"Worker domains") in
  let strategy =
    Arg.(
      value & opt string "eager_with_fusion"
      & info [ "strategy" ] ~doc:"Bucket update strategy")
  in
  let delta = Arg.(value & opt int 1 & info [ "delta" ] ~doc:"Priority coarsening factor") in
  let threshold =
    Arg.(value & opt int 1000 & info [ "fusion-threshold" ] ~doc:"Bucket fusion threshold")
  in
  let buckets =
    Arg.(value & opt int 128 & info [ "num-buckets" ] ~doc:"Materialized lazy buckets")
  in
  let traversal =
    Arg.(value & opt string "SparsePush" & info [ "direction" ] ~doc:"SparsePush|DensePull")
  in
  let coords =
    Arg.(value & opt (some file) None & info [ "coords" ] ~doc:"Coordinates file (astar)")
  in
  let show_rounds =
    Arg.(value & flag & info [ "rounds" ] ~doc:"Print a per-round trace table (sssp)")
  in
  let trace_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a per-worker timeline and write it as Chrome trace_event \
             JSON (open in ui.perfetto.dev)")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Enable the flight recorder (span timings and cumulative \
             counters) and print its table after the run")
  in
  let layout =
    Arg.(
      value & opt string "plain"
      & info [ "layout" ] ~docv:"KIND"
          ~doc:"Storage layout for traversal: plain|compressed")
  in
  let reorder =
    Arg.(
      value & opt string "none"
      & info [ "reorder" ] ~docv:"KIND"
          ~doc:
            "Vertex reordering applied before running: \
             none|degree|bfs|hilbert (hilbert needs --coords)")
  in
  let save_bin =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-bin" ] ~docv:"FILE"
          ~doc:
            "Write the prepared graph (after symmetrization/reordering) as \
             a GRAPHBIN binary; later runs can pass it as GRAPH for \
             mmap-speed loading")
  in
  let term =
    Term.(
      const run $ algorithm $ graph $ source $ target $ workers $ strategy $ delta
      $ threshold $ buckets $ traversal $ coords $ show_rounds $ trace_path
      $ profile $ layout $ reorder $ save_bin)
  in
  exit
    (Cmd.eval
       (Cmd.v (Cmd.info "ordered_run" ~doc:"Run ordered graph algorithms") term))
