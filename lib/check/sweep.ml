module Pool = Parallel.Pool
module Csr = Graphs.Csr
module Edge_list = Graphs.Edge_list
module Layout = Graphs.Layout
module Reorder = Graphs.Reorder
module Handle = Graphs.Handle
module Graph_bin = Graphs.Graph_bin
module Schedule = Ordered.Schedule
module Rng = Support.Rng
module Json = Support.Json

type app = Sssp | Wbfs | Ppsp | Astar | Kcore | Setcover

let all_apps = [ Sssp; Wbfs; Ppsp; Astar; Kcore; Setcover ]

let app_to_string = function
  | Sssp -> "sssp"
  | Wbfs -> "wbfs"
  | Ppsp -> "ppsp"
  | Astar -> "astar"
  | Kcore -> "kcore"
  | Setcover -> "setcover"

let app_of_string s =
  match List.find_opt (fun app -> app_to_string app = s) all_apps with
  | Some app -> Ok app
  | None -> Error (Printf.sprintf "unknown app %S" s)

(* ---------------- substrate variants ---------------- *)

(* The storage-substrate axis: every schedule-space point can additionally
   run on a compressed layout, a reordered vertex numbering, and/or a
   graph that took a save-bin -> load-bin round trip. The oracles judge
   the app on the {e same} transformed graph, so a variant failure
   isolates the substrate, not the algorithm. *)
type variant = {
  layout : Layout.kind;
  reorder : Reorder.kind;
  bin_roundtrip : bool;
}

let default_variant =
  { layout = Layout.Plain; reorder = Reorder.Identity; bin_roundtrip = false }

let default_variants =
  [
    default_variant;
    { default_variant with layout = Layout.Compressed };
    { default_variant with reorder = Reorder.Degree };
    {
      default_variant with
      layout = Layout.Compressed;
      reorder = Reorder.Degree;
    };
    { default_variant with bin_roundtrip = true };
  ]

let variant_flags v =
  (if v.layout = Layout.Plain then [] else [ "--layout"; Layout.kind_to_string v.layout ])
  @ (if v.reorder = Reorder.Identity then []
     else [ "--reorder"; Reorder.kind_to_string v.reorder ])
  @ if v.bin_roundtrip then [ "--bin" ] else []

let ( let* ) = Result.bind

(* ---------------- one configuration ---------------- *)

type config = {
  app : app;
  spec : Graph_case.spec;
  schedule : Schedule.t;
  workers : int;
  variant : variant;
}

let repro_line ?(chaos = false) ?(race = false) ~seed c =
  Harness.repro_line ~seed ~chaos ~race
    ~mode:[ "--app"; app_to_string c.app ]
    ~graph:(Graph_case.to_string c.spec) ~workers:c.workers ~schedule:c.schedule
    (variant_flags c.variant)

(* A case prepared under one variant: the transformed edge list plus the
   handles every (app, schedule, workers) point over it shares. Handles
   cache the transpose and compressed forms, so a sweep of hundreds of
   schedules pays each conversion once instead of once per run. *)
type prepared = {
  p_case : Graph_case.t;
  p_directed : Handle.t;
  p_symmetric : Handle.t Lazy.t; (* k-core / set cover *)
}

let prepare ?(variant = default_variant) (case : Graph_case.t) =
  let* case =
    if variant.reorder = Reorder.Identity then Ok case
    else
      let csr = Csr.of_edge_list case.Graph_case.el in
      let* r =
        Reorder.of_kind variant.reorder ~csr ~coords:case.Graph_case.coords
      in
      Ok
        {
          case with
          Graph_case.el = Reorder.apply_edge_list r case.Graph_case.el;
          coords = Option.map (Reorder.apply_coords r) case.Graph_case.coords;
        }
  in
  let csr = Csr.of_edge_list case.Graph_case.el in
  let* csr =
    if not variant.bin_roundtrip then Ok csr
    else
      (* Save, reload, and require the loaded graph to be identical —
         then run the apps on the loaded copy, so a subtle codec bug also
         has to survive the oracles. *)
      let path = Filename.temp_file "graphbin_check" ".bin" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          match
            Graph_bin.save path ~layout:variant.layout csr;
            Graph_bin.load_csr path
          with
          | loaded ->
              if Csr.to_edge_list loaded = Csr.to_edge_list csr then Ok loaded
              else Error "graph_bin round-trip changed the graph"
          | exception exn ->
              Error ("graph_bin round-trip: " ^ Printexc.to_string exn))
  in
  Ok
    {
      p_case = case;
      p_directed = Handle.create ~kind:variant.layout csr;
      p_symmetric =
        lazy
          (Handle.of_edge_list ~kind:variant.layout
             (Edge_list.symmetrized case.Graph_case.el));
    }

(* Run one (app, graph, schedule) point on [pool] and judge the result.
   Engine exceptions are failures like any mismatch — a schedule that
   crashes is as broken as one that returns wrong distances, and both
   should shrink. *)
let run_prepared ?(oracle = Oracle.default) ~pool app prepared schedule =
  let judge schedule =
    let handle =
      match app with
      | Kcore | Setcover -> Lazy.force prepared.p_symmetric
      | Sssp | Wbfs | Ppsp | Astar -> prepared.p_directed
    in
    let graph = Handle.csr handle in
    let source = 0 and target = Csr.num_vertices graph - 1 in
    match app with
    | Sssp ->
        let r = Algorithms.Sssp_delta.run ~pool ~graph ~handle ~schedule ~source () in
        oracle.Oracle.sssp graph ~source r.Algorithms.Sssp_delta.dist
    | Wbfs ->
        let r = Algorithms.Wbfs.run ~pool ~graph ~handle ~schedule ~source () in
        oracle.Oracle.sssp graph ~source r.Algorithms.Sssp_delta.dist
    | Ppsp ->
        let r = Algorithms.Ppsp.run ~pool ~graph ~handle ~schedule ~source ~target () in
        oracle.Oracle.ppsp graph ~source ~target r.Algorithms.Ppsp.distance
    | Astar -> (
        match prepared.p_case.Graph_case.coords with
        | None -> Error "astar requires a graph with coordinates"
        | Some coords ->
            let r =
              Algorithms.Astar.run ~pool ~graph ~coords ~handle ~schedule ~source ~target ()
            in
            oracle.Oracle.ppsp graph ~source ~target r.Algorithms.Astar.distance)
    | Kcore ->
        let r = Algorithms.Kcore.run ~pool ~graph ~handle ~schedule () in
        oracle.Oracle.kcore graph r.Algorithms.Kcore.coreness
    | Setcover ->
        oracle.Oracle.setcover graph (Algorithms.Setcover.run ~pool ~graph ~handle ~schedule ())
  in
  match Schedule.validate schedule with
  | Error msg -> Error ("invalid schedule: " ^ msg)
  | Ok schedule -> (
      try judge schedule with exn -> Error ("exception: " ^ Printexc.to_string exn))

let run_one ?oracle ?variant ~pool app (case : Graph_case.t) schedule =
  match prepare ?variant case with
  | Error msg -> Error ("prepare: " ^ msg)
  | Ok prepared -> run_prepared ?oracle ~pool app prepared schedule

(* ---------------- the sweep ---------------- *)

type failure = (config, unit) Harness.failure

type summary = { checks : (config, unit) Harness.summary; per_app : (app * int) list }

let default_specs ~seed =
  [
    Graph_case.Random { seed; n = 48; m = 200; max_w = 12 };
    Graph_case.Random { seed = seed + 1; n = 64; m = 120; max_w = 5 };
    Graph_case.Dup_edges { seed = seed + 2; n = 24; m = 60; max_w = 9 };
    Graph_case.Road { seed = seed + 3; rows = 5; cols = 6 };
    Graph_case.Road { seed = seed + 4; rows = 3; cols = 3 };
    Graph_case.Path 13;
    Graph_case.Cycle 9;
    Graph_case.Star 16;
    Graph_case.Complete 8;
    Graph_case.Edgeless 6;
    Graph_case.Edgeless 1;
    Graph_case.Self_loops 8;
  ]

let strategies = function
  | Kcore ->
      [
        Schedule.Eager_with_fusion; Schedule.Eager_no_fusion; Schedule.Lazy;
        Schedule.Lazy_constant_sum;
      ]
  | Sssp | Wbfs | Ppsp | Astar | Setcover ->
      [ Schedule.Eager_with_fusion; Schedule.Eager_no_fusion; Schedule.Lazy ]

let deltas app graph =
  match app with
  (* wBFS pins Δ = 1 itself; k-core and set cover tolerate no coarsening. *)
  | Wbfs | Kcore | Setcover -> [ 1 ]
  | Sssp | Ppsp | Astar ->
      (* 1, 2, 8 plus Δ* — the max edge weight, a stand-in for the tuned
         Δ (road schedules in the paper sit near the weight scale). *)
      List.sort_uniq compare [ 1; 2; 8; max 1 (Csr.max_weight graph) ]

let traversals app strategy =
  match (app, strategy) with
  | (Sssp | Wbfs | Ppsp | Astar), (Schedule.Lazy | Schedule.Lazy_constant_sum)
    ->
      [ Schedule.Sparse_push; Schedule.Dense_pull; Schedule.Hybrid ]
  (* k-core and set cover drive push-only kernels (no transpose plumbed). *)
  | _ -> [ Schedule.Sparse_push ]

let scheds =
  [ None; Some Pool.Static; Some Pool.Dynamic; Some Pool.Guided ]

(* The systematic cross-product for one (app, graph) pair, plus a few
   Autotune.Search_space samples so the corners the grid leaves out
   (huge Δ, odd chunk sizes) still get visited. *)
let schedules ~seed app graph =
  let grid =
    Harness.grid
      [
        (fun s -> List.map (fun strategy -> { s with Schedule.strategy }) (strategies app));
        (fun s -> List.map (fun delta -> { s with Schedule.delta }) (deltas app graph));
        (fun s ->
          List.map
            (fun traversal -> { s with Schedule.traversal })
            (traversals app s.Schedule.strategy));
        Harness.open_buckets;
        Harness.fusion_thresholds;
        (fun s -> List.map (fun sched -> { s with Schedule.sched }) scheds);
      ]
  in
  let rng = Rng.create (seed * 31 + Hashtbl.hash (app_to_string app)) in
  let space =
    {
      Autotune.Search_space.default with
      Autotune.Search_space.strategies = strategies app;
    }
  in
  let sampled =
    List.init 6 (fun _ -> Autotune.Search_space.random space rng)
    |> List.filter_map (fun s ->
           (* The sampler does not know app constraints: clamp Δ for the
              Δ-less apps and direction for the push-only ones. *)
           let s =
             match app with
             | Wbfs | Kcore | Setcover -> { s with Schedule.delta = 1 }
             | _ -> s
           in
           let s =
             if List.mem s.Schedule.traversal (traversals app s.Schedule.strategy)
             then s
             else { s with Schedule.traversal = Schedule.Sparse_push }
           in
           match Schedule.validate s with Ok s -> Some s | Error _ -> None)
  in
  grid @ sampled

let headline () message = message

let failure_fields (f : failure) =
  let c = f.original and v = f.original.variant in
  [
    ("app", Json.String (app_to_string c.app));
    ("graph", Json.String (Graph_case.to_string c.spec));
    ("schedule", Json.String (Schedule.to_string c.schedule));
    ("workers", Json.Int c.workers);
    ("layout", Json.String (Layout.kind_to_string v.layout));
    ("reorder", Json.String (Reorder.kind_to_string v.reorder));
    ("bin_roundtrip", Json.Bool v.bin_roundtrip);
    ("message", Json.String f.message);
    ( "shrunk",
      if f.shrunk.spec = c.spec then Json.Null
      else Json.String (Graph_case.to_string f.shrunk.spec) );
    ("repro", Json.String f.repro);
  ]

let summary_json ~seed s =
  Harness.summary_json ~seed
    ~after:
      [
        ( "per_app",
          Json.Obj (List.map (fun (app, n) -> (app_to_string app, Json.Int n)) s.per_app) );
      ]
    failure_fields s.checks

let run ?oracle ?(apps = all_apps) ?specs ?(variants = default_variants)
    ?(workers = [ 1; 2; 4 ]) ?(budget = 60.) ?(seed = 0) ?(max_failures = 5)
    ?(chaos = false) ?(race = false) ?(log = fun _ -> ()) () =
  let specs = match specs with Some s -> s | None -> default_specs ~seed in
  let variants = if variants = [] then [ default_variant ] else variants in
  let lane r = Result.map_error (fun message -> ((), message)) r in
  let judge ~pool c case = lane (run_one ?oracle ~variant:c.variant ~pool c.app case c.schedule) in
  let sweep =
    {
      Harness.judge = (fun ~pool c -> judge ~pool c (Graph_case.build c.spec));
      (* Shrink probes re-apply the variant to each candidate, so the
         minimized case still fails under the same substrate. *)
      shrink =
        (fun ~pool c ->
          let check case = Result.is_error (judge ~pool c case) in
          { c with spec = Graph_case.shrink ~check (Graph_case.build c.spec) });
      describe =
        (fun c ->
          String.concat " "
            ((app_to_string c.app ^ " on " ^ Graph_case.to_string c.spec)
            :: variant_flags c.variant));
      headline;
      repro = repro_line ~chaos ~race ~seed;
    }
  in
  let per_app = List.map (fun app -> (app, ref 0)) all_apps in
  (* Specs outer, then substrate variants, then apps: if the budget dies
     mid-sweep, every app has still run on the earlier graphs, and each
     (graph, variant) pays its transforms once for all the apps and
     schedules over it. *)
  let enumerate ~visit ~report =
    List.iter
      (fun spec ->
        let case = Graph_case.build spec in
        List.iter
          (fun variant ->
            let config app schedule workers = { app; spec; schedule; workers; variant } in
            match prepare ~variant case with
            | Error message ->
                (* A substrate transform that fails is a finding in its
                   own right (codec or permutation bug). *)
                report (config (List.hd apps) Schedule.default) () ("prepare: " ^ message)
            | Ok prepared ->
                List.iter
                  (fun app ->
                    if app <> Astar || case.Graph_case.coords <> None then
                      List.iter
                        (fun schedule ->
                          visit (config app schedule) (fun ~pool _ ->
                              incr (List.assoc app per_app);
                              lane (run_prepared ?oracle ~pool app prepared schedule)))
                        (schedules ~seed app (Handle.csr prepared.p_directed)))
                  apps)
          variants)
      specs
  in
  let checks =
    Harness.run ~workers ~budget ~seed ~max_failures ~chaos ~race ~log sweep enumerate
  in
  { checks; per_app = List.filter_map (fun (app, n) -> if !n > 0 then Some (app, !n) else None) per_app }
