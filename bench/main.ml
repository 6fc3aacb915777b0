(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6) on the synthetic workload suite documented in
   DESIGN.md §3. Absolute numbers differ from the paper (different machine,
   different substrate, scaled-down graphs — and this container exposes a
   single core, so like the paper's artifact the default run is serial);
   the *shapes* — who wins, by what factor, where crossovers fall — are the
   reproduction targets, recorded in EXPERIMENTS.md.

   Usage:
     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- --only tab6  -- one experiment
     dune exec bench/main.exe -- --workers 4  -- oversubscribed parallel run
     dune exec bench/main.exe -- --scale big  -- larger graphs
     dune exec bench/main.exe -- --smoke      -- tiny graphs, 1 trial
     dune exec bench/main.exe -- --json f.json -- machine-readable dump
     dune build @bench-smoke                  -- the same, as a dune alias *)

module Pool = Parallel.Pool
module Csr = Graphs.Csr
module Edge_list = Graphs.Edge_list
module Generators = Graphs.Generators
module Coords = Graphs.Coords
module Layout = Graphs.Layout
module Reorder = Graphs.Reorder
module Handle = Graphs.Handle
module Graph_bin = Graphs.Graph_bin
module Graph_io = Graphs.Graph_io
module Delta = Graphs.Delta
module Versioned = Graphs.Versioned
module Rng = Support.Rng
module Timer = Support.Timer
module Schedule = Ordered.Schedule
module Stats = Ordered.Stats
module Json = Support.Json

(* ------------------------------------------------------------------ *)
(* Configuration                                                        *)

let workers = ref 1
let big = ref false
let smoke = ref false
let trace_out = ref None
let repeats = ref 0 (* 0 = auto: 1 under --smoke, 3 otherwise *)
let bench_layout = ref Layout.Plain
let bench_reorder = ref Reorder.Identity

let parse_or_die what of_string s =
  match of_string s with
  | Ok v -> v
  | Error msg ->
      Printf.eprintf "bad %s %S: %s\n" what s msg;
      exit 2

(* [sections] is the registry defined at the end of this file: (id,
   title, body) in run order. *)
let usage sections =
  "GraphIt ordered-extension benchmark suite (methodology: EXPERIMENTS.md)\n\n\
   Usage: bench/main.exe [OPTIONS]\n\n\
   Options:\n\
  \  --only ID        run one section (IDs below)\n\
  \  --workers N      worker domains for the engine pools (default 1)\n\
  \  --scale big      larger graphs\n\
  \  --smoke          tiny graphs, one trial per measurement (CI-sized)\n\
  \  --repeats N      trials per measurement (default 3; 1 under --smoke)\n\
  \  --json FILE      write the machine-readable report (bench_diff input)\n\
  \  --trace FILE     record a Perfetto timeline of the whole run\n\
  \  --layout KIND    plain|compressed storage for the engine drivers\n\
  \  --reorder KIND   none|degree|bfs|hilbert vertex relabeling for the suite\n\
  \  --help           show this message\n\n\
   Sections:\n"
  ^ String.concat ""
      (List.map (fun (id, title, _) -> Printf.sprintf "  %-9s %s\n" id title) sections)

(* Unknown arguments are errors, not warnings: a typo must not turn into
   a run that silently measures something else. *)
let parse_args sections =
  let only = ref None in
  let rec parse = function
    | [] -> ()
    | "--help" :: _ ->
        print_string (usage sections);
        exit 0
    | "--only" :: id :: rest ->
        only := Some id;
        parse rest
    | "--workers" :: n :: rest ->
        workers := int_of_string n;
        parse rest
    | "--scale" :: "big" :: rest ->
        big := true;
        parse rest
    | "--smoke" :: rest ->
        (* CI-sized run: tiny graphs, one trial per measurement, trimmed
           search budgets. Checks every section end to end in seconds. *)
        smoke := true;
        parse rest
    | "--json" :: file :: rest ->
        Report.set_path file;
        parse rest
    | "--trace" :: file :: rest ->
        trace_out := Some file;
        parse rest
    | "--repeats" :: n :: rest ->
        repeats := int_of_string n;
        parse rest
    | "--layout" :: kind :: rest ->
        (* Storage substrate for the GraphIt engine drivers: the handles
           handed to the algorithms carry this layout kind. *)
        bench_layout := parse_or_die "--layout" Layout.kind_of_string kind;
        parse rest
    | "--reorder" :: kind :: rest ->
        (* Vertex reordering applied to the whole workload suite before
           any section runs; every framework sees the same relabeled
           graphs, so comparisons stay apples-to-apples. *)
        bench_reorder := parse_or_die "--reorder" Reorder.kind_of_string kind;
        parse rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %S\n\n%s" arg (usage sections);
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !only with
  | None -> sections
  | Some id -> (
      match List.filter (fun (i, _, _) -> i = id) sections with
      | [] ->
          Printf.eprintf "unknown section %S; valid ids: %s\n" id
            (String.concat " " (List.map (fun (i, _, _) -> i) sections));
          exit 2
      | selected -> selected)

let section id title f =
  Printf.printf "\n================================================================\n";
  Printf.printf "[%s] %s\n" id title;
  Printf.printf "================================================================\n";
  let (), seconds = Timer.time f in
  Report.add_duration id seconds;
  flush stdout

let effective_repeats () =
  if !repeats > 0 then !repeats else if !smoke then 1 else 3

let time f = Timer.time_median ~repeats:(effective_repeats ()) f
let time_stats f = Timer.time_stats ~repeats:(effective_repeats ()) f

(* ------------------------------------------------------------------ *)
(* Workload suite (DESIGN.md §3: stand-ins for the paper's datasets)    *)

type workload = {
  wname : string;
  paper_analog : string;
  directed : Csr.t;  (* weights [1,1000) for social, geometric for road *)
  wbfs_graph : Csr.t;  (* weights [1, log n) *)
  symmetric : Csr.t;  (* for k-core / SetCover *)
  coords : Coords.t option;
  best_delta : int;
      (* hand-tuned for THIS bench context: the default run is serial (one
         hardware core), where work-efficiency dominates, so road deltas
         are smaller than the paper's 24-core values (see EXPERIMENTS.md) *)
  fusion_delta : int;
      (* the paper's parallel-regime delta (2^13..2^17 for roads), used by
         the Table 6 fusion experiment where round counts are the metric *)
}

let make_social name analog ~scale ~edge_factor ~best_delta ~fusion_delta seed =
  let rng = Rng.create seed in
  let base = Generators.rmat ~rng ~scale ~edge_factor () in
  let weighted = Generators.assign_weights ~rng ~lo:1 ~hi:1000 base in
  let wbfs = Generators.wbfs_weights ~rng base in
  {
    wname = name;
    paper_analog = analog;
    directed = Csr.of_edge_list weighted;
    wbfs_graph = Csr.of_edge_list wbfs;
    symmetric = Csr.of_edge_list (Edge_list.symmetrized weighted);
    coords = None;
    best_delta;
    fusion_delta;
  }

let make_road name analog ~rows ~cols ~best_delta ~fusion_delta seed =
  let rng = Rng.create seed in
  let el, coords = Generators.road_grid ~rng ~rows ~cols () in
  let g = Csr.of_edge_list el in
  {
    wname = name;
    paper_analog = analog;
    directed = g;
    wbfs_graph = g;
    symmetric = g;
    (* road grids are symmetric by construction *)
    coords = Some coords;
    best_delta;
    fusion_delta;
  }

(* --reorder relabels every workload's graphs up front, so each framework
   sees the same permuted vertex ids and comparisons stay apples-to-apples.
   Hilbert falls back (with a warning) on workloads without coordinates. *)
let apply_global_reorder w =
  match !bench_reorder with
  | Reorder.Identity -> w
  | kind -> (
      match Reorder.of_kind kind ~csr:w.directed ~coords:w.coords with
      | Error msg ->
          Printf.eprintf "%s: --reorder %s skipped: %s\n" w.wname
            (Reorder.kind_to_string kind) msg;
          w
      | Ok r ->
          let remap g =
            Csr.of_edge_list (Reorder.apply_edge_list r (Csr.to_edge_list g))
          in
          {
            w with
            directed = remap w.directed;
            wbfs_graph = remap w.wbfs_graph;
            symmetric = remap w.symmetric;
            coords = Option.map (Reorder.apply_coords r) w.coords;
          })

let suite =
  lazy
    (List.map apply_global_reorder
    @@
    if !smoke then
       [
         make_social "social-s" "LiveJournal/Orkut" ~scale:9 ~edge_factor:8
           ~best_delta:4 ~fusion_delta:32 101;
         make_social "social-l" "Twitter/Friendster" ~scale:10 ~edge_factor:8
           ~best_delta:8 ~fusion_delta:32 102;
         make_road "road-s" "Germany/MA" ~rows:24 ~cols:24 ~best_delta:1024
           ~fusion_delta:8192 103;
         make_road "road-l" "RoadUSA" ~rows:36 ~cols:36 ~best_delta:256
           ~fusion_delta:16384 104;
       ]
     else
       let f = if !big then 1 else 0 in
       [
         make_social "social-s" "LiveJournal/Orkut" ~scale:(13 + f) ~edge_factor:12
           ~best_delta:4 ~fusion_delta:32 101;
         make_social "social-l" "Twitter/Friendster" ~scale:(14 + f) ~edge_factor:12
           ~best_delta:8 ~fusion_delta:32 102;
         make_road "road-s" "Germany/MA"
           ~rows:(90 * (f + 1))
           ~cols:(90 * (f + 1))
           ~best_delta:1024 ~fusion_delta:8192 103;
         make_road "road-l" "RoadUSA"
           ~rows:(170 * (f + 1))
           ~cols:(170 * (f + 1))
           ~best_delta:256 ~fusion_delta:16384 104;
       ])

let is_road w = w.coords <> None

let sources w =
  (* Deterministic spread of source vertices, averaged like the paper's 10
     starting vertices (3 keeps the serial bench time sane). *)
  let n = Csr.num_vertices w.directed in
  [ 0; n / 2; (2 * n / 3) + 1 ]

let st_pairs w =
  let n = Csr.num_vertices w.directed in
  [ (0, (n / 2) + 1); (n / 3, (2 * n / 3) + 1); (1, n - 2) ]

let graphit_schedule w = { Schedule.default with delta = w.best_delta }
let pool = lazy (Pool.create ~num_workers:!workers ())
let avg xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* One handle per (workload, graph role): the transpose and compressed
   forms are lazily built once per process and shared by every section,
   instead of rebuilt per run. --layout picks the kind the GraphIt engine
   drivers traverse with. *)
let handle_cache : (string, Handle.t) Hashtbl.t = Hashtbl.create 16

let handle_for role g =
  let key = role ^ "/" ^ Layout.kind_to_string !bench_layout in
  match Hashtbl.find_opt handle_cache key with
  | Some h -> h
  | None ->
      let h = Handle.create ~kind:!bench_layout g in
      Hashtbl.add handle_cache key h;
      h

let dir_handle w = handle_for (w.wname ^ ":dir") w.directed
let wbfs_handle w = handle_for (w.wname ^ ":wbfs") w.wbfs_graph
let sym_handle w = handle_for (w.wname ^ ":sym") w.symmetric

(* ------------------------------------------------------------------ *)
(* Framework drivers: average seconds per (algorithm, workload); nan =
   algorithm not supported by that framework (grey cells of Fig. 4).    *)

let dash = nan

let sssp_time framework w =
  let p = Lazy.force pool in
  let g = w.directed in
  let per_source src =
    match framework with
    | `Graphit ->
        snd
          (time (fun () ->
               Algorithms.Sssp_delta.run ~pool:p ~graph:g
                 ~handle:(dir_handle w) ~schedule:(graphit_schedule w)
                 ~source:src ()))
    | `Gapbs ->
        snd
          (time (fun () ->
               Baselines.Gapbs_like.sssp ~pool:p ~graph:g ~delta:w.best_delta
                 ~source:src ()))
    | `Galois ->
        snd
          (time (fun () ->
               Baselines.Galois_like.sssp ~pool:p ~graph:g ~delta:w.best_delta
                 ~source:src ()))
    | `Julienne ->
        snd
          (time (fun () ->
               Baselines.Julienne_like.sssp ~pool:p ~graph:g ~delta:w.best_delta
                 ~source:src ()))
    | `Unordered ->
        snd
          (time (fun () -> Algorithms.Bellman_ford.run ~pool:p ~graph:g ~source:src ()))
    | `Ligra ->
        let t = Csr.transpose g in
        snd
          (time (fun () ->
               Baselines.Ligra_like.sssp ~pool:p ~graph:g ~transpose:t ~source:src ()))
  in
  avg (List.map per_source (sources w))

let ppsp_time framework w =
  let p = Lazy.force pool in
  let g = w.directed in
  let per_pair (src, dst) =
    match framework with
    | `Graphit ->
        snd
          (time (fun () ->
               Algorithms.Ppsp.run ~pool:p ~graph:g ~handle:(dir_handle w)
                 ~schedule:(graphit_schedule w) ~source:src ~target:dst ()))
    | `Gapbs ->
        snd
          (time (fun () ->
               Baselines.Gapbs_like.ppsp ~pool:p ~graph:g ~delta:w.best_delta
                 ~source:src ~target:dst ()))
    | `Galois ->
        snd
          (time (fun () ->
               ignore
                 (Baselines.Galois_like.ppsp ~pool:p ~graph:g ~delta:w.best_delta
                    ~source:src ~target:dst ())))
    | `Julienne ->
        snd
          (time (fun () ->
               ignore
                 (Baselines.Julienne_like.ppsp ~pool:p ~graph:g ~delta:w.best_delta
                    ~source:src ~target:dst ())))
    | `Unordered ->
        (* Unordered frameworks answer point-to-point queries by running to
           completion (the paper reports the same SSSP time for them). *)
        snd
          (time (fun () -> Algorithms.Bellman_ford.run ~pool:p ~graph:g ~source:src ()))
    | `Ligra ->
        let t = Csr.transpose g in
        snd
          (time (fun () ->
               Baselines.Ligra_like.sssp ~pool:p ~graph:g ~transpose:t ~source:src ()))
  in
  avg (List.map per_pair (st_pairs w))

let wbfs_time framework w =
  if is_road w then dash
    (* the paper benchmarks wBFS only on social networks and web graphs *)
  else begin
    let p = Lazy.force pool in
    let g = w.wbfs_graph in
    let per_source src =
      match framework with
      | `Graphit ->
          snd
            (time (fun () ->
                 Algorithms.Wbfs.run ~pool:p ~graph:g ~handle:(wbfs_handle w)
                   ~schedule:Schedule.default ~source:src ()))
      | `Gapbs ->
          snd
            (time (fun () -> Baselines.Gapbs_like.wbfs ~pool:p ~graph:g ~source:src ()))
      | `Julienne ->
          snd
            (time (fun () ->
                 Baselines.Julienne_like.wbfs ~pool:p ~graph:g ~source:src ()))
      | `Unordered ->
          snd
            (time (fun () ->
                 Algorithms.Bellman_ford.run ~pool:p ~graph:g ~source:src ()))
      | `Ligra ->
          let t = Csr.transpose g in
          snd
            (time (fun () ->
                 Baselines.Ligra_like.sssp ~pool:p ~graph:g ~transpose:t ~source:src ()))
      | `Galois -> dash
    in
    let times = List.map per_source (sources w) in
    let valid = List.filter (fun t -> not (Float.is_nan t)) times in
    if valid = [] then dash else avg valid
  end

let astar_time framework w =
  match w.coords with
  | None -> dash (* A* needs coordinates: road networks only, as in the paper *)
  | Some coords ->
      let p = Lazy.force pool in
      let g = w.directed in
      let per_pair (src, dst) =
        match framework with
        | `Graphit ->
            snd
              (time (fun () ->
                   Algorithms.Astar.run ~pool:p ~graph:g ~handle:(dir_handle w)
                     ~coords ~schedule:(graphit_schedule w) ~source:src
                     ~target:dst ()))
        | `Gapbs ->
            snd
              (time (fun () ->
                   Baselines.Gapbs_like.astar ~pool:p ~graph:g ~coords
                     ~delta:w.best_delta ~source:src ~target:dst ()))
        | `Galois ->
            snd
              (time (fun () ->
                   ignore
                     (Baselines.Galois_like.astar ~pool:p ~graph:g ~coords
                        ~delta:w.best_delta ~source:src ~target:dst ())))
        | `Unordered ->
            snd
              (time (fun () ->
                   Algorithms.Bellman_ford.run ~pool:p ~graph:g ~source:src ()))
        | `Julienne | `Ligra -> dash
      in
      let times =
        List.filter (fun t -> not (Float.is_nan t)) (List.map per_pair (st_pairs w))
      in
      if times = [] then dash else avg times

let kcore_time framework w =
  let p = Lazy.force pool in
  let g = w.symmetric in
  match framework with
  | `Graphit ->
      snd
        (time (fun () ->
             Algorithms.Kcore.run ~pool:p ~graph:g ~handle:(sym_handle w)
               ~schedule:{ Schedule.default with strategy = Schedule.Lazy_constant_sum }
               ()))
  | `Julienne -> snd (time (fun () -> Baselines.Julienne_like.kcore ~pool:p ~graph:g ()))
  | `Unordered | `Ligra ->
      snd (time (fun () -> Algorithms.Kcore_unordered.run ~pool:p ~graph:g ()))
  | `Gapbs | `Galois -> dash

let setcover_time framework w =
  let p = Lazy.force pool in
  let g = w.symmetric in
  match framework with
  | `Graphit ->
      snd
        (time (fun () ->
             Algorithms.Setcover.run ~pool:p ~graph:g ~handle:(sym_handle w)
               ~schedule:{ Schedule.default with strategy = Schedule.Lazy }
               ()))
  | `Julienne ->
      snd (time (fun () -> Baselines.Julienne_like.setcover ~pool:p ~graph:g ()))
  | `Gapbs | `Galois | `Unordered | `Ligra -> dash

(* ------------------------------------------------------------------ *)
(* Experiments                                                          *)

let fig1 () =
  Printf.printf
    "Speedup of ordered algorithms over their unordered counterparts\n\
     (paper Figure 1: largest on large-diameter road networks).\n\n";
  Printf.printf "%-11s %-22s %12s %12s %9s\n" "graph" "(analog)" "ordered(s)"
    "unordered(s)" "speedup";
  let run alg driver =
    List.iter
      (fun w ->
        let ordered = driver `Graphit w in
        let unordered = driver `Unordered w in
        Printf.printf "%-5s %-5s %-22s %12.3f %12.3f %8.1fx\n" alg w.wname
          ("(" ^ w.paper_analog ^ ")")
          ordered unordered (unordered /. ordered);
        Report.row "fig1"
          [
            ("algorithm", Json.String alg);
            ("graph", Json.String w.wname);
            ("ordered_seconds", Json.Float ordered);
            ("unordered_seconds", Json.Float unordered);
            ("speedup", Json.Float (unordered /. ordered));
          ])
      (Lazy.force suite)
  in
  run "SSSP" sssp_time;
  run "kcore" kcore_time

let collect_tab4 () =
  let algorithms =
    [
      ("SSSP", sssp_time);
      ("PPSP", ppsp_time);
      ("wBFS", wbfs_time);
      ("A*", astar_time);
      ("k-core", kcore_time);
      ("SetCover", setcover_time);
    ]
  in
  let frameworks =
    [
      ("GraphIt(ordered)", `Graphit);
      ("GAPBS", `Gapbs);
      ("Galois", `Galois);
      ("Julienne", `Julienne);
      ("GraphIt(unordered)", `Unordered);
      ("Ligra(unordered)", `Ligra);
    ]
  in
  List.map
    (fun (alg_name, driver) ->
      ( alg_name,
        List.map
          (fun w ->
            (w.wname, List.map (fun (fw_name, fw) -> (fw_name, driver fw w)) frameworks))
          (Lazy.force suite) ))
    algorithms

let tab4_cache = ref None

let tab4_data () =
  match !tab4_cache with
  | Some d -> d
  | None ->
      let d = collect_tab4 () in
      tab4_cache := Some d;
      d

let tab4 () =
  Printf.printf
    "Running time (s) of GraphIt-with-extension vs comparison frameworks\n\
     (paper Table 4). Social graphs: weights [1,1000); wBFS: [1, log n);\n\
     roads: geometric weights. Averaged over %d sources/pairs.\n"
    (List.length (sources (List.hd (Lazy.force suite))));
  List.iter
    (fun (alg_name, per_graph) ->
      Printf.printf "\n--- %s (seconds; * = fastest; - = not supported) ---\n" alg_name;
      let frameworks = List.map fst (snd (List.hd per_graph)) in
      Printf.printf "%-22s" "framework";
      List.iter (fun (g, _) -> Printf.printf " %9s" g) per_graph;
      print_newline ();
      List.iter
        (fun fw ->
          Printf.printf "%-22s" fw;
          List.iter
            (fun (_, cells) ->
              let t = List.assoc fw cells in
              let best =
                List.fold_left
                  (fun acc (_, x) -> if Float.is_nan x then acc else min acc x)
                  infinity cells
              in
              if Float.is_nan t then Printf.printf " %9s" "-"
              else Printf.printf " %8.3f%s" t (if t = best then "*" else " "))
            per_graph;
          print_newline ())
        frameworks)
    (tab4_data ());
  List.iter
    (fun (alg_name, per_graph) ->
      List.iter
        (fun (graph, cells) ->
          List.iter
            (fun (fw, t) ->
              Report.row "tab4"
                [
                  ("algorithm", Json.String alg_name);
                  ("graph", Json.String graph);
                  ("framework", Json.String fw);
                  (* nan (unsupported combination) serializes as null *)
                  ("seconds", Json.Float t);
                ])
            cells)
        per_graph)
    (tab4_data ())

let fig4 () =
  Printf.printf
    "Slowdown relative to the fastest ordered framework per cell (paper\n\
     Figure 4; 1.00 marks the fastest, '-' an unsupported algorithm).\n";
  let interesting = [ "SSSP"; "PPSP"; "k-core"; "SetCover" ] in
  let ordered_frameworks = [ "GraphIt(ordered)"; "Julienne"; "Galois" ] in
  List.iter
    (fun (alg_name, per_graph) ->
      if List.mem alg_name interesting then begin
        Printf.printf "\n--- %s ---\n" alg_name;
        Printf.printf "%-22s" "framework";
        List.iter (fun (g, _) -> Printf.printf " %9s" g) per_graph;
        print_newline ();
        List.iter
          (fun fw ->
            Printf.printf "%-22s" fw;
            List.iter
              (fun (_, cells) ->
                let best =
                  List.fold_left
                    (fun acc (name, t) ->
                      if List.mem name ordered_frameworks && not (Float.is_nan t) then
                        min acc t
                      else acc)
                    infinity cells
                in
                let t = List.assoc fw cells in
                if Float.is_nan t then Printf.printf " %9s" "-"
                else Printf.printf " %9.2f" (t /. best))
              per_graph;
            print_newline ())
          ordered_frameworks
      end)
    (tab4_data ())

let tab5 () =
  Printf.printf
    "Lines of code (paper Table 5): DSL programs vs the hand-written\n\
     implementations a framework user would maintain. DSL lines exclude\n\
     comments, blanks, and the schedule section; OCaml counts cover the\n\
     algorithm modules (.ml, comments and blanks excluded).\n\n";
  let count_lines ?(strip_schedule = false) path =
    let ic = open_in path in
    let count = ref 0 in
    let in_schedule = ref false in
    let in_comment = ref false in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if strip_schedule && line = "schedule:" then in_schedule := true;
         let starts p = String.length line >= String.length p
                        && String.sub line 0 (String.length p) = p in
         if starts "(*" then in_comment := true;
         let is_comment =
           !in_comment || starts "%" || starts "//"
         in
         if String.length line >= 2 && String.sub line (String.length line - 2) 2 = "*)"
         then in_comment := false;
         if line <> "" && (not !in_schedule) && not is_comment then incr count
       done
     with End_of_file -> close_in ic);
    !count
  in
  let find candidates = List.find_opt Sys.file_exists candidates in
  let app name = find [ "examples/apps/" ^ name; "../examples/apps/" ^ name ] in
  let lib path = find [ "lib/" ^ path; "../lib/" ^ path ] in
  let rows =
    [
      ("SSSP", "sssp.gt", [ "algorithms/sssp_delta.ml" ]);
      ("PPSP", "ppsp.gt", [ "algorithms/ppsp.ml" ]);
      ("wBFS", "wbfs.gt", [ "algorithms/wbfs.ml"; "algorithms/sssp_delta.ml" ]);
      ("A*", "astar.gt", [ "algorithms/astar.ml" ]);
      ("k-core", "kcore.gt", [ "algorithms/kcore.ml" ]);
      ("SetCover", "setcover.gt", [ "algorithms/setcover.ml" ]);
    ]
  in
  Printf.printf "%-10s %18s %26s %8s\n" "algorithm" "GraphIt DSL (loc)"
    "hand-written OCaml (loc)" "ratio";
  List.iter
    (fun (name, gt, ml_files) ->
      match app gt with
      | None -> Printf.printf "%-10s (run from the repository root)\n" name
      | Some gt_path ->
          let dsl = count_lines ~strip_schedule:true gt_path in
          let ml =
            List.fold_left
              (fun acc f -> match lib f with Some p -> acc + count_lines p | None -> acc)
              0 ml_files
          in
          Printf.printf "%-10s %18d %26d %7.1fx\n" name dsl ml
            (float_of_int ml /. float_of_int (max 1 dsl));
          Report.row "tab5"
            [
              ("algorithm", Json.String name);
              ("dsl_loc", Json.Int dsl);
              ("ocaml_loc", Json.Int ml);
            ])
    rows

let tab6 () =
  Printf.printf
    "Bucket fusion: running time and global rounds with vs without fusion\n\
     (paper Table 6: >30x round reduction on RoadUSA, 1.2-3x speedup).\n\n";
  let p = Lazy.force pool in
  Printf.printf "%-10s %-20s %24s %25s %8s %18s\n" "graph" "(analog)" "with fusion"
    "without fusion" "rounds" "sync/round (us)";
  List.iter
    (fun w ->
      (* Table 6 runs in the paper's parallel-regime delta, where many
         consecutive rounds process the same bucket. *)
      let sched = { Schedule.default with delta = w.fusion_delta } in
      let fused, fused_s =
        time (fun () ->
            Algorithms.Sssp_delta.run ~pool:p ~graph:w.directed ~schedule:sched
              ~source:0 ())
      in
      let unfused, unfused_s =
        time (fun () ->
            Algorithms.Sssp_delta.run ~pool:p ~graph:w.directed
              ~schedule:{ sched with strategy = Schedule.Eager_no_fusion }
              ~source:0 ())
      in
      assert (fused.Algorithms.Sssp_delta.dist = unfused.Algorithms.Sssp_delta.dist);
      (* The per-round barrier cost is the quantity fusion amortizes; a
         1-worker pool has no barrier, so the column renders as '-' there
         rather than a misleading 0. *)
      let sync_per_round r =
        if !workers <= 1 then "-"
        else
          Printf.sprintf "%.2f"
            (1e6 *. r.Algorithms.Sssp_delta.stats.Stats.sync_seconds
            /. float_of_int (max 1 r.Algorithms.Sssp_delta.stats.Stats.rounds))
      in
      Printf.printf
        "%-10s %-20s %9.3fs [%6d rds] %9.3fs [%7d rds] %7.1fx %8s /%8s\n"
        w.wname
        ("(" ^ w.paper_analog ^ ")")
        fused_s fused.stats.Stats.rounds unfused_s unfused.stats.Stats.rounds
        (float_of_int unfused.stats.Stats.rounds
        /. float_of_int (max 1 fused.stats.Stats.rounds))
        (sync_per_round fused) (sync_per_round unfused);
      let variant name seconds (r : Algorithms.Sssp_delta.result) =
        ( name,
          Json.Obj
            [ ("seconds", Json.Float seconds); ("stats", Stats.to_json r.stats) ] )
      in
      Report.row "tab6"
        [
          ("graph", Json.String w.wname);
          ("delta", Json.Int w.fusion_delta);
          variant "with_fusion" fused_s fused;
          variant "without_fusion" unfused_s unfused;
          ( "round_reduction",
            Json.Float
              (float_of_int unfused.stats.Stats.rounds
              /. float_of_int (max 1 fused.stats.Stats.rounds)) );
        ])
    (Lazy.force suite)

let tab7 () =
  Printf.printf
    "Eager vs lazy bucket updates (paper Table 7): k-core is faster lazy\n\
     (with the constant-sum histogram), SSSP is faster eager (the lazy\n\
     buffering is pure overhead when there are few redundant updates).\n\n";
  let p = Lazy.force pool in
  Printf.printf "%-10s | %-31s | %-31s\n" "" "k-core (s)" "SSSP (s)";
  Printf.printf "%-10s | %13s %17s | %13s %17s\n" "graph" "eager" "lazy(+histogram)"
    "eager" "lazy";
  List.iter
    (fun w ->
      let kcore_eager =
        snd
          (time (fun () ->
               Algorithms.Kcore.run ~pool:p ~graph:w.symmetric
                 ~schedule:Schedule.default ()))
      in
      let kcore_lazy =
        snd
          (time (fun () ->
               Algorithms.Kcore.run ~pool:p ~graph:w.symmetric
                 ~schedule:
                   { Schedule.default with strategy = Schedule.Lazy_constant_sum }
                 ()))
      in
      let sched = graphit_schedule w in
      let sssp_eager =
        snd
          (time (fun () ->
               Algorithms.Sssp_delta.run ~pool:p ~graph:w.directed ~schedule:sched
                 ~source:0 ()))
      in
      let sssp_lazy =
        snd
          (time (fun () ->
               Algorithms.Sssp_delta.run ~pool:p ~graph:w.directed
                 ~schedule:{ sched with strategy = Schedule.Lazy }
                 ~source:0 ()))
      in
      Printf.printf "%-10s | %13.3f %17.3f | %13.3f %17.3f\n" w.wname kcore_eager
        kcore_lazy sssp_eager sssp_lazy;
      Report.row "tab7"
        [
          ("graph", Json.String w.wname);
          ("kcore_eager_seconds", Json.Float kcore_eager);
          ("kcore_lazy_seconds", Json.Float kcore_lazy);
          ("sssp_eager_seconds", Json.Float sssp_eager);
          ("sssp_lazy_seconds", Json.Float sssp_lazy);
        ])
    (Lazy.force suite)

let fig11 () =
  Printf.printf
    "SSSP scalability (paper Figure 11). NOTE: this container exposes %d\n\
     hardware core(s); extra workers timeshare it, so wall-clock speedup\n\
     cannot exceed 1x here. The hardware-independent columns (rounds, edge\n\
     relaxations) show the decomposition is real: work stays ~constant as\n\
     workers are added.\n\n"
    (Domain.recommended_domain_count ());
  let worker_counts = [ 1; 2; 4 ] in
  let graphs =
    List.filter (fun w -> w.wname = "social-l" || w.wname = "road-l") (Lazy.force suite)
  in
  List.iter
    (fun w ->
      Printf.printf "--- %s (analog %s) ---\n" w.wname w.paper_analog;
      Printf.printf "%-10s %8s %10s %10s %12s\n" "framework" "workers" "time(s)"
        "rounds" "edges";
      List.iter
        (fun nw ->
          Pool.with_pool ~num_workers:nw (fun p ->
              let graphit, gs =
                time (fun () ->
                    Algorithms.Sssp_delta.run ~pool:p ~graph:w.directed
                      ~schedule:(graphit_schedule w) ~source:0 ())
              in
              let fig11_row fw seconds rounds edges =
                Report.row "fig11"
                  [
                    ("graph", Json.String w.wname);
                    ("framework", Json.String fw);
                    ("workers", Json.Int nw);
                    ("seconds", Json.Float seconds);
                    ("rounds", Json.Int rounds);
                    ( "edges_relaxed",
                      match edges with Some e -> Json.Int e | None -> Json.Null );
                  ]
              in
              Printf.printf "%-10s %8d %10.3f %10d %12d\n" "graphit" nw gs
                graphit.stats.Stats.rounds graphit.stats.Stats.edges_relaxed;
              fig11_row "graphit" gs graphit.stats.Stats.rounds
                (Some graphit.stats.Stats.edges_relaxed);
              let gapbs, bs =
                time (fun () ->
                    Baselines.Gapbs_like.sssp ~pool:p ~graph:w.directed
                      ~delta:w.best_delta ~source:0 ())
              in
              Printf.printf "%-10s %8d %10.3f %10d %12d\n" "gapbs" nw bs
                gapbs.Algorithms.Sssp_delta.stats.Stats.rounds
                gapbs.Algorithms.Sssp_delta.stats.Stats.edges_relaxed;
              fig11_row "gapbs" bs gapbs.Algorithms.Sssp_delta.stats.Stats.rounds
                (Some gapbs.Algorithms.Sssp_delta.stats.Stats.edges_relaxed);
              let julienne, js =
                time (fun () ->
                    Baselines.Julienne_like.sssp ~pool:p ~graph:w.directed
                      ~delta:w.best_delta ~source:0 ())
              in
              Printf.printf "%-10s %8d %10.3f %10d %12s\n" "julienne" nw js
                julienne.Baselines.Julienne_like.rounds "-";
              fig11_row "julienne" js julienne.Baselines.Julienne_like.rounds
                None))
        worker_counts;
      print_newline ())
    graphs

let delta_sweep () =
  Printf.printf
    "Δ selection (paper §6.2): social networks want small Δ (work-efficiency\n\
     dominates), road networks want large Δ (rounds/synchronization\n\
     dominate). Seconds per Δ; * marks each graph's best.\n\n";
  let p = Lazy.force pool in
  let deltas = [ 1; 4; 16; 64; 256; 1024; 4096; 16384; 65536 ] in
  Printf.printf "%-10s" "graph";
  List.iter (fun d -> Printf.printf " %8d" d) deltas;
  Printf.printf "     best\n";
  List.iter
    (fun w ->
      let results =
        List.map
          (fun delta ->
            let _, s =
              time (fun () ->
                  Algorithms.Sssp_delta.run ~pool:p ~graph:w.directed
                    ~schedule:{ Schedule.default with delta }
                    ~source:0 ())
            in
            (delta, s))
          deltas
      in
      let best_delta, _ =
        List.fold_left
          (fun (bd, bs) (d, s) -> if s < bs then (d, s) else (bd, bs))
          (0, infinity) results
      in
      Printf.printf "%-10s" w.wname;
      List.iter
        (fun (d, s) -> Printf.printf " %7.3f%s" s (if d = best_delta then "*" else " "))
        results;
      Printf.printf " %8d\n" best_delta;
      Report.row "delta"
        [
          ("graph", Json.String w.wname);
          ("best_delta", Json.Int best_delta);
          ( "sweep",
            Json.List
              (List.map
                 (fun (d, s) ->
                   Json.Obj [ ("delta", Json.Int d); ("seconds", Json.Float s) ])
                 results) );
        ])
    (Lazy.force suite)

let traverse_bench () =
  Printf.printf
    "Traversal core (lib/traverse): the same lazy wBFS forced through each\n\
     edge-map direction. Push pays atomics on sparse frontiers, Pull sweeps\n\
     the transpose without them, Hybrid picks per round via the degree-sum\n\
     heuristic (pull_rounds counts its dense choices).\n\n";
  let p = Lazy.force pool in
  Printf.printf "%-10s %-10s %10s %8s %12s\n" "graph" "direction" "seconds"
    "rounds" "pull_rounds";
  List.iter
    (fun w ->
      (* Built and warmed once, outside the timed runs. *)
      let handle = Handle.create w.directed in
      Handle.prewarm handle;
      List.iter
        (fun traversal ->
          let schedule =
            { Schedule.default with strategy = Schedule.Lazy; traversal;
              delta = w.best_delta }
          in
          let r, seconds =
            time (fun () ->
                Algorithms.Sssp_delta.run ~pool:p ~graph:w.directed ~handle
                  ~schedule ~source:0 ())
          in
          let label = Schedule.traversal_to_string traversal in
          Printf.printf "%-10s %-10s %10.4f %8d %12d\n" w.wname label seconds
            r.Algorithms.Sssp_delta.stats.Stats.rounds
            r.Algorithms.Sssp_delta.stats.Stats.pull_rounds;
          Report.row "traverse"
            [
              ("graph", Json.String w.wname);
              ("direction", Json.String label);
              ("seconds", Json.Float seconds);
              ("rounds", Json.Int r.Algorithms.Sssp_delta.stats.Stats.rounds);
              ( "pull_rounds",
                Json.Int r.Algorithms.Sssp_delta.stats.Stats.pull_rounds );
            ])
        [ Schedule.Sparse_push; Schedule.Dense_pull; Schedule.Hybrid ])
    (List.filter
       (fun w -> w.wname = "social-l" || w.wname = "road-l")
       (Lazy.force suite));
  (* Storage substrate axis: the same lazy-hybrid run per layout x
     reordering. Compressed trades per-edge varint decode for a smaller
     working set; reorderings pay off where they tighten destination
     locality (hub-first on power-law graphs, Hilbert on road grids). *)
  Printf.printf
    "\nLayout x reordering (lazy hybrid SSSP; median/min/max of %d runs):\n\n"
    (effective_repeats ());
  Printf.printf "%-10s %-12s %-8s %10s %10s %10s %7s\n" "graph" "layout"
    "reorder" "median_s" "min_s" "max_s" "rounds";
  List.iter
    (fun w ->
      let reorder_kinds =
        [ Reorder.Identity; Reorder.Degree ]
        @ (if is_road w then [ Reorder.Hilbert ] else [])
      in
      List.iter
        (fun rk ->
          match Reorder.of_kind rk ~csr:w.directed ~coords:w.coords with
          | Error msg ->
              Printf.eprintf "%s: reorder %s skipped: %s\n" w.wname
                (Reorder.kind_to_string rk) msg
          | Ok r ->
              let csr =
                if rk = Reorder.Identity then w.directed
                else
                  Csr.of_edge_list
                    (Reorder.apply_edge_list r (Csr.to_edge_list w.directed))
              in
              let source = Reorder.apply_vertex r 0 in
              let schedule =
                { Schedule.default with strategy = Schedule.Lazy;
                  traversal = Schedule.Hybrid; delta = w.best_delta }
              in
              List.iter
                (fun kind ->
                  let handle = Handle.create ~kind csr in
                  let res, st =
                    time_stats (fun () ->
                        Algorithms.Sssp_delta.run ~pool:p ~graph:csr ~handle
                          ~schedule ~source ())
                  in
                  let layout_s = Layout.kind_to_string kind in
                  let reorder_s = Reorder.kind_to_string rk in
                  Printf.printf "%-10s %-12s %-8s %10.4f %10.4f %10.4f %7d\n"
                    w.wname layout_s reorder_s st.Timer.median st.Timer.min
                    st.Timer.max res.Algorithms.Sssp_delta.stats.Stats.rounds;
                  Report.row "traverse"
                    [
                      ("graph", Json.String w.wname);
                      ("direction", Json.String "hybrid");
                      ("layout", Json.String layout_s);
                      ("reorder", Json.String reorder_s);
                      ("seconds", Json.Float st.Timer.median);
                      ("min_seconds", Json.Float st.Timer.min);
                      ("max_seconds", Json.Float st.Timer.max);
                      ( "rounds",
                        Json.Int res.Algorithms.Sssp_delta.stats.Stats.rounds );
                      ( "pull_rounds",
                        Json.Int
                          res.Algorithms.Sssp_delta.stats.Stats.pull_rounds );
                    ])
                [ Layout.Plain; Layout.Compressed ])
        reorder_kinds)
    (List.filter
       (fun w -> w.wname = "social-l" || w.wname = "road-l")
       (Lazy.force suite));
  print_newline ()

let graphbin_bench () =
  Printf.printf
    "Binary graph format (GRAPHBIN): mmap-backed load vs text edge-list\n\
     parsing, on the largest workload of the suite. The binary path maps\n\
     the payload and copies flat words; the text path tokenizes and\n\
     allocates per edge.\n\n";
  let w =
    List.fold_left
      (fun best c ->
        if Csr.num_edges c.directed > Csr.num_edges best.directed then c
        else best)
      (List.hd (Lazy.force suite))
      (Lazy.force suite)
  in
  let el = Csr.to_edge_list w.directed in
  let txt = Filename.temp_file "bench_graph" ".el" in
  let bin = Filename.temp_file "bench_graph" ".bin" in
  let bin_c = Filename.temp_file "bench_graph_c" ".bin" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ txt; bin; bin_c ])
  @@ fun () ->
  Graph_io.write_edge_list txt el;
  Graph_bin.save bin w.directed;
  Graph_bin.save bin_c ~layout:Layout.Compressed w.directed;
  let file_kb path = (Unix.stat path).Unix.st_size / 1024 in
  Printf.printf "%s: |V|=%d |E|=%d  text=%dKiB bin=%dKiB bin.z=%dKiB\n\n"
    w.wname (Csr.num_vertices w.directed) (Csr.num_edges w.directed)
    (file_kb txt) (file_kb bin) (file_kb bin_c);
  let bench label path load =
    let g, st = time_stats (fun () -> load path) in
    assert (Csr.num_edges g = Csr.num_edges w.directed);
    Printf.printf "%-14s %10.4f s (min %.4f, max %.4f)\n" label
      st.Timer.median st.Timer.min st.Timer.max;
    Report.row "graphbin"
      [
        ("format", Json.String label);
        ("file_kb", Json.Int (file_kb path));
        ("seconds", Json.Float st.Timer.median);
        ("min_seconds", Json.Float st.Timer.min);
        ("max_seconds", Json.Float st.Timer.max);
      ];
    st.Timer.median
  in
  let text_s =
    bench "text" txt (fun p -> Csr.of_edge_list (Graph_io.load p))
  in
  let bin_s = bench "bin-plain" bin Graph_bin.load_csr in
  let binc_s = bench "bin-compressed" bin_c Graph_bin.load_csr in
  (* Each binary load above includes the O(n + m) structural check that
     keeps crafted files out of the unchecked kernels; timed alone here so
     its share of the load stays visible. [load_csr] decodes a compressed
     file once and checks the plain arrays it decoded, so both rows time
     [Csr.validate] on what [load_csr] returned. *)
  List.iter
    (fun (label, path, load_s) ->
      let g = Graph_bin.load_csr path in
      let _, st = time_stats (fun () -> Csr.validate g) in
      Printf.printf "%-14s %10.4f s (%.0f%% of its load)\n" label st.Timer.median
        (100. *. st.Timer.median /. load_s);
      Report.row "graphbin"
        [
          ("format", Json.String label);
          ("seconds", Json.Float st.Timer.median);
          ("share_of_load", Json.Float (st.Timer.median /. load_s));
        ])
    [ ("chk-plain", bin, bin_s); ("chk-compressed", bin_c, binc_s) ];
  Printf.printf "\nspeedup over text parse: plain %.1fx, compressed %.1fx\n"
    (text_s /. bin_s) (text_s /. binc_s);
  Report.row "graphbin"
    [
      ("format", Json.String "speedup");
      ("plain_speedup", Json.Float (text_s /. bin_s));
      ("compressed_speedup", Json.Float (text_s /. binc_s));
    ]

let autotune_bench () =
  Printf.printf
    "Autotuning (paper §5.3/§6.2: schedules within ~5%% of hand-tuned found\n\
     after tens of trials in a large space).\n\n";
  let p = Lazy.force pool in
  let space =
    { Autotune.Search_space.default with Autotune.Search_space.allow_dense_pull = false }
  in
  Printf.printf "discrete search-space size: %d schedule points\n\n"
    (Autotune.Search_space.size space);
  List.iter
    (fun w ->
      let evaluate schedule =
        snd
          (Timer.time (fun () ->
               Algorithms.Sssp_delta.run ~pool:p ~graph:w.directed ~schedule ~source:0 ()))
      in
      let hand = evaluate (graphit_schedule w) in
      let rng = Rng.create 2020 in
      let budget = if !smoke then 8 else 40 in
      let result = Autotune.Tuner.tune ~space ~rng ~budget ~evaluate () in
      let best = result.Autotune.Tuner.best in
      Printf.printf
        "%-10s hand-tuned %.4fs | autotuned %.4fs in %2d trials (%s, delta=%d) => %+.0f%%\n"
        w.wname hand best.Autotune.Tuner.seconds
        (List.length result.Autotune.Tuner.trials)
        (Schedule.strategy_to_string best.Autotune.Tuner.schedule.Schedule.strategy)
        best.Autotune.Tuner.schedule.Schedule.delta
        (100.0 *. ((best.Autotune.Tuner.seconds -. hand) /. hand));
      Report.row "autotune"
        [
          ("graph", Json.String w.wname);
          ("hand_tuned_seconds", Json.Float hand);
          ("autotuned_seconds", Json.Float best.Autotune.Tuner.seconds);
          ("trials", Json.Int (List.length result.Autotune.Tuner.trials));
          ( "strategy",
            Json.String
              (Schedule.strategy_to_string
                 best.Autotune.Tuner.schedule.Schedule.strategy) );
          ("delta", Json.Int best.Autotune.Tuner.schedule.Schedule.delta);
        ])
    (Lazy.force suite)

let ablation () =
  Printf.printf
    "Ablations of the scheduling knobs the paper exposes (Table 2) beyond\n\
     strategy and delta: the bucket-fusion threshold and the number of\n\
     materialized lazy buckets.\n\n";
  let p = Lazy.force pool in
  let road = List.find (fun w -> w.wname = "road-l") (Lazy.force suite) in
  let social = List.find (fun w -> w.wname = "social-l") (Lazy.force suite) in
  Printf.printf "--- configBucketFusionThreshold (SSSP on %s, delta=%d) ---\n"
    road.wname road.fusion_delta;
  Printf.printf "%-10s %10s %10s %12s\n" "threshold" "time(s)" "rounds" "fused drains";
  List.iter
    (fun fusion_threshold ->
      let r, seconds =
        time (fun () ->
            Algorithms.Sssp_delta.run ~pool:p ~graph:road.directed
              ~schedule:
                { Schedule.default with delta = road.fusion_delta; fusion_threshold }
              ~source:0 ())
      in
      Printf.printf "%-10d %10.3f %10d %12d\n" fusion_threshold seconds
        r.stats.Stats.rounds r.stats.Stats.fused_drains;
      Report.row "ablate"
        [
          ("knob", Json.String "fusion_threshold");
          ("graph", Json.String road.wname);
          ("value", Json.Int fusion_threshold);
          ("seconds", Json.Float seconds);
          ("rounds", Json.Int r.stats.Stats.rounds);
          ("fused_drains", Json.Int r.stats.Stats.fused_drains);
        ])
    [ 1; 10; 100; 1000; 10000 ];
  Printf.printf
    "\n--- configNumBuckets (k-core lazy_constant_sum on %s) ---\n" social.wname;
  Printf.printf "%-12s %10s\n" "num_buckets" "time(s)";
  List.iter
    (fun num_open_buckets ->
      let _, seconds =
        time (fun () ->
            Algorithms.Kcore.run ~pool:p ~graph:social.symmetric
              ~schedule:
                {
                  Schedule.default with
                  strategy = Schedule.Lazy_constant_sum;
                  num_open_buckets;
                }
              ())
      in
      Printf.printf "%-12d %10.3f\n" num_open_buckets seconds;
      Report.row "ablate"
        [
          ("knob", Json.String "num_open_buckets");
          ("graph", Json.String social.wname);
          ("value", Json.Int num_open_buckets);
          ("seconds", Json.Float seconds);
        ])
    [ 2; 8; 32; 128; 512; 2048 ];
  Printf.printf
    "\n--- widest path (Higher_first + updatePriorityMax), delta sweep on %s ---\n"
    road.wname;
  Printf.printf "%-10s %10s %10s\n" "delta" "time(s)" "rounds";
  List.iter
    (fun delta ->
      let r, seconds =
        time (fun () ->
            Algorithms.Widest_path.run ~pool:p ~graph:road.directed
              ~schedule:{ Schedule.default with delta }
              ~source:0 ())
      in
      Printf.printf "%-10d %10.3f %10d\n" delta seconds r.stats.Stats.rounds;
      Report.row "ablate"
        [
          ("knob", Json.String "widest_path_delta");
          ("graph", Json.String road.wname);
          ("value", Json.Int delta);
          ("seconds", Json.Float seconds);
          ("rounds", Json.Int r.stats.Stats.rounds);
        ])
    [ 1; 8; 64; 512 ]

let fig9 () =
  Printf.printf
    "Generated C++ for Δ-stepping under different schedules (paper Fig. 9;\n\
     the structural differences are also pinned by the codegen test suite).\n";
  match
    List.find_opt Sys.file_exists [ "examples/apps/sssp.gt"; "../examples/apps/sssp.gt" ]
  with
  | None -> Printf.printf "(run from the repository root to locate sssp.gt)\n"
  | Some path ->
      let source =
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      List.iter
        (fun (label, replacement) ->
          let src =
            Str.global_replace
              (Str.regexp_string "\"eager_with_fusion\"")
              replacement source
          in
          match Dsl.Lower.lower_string src with
          | Error msg -> Printf.printf "error: %s\n" msg
          | Ok lowered ->
              Printf.printf "\n----- schedule: %s -----\n%s" label
                (Dsl.Codegen_cpp.generate lowered))
        [
          ("lazy + SparsePush (Fig. 9a)", "\"lazy\"");
          ("eager, no fusion (Fig. 9c)", "\"eager_no_fusion\"");
          ("eager with bucket fusion (Fig. 7)", "\"eager_with_fusion\"");
        ]

let dsl_overhead () =
  Printf.printf
    "DSL execution overhead: the same algorithm as a compiled .gt program\n\
     (user function interpreted per edge) vs the native OCaml API (closure\n\
     compiled by ocamlopt). The paper's compiler closes this gap by emitting\n\
     C++; our interpreter pays it, which is why Table 4 times native code.\n\n";
  let p = Lazy.force pool in
  let app =
    List.find_opt Sys.file_exists
      [ "examples/apps/sssp.gt"; "../examples/apps/sssp.gt" ]
  in
  match app with
  | None -> Printf.printf "(run from the repository root to locate sssp.gt)\n"
  | Some path -> (
      match Dsl.Frontend.compile_file path with
      | Error msg -> Printf.printf "compile error: %s\n" msg
      | Ok compiled ->
          Printf.printf "%-10s %12s %12s %12s %10s\n" "graph" "native(s)"
            "dsl+load(s)" "dsl exec(s)" "overhead";
          List.iter
            (fun w ->
              let graph_path = Filename.temp_file "bench_dsl" ".el" in
              Graphs.Graph_io.write_edge_list graph_path (Csr.to_edge_list w.directed);
              Fun.protect
                ~finally:(fun () -> Sys.remove graph_path)
                (fun () ->
                  let _, native =
                    time (fun () ->
                        Algorithms.Sssp_delta.run ~pool:p ~graph:w.directed
                          ~schedule:(graphit_schedule w) ~source:0 ())
                  in
                  let _, dsl =
                    time (fun () ->
                        Dsl.Frontend.run compiled ~pool:p
                          ~argv:[| "sssp"; graph_path; "0" |] ())
                  in
                  (* The DSL run loads the graph itself; measure that part
                     so the interpretive overhead is isolated. *)
                  let _, load =
                    time (fun () ->
                        Csr.of_edge_list (Graphs.Graph_io.load graph_path))
                  in
                  let dsl_exec = Float.max 0.0 (dsl -. load) in
                  Printf.printf "%-10s %12.3f %12.3f %12.3f %9.1fx\n" w.wname native
                    dsl dsl_exec (dsl_exec /. native);
                  Report.row "dslperf"
                    [
                      ("graph", Json.String w.wname);
                      ("native_seconds", Json.Float native);
                      ("dsl_seconds", Json.Float dsl);
                      ("dsl_exec_seconds", Json.Float dsl_exec);
                      ("overhead", Json.Float (dsl_exec /. native));
                    ]))
            (Lazy.force suite))

let micro () =
  Printf.printf
    "Substrate micro-benchmarks (bechamel OLS fits, ns/run): the primitive\n\
     operations the bucket structures are built from.\n\n";
  let open Bechamel in
  let vec = Support.Int_vec.create () in
  let atomic = Parallel.Atomic_array.make 1024 max_int in
  let lazy_pri = Parallel.Atomic_array.make 4096 5 in
  let tests =
    Test.make_grouped ~name:"substrate"
      [
        Test.make ~name:"int_vec_push_clear_1024"
          (Staged.stage (fun () ->
               for i = 0 to 1023 do
                 Support.Int_vec.push vec i
               done;
               Support.Int_vec.clear vec));
        Test.make ~name:"atomic_fetch_min_1024"
          (Staged.stage (fun () ->
               for i = 0 to 1023 do
                 ignore (Parallel.Atomic_array.fetch_min atomic (i land 1023) i)
               done));
        Test.make ~name:"lazy_buckets_fill_4096"
          (Staged.stage (fun () ->
               let lb =
                 Bucketing.Lazy_buckets.create ~num_vertices:4096 ~num_open:128
                   ~source:
                     (Bucketing.Lazy_buckets.Vector
                        (lazy_pri, Bucketing.Bucket_order.Lower_first, 1))
                   ()
               in
               Bucketing.Lazy_buckets.insert_all lb;
               ignore (Bucketing.Lazy_buckets.next_bucket lb)));
        Test.make ~name:"eager_buckets_insert_4096"
          (Staged.stage (fun () ->
               let eb = Bucketing.Eager_buckets.create ~num_workers:1 ~min_key:0 () in
               for v = 0 to 4095 do
                 Bucketing.Eager_buckets.insert eb ~tid:0 ~vertex:v ~key:(v land 63)
               done));
        Test.make ~name:"prefix_sum_4096"
          (let a = Array.make 4096 3 in
           Staged.stage (fun () -> ignore (Parallel.Prefix_sum.exclusive a)));
      ]
  in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg
      ~limit:(if !smoke then 100 else 1000)
      ~quota:(Time.second (if !smoke then 0.05 else 0.25))
      ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  Hashtbl.iter
    (fun name fit ->
      match Analyze.OLS.estimates fit with
      | Some (ns :: _) ->
          Printf.printf "  %-42s %12.1f ns/run\n" name ns;
          Report.row "micro"
            [ ("name", Json.String name); ("ns_per_run", Json.Float ns) ]
      | _ -> Printf.printf "  %-42s (no estimate)\n" name)
    results

let runtime () =
  Printf.printf
    "Parallel-runtime microbenchmarks: the substrate costs the ordered\n\
     engine pays every round. Spin barrier vs the seed's pure condvar\n\
     barrier (spin_budget 0), element-closure vs range iteration, and\n\
     atomic-array throughput. NOTE: with more workers than hardware cores\n\
     (this container exposes %d), barrier latency measures timesharing,\n\
     not the barrier.\n\n"
    (Domain.recommended_domain_count ());
  let worker_counts = [ 1; 2; 4 ] in
  (* -- barrier round-trip: empty run_workers episodes -- *)
  let episodes = if !smoke then 500 else 5_000 in
  Printf.printf "--- barrier round-trip, %d empty run_workers episodes ---\n" episodes;
  Printf.printf "%8s %14s %14s %9s\n" "workers" "spin(us)" "condvar(us)" "ratio";
  List.iter
    (fun nw ->
      let measure pool =
        for _ = 1 to 100 do
          Pool.run_workers pool (fun _ -> ())
        done;
        let _, s =
          Timer.time (fun () ->
              for _ = 1 to episodes do
                Pool.run_workers pool (fun _ -> ())
              done)
        in
        1e6 *. s /. float_of_int episodes
      in
      let spin =
        let p = Pool.create ~num_workers:nw () in
        Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> measure p)
      in
      let condvar =
        let p = Pool.create ~spin_budget:0 ~num_workers:nw () in
        Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> measure p)
      in
      Printf.printf "%8d %14.2f %14.2f %8.1fx\n" nw spin condvar (condvar /. spin);
      Report.row "runtime"
        [
          ("benchmark", Json.String "barrier_round_trip");
          ("workers", Json.Int nw);
          ("spin_us", Json.Float spin);
          ("condvar_us", Json.Float condvar);
        ])
    worker_counts;
  (* -- element closure vs range chunks: summing an array -- *)
  let n = if !smoke then 200_000 else 2_000_000 in
  let data = Array.init n (fun i -> i land 7) in
  let expected = Array.fold_left ( + ) 0 data in
  let reps = if !smoke then 3 else 10 in
  Printf.printf
    "\n--- parallel_for sum over %d elements (Melem/s, best of %d) ---\n" n reps;
  Printf.printf "%8s %12s %13s %12s %12s\n" "workers" "element" "range:dyn"
    "range:static" "range:guided";
  List.iter
    (fun nw ->
      Pool.with_pool ~num_workers:nw (fun p ->
          let partials = Array.make (nw * 8) 0 in
          let collect () =
            let t = ref 0 in
            for tid = 0 to nw - 1 do
              t := !t + partials.(tid * 8)
            done;
            if !t <> expected then failwith "bad sum";
            Array.fill partials 0 (Array.length partials) 0
          in
          let best f =
            let best = ref infinity in
            for _ = 1 to reps do
              let _, s = Timer.time f in
              collect ();
              if s < !best then best := s
            done;
            float_of_int n /. !best /. 1e6
          in
          let element =
            best (fun () ->
                Pool.parallel_for_tid p ~chunk:1024 ~lo:0 ~hi:n (fun ~tid i ->
                    let slot = tid * 8 in
                    partials.(slot) <- partials.(slot) + Array.unsafe_get data i))
          in
          let range sched =
            best (fun () ->
                Pool.parallel_for_ranges_tid p ~sched ~chunk:1024 ~lo:0 ~hi:n
                  (fun ~tid ~lo ~hi ->
                    let s = ref 0 in
                    for i = lo to hi - 1 do
                      s := !s + Array.unsafe_get data i
                    done;
                    let slot = tid * 8 in
                    partials.(slot) <- partials.(slot) + !s))
          in
          Printf.printf "%8d %12.1f %13.1f %12.1f %12.1f\n" nw element
            (range Pool.Dynamic) (range Pool.Static) (range Pool.Guided)))
    worker_counts;
  (* -- atomic array throughput -- *)
  let ops = if !smoke then 200_000 else 2_000_000 in
  Printf.printf "\n--- Atomic_array throughput, %d ops total (Mops/s) ---\n" ops;
  Printf.printf "%8s %12s %14s %14s\n" "workers" "fetch_min" "fetch_add" "fetch_add+pad";
  List.iter
    (fun nw ->
      Pool.with_pool ~num_workers:nw (fun p ->
          let mops s = float_of_int ops /. s /. 1e6 in
          let spread = Parallel.Atomic_array.make 1024 max_int in
          let _, min_s =
            Timer.time (fun () ->
                Pool.parallel_for_ranges p ~chunk:4096 ~lo:0 ~hi:ops
                  (fun ~lo ~hi ->
                    for i = lo to hi - 1 do
                      ignore
                        (Parallel.Atomic_array.fetch_min spread (i land 1023)
                           (ops - i))
                    done))
          in
          (* Per-worker counters hammered in place: the padded layout keeps
             each counter on its own cache line. *)
          let per_worker = ops / nw in
          let bump counters =
            Timer.time (fun () ->
                Pool.run_workers p (fun tid ->
                    for _ = 1 to per_worker do
                      ignore (Parallel.Atomic_array.fetch_add counters tid 1)
                    done))
          in
          let _, plain_s = bump (Parallel.Atomic_array.make nw 0) in
          let _, padded_s = bump (Parallel.Atomic_array.make_padded nw 0) in
          let bump_mops s = float_of_int (per_worker * nw) /. s /. 1e6 in
          Printf.printf "%8d %12.1f %14.1f %14.1f\n" nw (mops min_s)
            (bump_mops plain_s) (bump_mops padded_s)))
    worker_counts

(* ------------------------------------------------------------------ *)
(* Query service: batching and the ALT landmark cache                   *)

let service_bench () =
  Printf.printf
    "Query service (docs/SERVICE.md): source-sharing batching amortizes\n\
     one engine run across many point queries, and a warmed ALT landmark\n\
     cache prunes A* to a corridor of the graph.\n\n";
  let p = Lazy.force pool in
  let w =
    List.fold_left
      (fun best c ->
        if Csr.num_edges c.directed > Csr.num_edges best.directed then c
        else best)
      (List.hd (Lazy.force suite))
      (Lazy.force suite)
  in
  let handle = dir_handle w in
  let schedule = graphit_schedule w in
  let n = Csr.num_vertices w.directed in
  let num_queries = if !smoke then 8 else 48 in
  let targets = List.init num_queries (fun i -> 1 + ((i * 6967) mod (n - 1))) in
  let mk_core ~max_batch ~landmarks =
    Service.Core.create ~pool:p ~handle
      ~config:
        {
          Service.Config.queue_capacity = 4096;
          max_batch;
          default_deadline_ms = 0.;
          landmarks;
          schedule;
          slow_query_ms = 0.;
          graph_file = None;
          symmetric = false;
          compact_ops = 4096;
        }
      ()
  in
  (* Submit the whole burst, then drain: exactly what the server's
     runner thread does when clients pile up. *)
  let run_burst core ops =
    let pending = ref (List.length ops) in
    List.iteri
      (fun i op ->
        Service.Core.submit core
          { Service.Protocol.id = i; op; deadline_ms = None }
          ~reply:(fun resp ->
            (match resp.Service.Protocol.status with
            | Service.Protocol.Ok -> ()
            | _ -> failwith "service bench: non-ok reply");
            decr pending))
      ops;
    while !pending > 0 do
      ignore (Service.Core.process_pending core ~wait:false)
    done
  in
  let ppsp_ops =
    List.map (fun t -> Service.Protocol.Ppsp { source = 0; target = t }) targets
  in
  let solo_core = mk_core ~max_batch:1 ~landmarks:0 in
  let batch_core = mk_core ~max_batch:4096 ~landmarks:0 in
  let (), solo = time_stats (fun () -> run_burst solo_core ppsp_ops) in
  let (), batched = time_stats (fun () -> run_burst batch_core ppsp_ops) in
  let qps s = float_of_int num_queries /. s in
  Printf.printf
    "ppsp burst on %s: %d queries, one source\n\
    \  max-batch=1  %8.4f s  (%8.1f q/s)\n\
    \  batched      %8.4f s  (%8.1f q/s)  -> %.1fx throughput\n\n"
    w.wname num_queries solo.Timer.median
    (qps solo.Timer.median)
    batched.Timer.median
    (qps batched.Timer.median)
    (solo.Timer.median /. batched.Timer.median);
  Report.row "service"
    [
      ("experiment", Json.String "ppsp_batching");
      ("graph", Json.String w.wname);
      ("queries", Json.Int num_queries);
      ("unbatched_seconds", Json.Float solo.Timer.median);
      ("batched_seconds", Json.Float batched.Timer.median);
      ("throughput_gain", Json.Float (solo.Timer.median /. batched.Timer.median));
    ];
  (* ALT: same A* query cold (h = 0, i.e. plain ppsp ordering) and with
     the warmed landmark bounds, on the road workload where the corridor
     effect is what the paper's Section 6.1 exploits. The farthest
     reachable vertex makes it visible; answers must agree (the
     heuristic is consistent). *)
  let w =
    List.fold_left
      (fun best c ->
        if
          is_road c
          && (not (is_road best))
          || is_road c && Csr.num_edges c.directed > Csr.num_edges best.directed
        then c
        else best)
      (List.hd (Lazy.force suite))
      (Lazy.force suite)
  in
  let handle = dir_handle w in
  let schedule = graphit_schedule w in
  let landmarks = 4 in
  let alt = Service.Alt.create ~pool:p ~handle ~schedule ~landmarks () in
  let (), warm_seconds = Timer.time (fun () -> ignore (Service.Alt.warm_all alt)) in
  let dist =
    (Algorithms.Sssp_delta.run ~pool:p ~graph:w.directed ~handle ~schedule
       ~source:0 ())
      .Algorithms.Sssp_delta.dist
  in
  let target = ref 0 in
  let best = ref (-1) in
  Array.iteri
    (fun v d ->
      if d <> Bucketing.Bucket_order.null_priority && d > !best then begin
        best := d;
        target := v
      end)
    dist;
  let target = !target in
  let astar heuristic () =
    Algorithms.Astar.run ~pool:p ~graph:w.directed ?heuristic ~handle ~schedule
      ~source:0 ~target ()
  in
  let r_cold, cold = time_stats (astar None) in
  let r_warm, warm = time_stats (astar (Service.Alt.heuristic alt ~target)) in
  assert (r_cold.Algorithms.Astar.distance = r_warm.Algorithms.Astar.distance);
  let edges r = r.Algorithms.Astar.stats.Stats.edges_relaxed in
  Printf.printf
    "astar 0 -> %d on %s (distance %d, %d landmarks, warm cost %.4f s)\n\
    \  cold (h=0)   %8.4f s  %9d edges relaxed\n\
    \  ALT-warmed   %8.4f s  %9d edges relaxed  -> %.1fx faster, %.1fx fewer edges\n"
    target w.wname r_cold.Algorithms.Astar.distance landmarks warm_seconds
    cold.Timer.median (edges r_cold) warm.Timer.median (edges r_warm)
    (cold.Timer.median /. warm.Timer.median)
    (float_of_int (edges r_cold) /. float_of_int (max 1 (edges r_warm)));
  Report.row "service"
    [
      ("experiment", Json.String "astar_alt");
      ("graph", Json.String w.wname);
      ("landmarks", Json.Int landmarks);
      ("warm_cost_seconds", Json.Float warm_seconds);
      ("cold_seconds", Json.Float cold.Timer.median);
      ("warm_seconds", Json.Float warm.Timer.median);
      ("cold_edges_relaxed", Json.Int (edges r_cold));
      ("warm_edges_relaxed", Json.Int (edges r_warm));
      ("speedup", Json.Float (cold.Timer.median /. warm.Timer.median));
      ("distance", Json.Int r_cold.Algorithms.Astar.distance);
    ]

(* ------------------------------------------------------------------ *)
(* Dynamic graphs: mutation throughput, incremental repair, compaction  *)

let dynamic_bench () =
  Printf.printf
    "Dynamic graphs (docs/INTERNALS.md): Delta batches commit fresh CSR\n\
     versions, incremental SSSP repairs the previous answer outward from\n\
     the affected frontier, and compaction truncates the delta log while\n\
     queries keep their pinned snapshots.\n\n";
  let p = Lazy.force pool in
  let w =
    List.fold_left
      (fun best c ->
        if Csr.num_edges c.directed > Csr.num_edges best.directed then c
        else best)
      (List.hd (Lazy.force suite))
      (Lazy.force suite)
  in
  let g = w.directed in
  let n = Csr.num_vertices g in
  let schedule = graphit_schedule w in
  let rng = Rng.create 4242 in
  (* A random live edge, for deletes and reweights that actually bite. *)
  let live_edge g =
    let deg = Csr.out_degrees_cached g in
    let rec pick tries =
      if tries = 0 then None
      else
        let u = Rng.int rng n in
        if deg.(u) = 0 then pick (tries - 1)
        else begin
          let k = Rng.int rng deg.(u) in
          let i = ref 0 in
          let hit = ref None in
          Csr.iter_out g u (fun v _w ->
              if !i = k then hit := Some (u, v);
              incr i);
          !hit
        end
    in
    pick 32
  in
  let insert () =
    Delta.Insert
      { src = Rng.int rng n; dst = Rng.int rng n; weight = 1 + Rng.int rng 999 }
  in
  let gen_batch g ~ops =
    Array.init ops (fun _ ->
        match Rng.int rng 4 with
        | 0 | 1 -> insert ()
        | 2 -> (
            match live_edge g with
            | Some (src, dst) ->
                Delta.Reweight { src; dst; weight = 1 + Rng.int rng 999 }
            | None -> insert ())
        | _ -> (
            match live_edge g with
            | Some (src, dst) -> Delta.Delete { src; dst }
            | None -> insert ()))
  in
  (* -- update-batch throughput: each commit applies the batch into a
     fresh CSR version, so this measures the full cost a serving process
     pays per mutate op -- *)
  let num_batches = if !smoke then 8 else 48 in
  let ops_per_batch = if !smoke then 16 else 256 in
  let v = Versioned.create g in
  let (), commit_seconds =
    Timer.time (fun () ->
        for _ = 1 to num_batches do
          let live = Handle.csr (Versioned.latest v) in
          ignore (Versioned.commit v (gen_batch live ~ops:ops_per_batch))
        done)
  in
  let total_ops = num_batches * ops_per_batch in
  let ops_s = float_of_int total_ops /. commit_seconds in
  Printf.printf
    "update throughput on %s (%d vertices, %d edges):\n\
    \  %d batches x %d ops  %8.4f s  -> %10.0f edge ops/s (%.2f ms/commit)\n\n"
    w.wname n (Csr.num_edges g) num_batches ops_per_batch commit_seconds ops_s
    (1000. *. commit_seconds /. float_of_int num_batches);
  Report.row "dynamic"
    [
      ("experiment", Json.String "update_throughput");
      ("graph", Json.String w.wname);
      ("batches", Json.Int num_batches);
      ("ops_per_batch", Json.Int ops_per_batch);
      ("seconds", Json.Float commit_seconds);
      ("ops_per_second", Json.Float ops_s);
    ];
  (* -- compaction pause: the log built above is rebuilt into a fresh
     hot base; this is the stall a background compactor hides -- *)
  let (), pause =
    Timer.time (fun () -> ignore (Versioned.compact v))
  in
  Printf.printf "compaction after %d commits: %8.4f s pause\n\n" num_batches pause;
  Report.row "dynamic"
    [
      ("experiment", Json.String "compaction_pause");
      ("graph", Json.String w.wname);
      ("commits_folded", Json.Int num_batches);
      ("seconds", Json.Float pause);
    ];
  (* -- incremental repair vs from-scratch, against affected-set size:
     small batches repair a corridor; ever-larger batches converge on
     (and eventually fall back to) the full recompute -- *)
  let prev =
    (Algorithms.Sssp_delta.run ~pool:p ~graph:g ~handle:(dir_handle w)
       ~schedule ~source:0 ())
      .Algorithms.Sssp_delta.dist
  in
  let sizes = if !smoke then [ 1; 16 ] else [ 1; 16; 128; 1024 ] in
  Printf.printf "incremental repair vs from-scratch (source 0, %s):\n%8s %10s %12s %12s %9s %s\n"
    w.wname "ops" "affected" "incr (s)" "full (s)" "speedup" "fellback";
  List.iter
    (fun ops ->
      let batch = gen_batch g ~ops in
      let g' = Delta.apply g batch in
      let h' = Handle.create g' in
      let affected = ref 0 in
      let fell_back = ref false in
      let r_inc, inc =
        time_stats (fun () ->
            let r =
              Algorithms.Sssp_delta.run_incremental ~pool:p ~old_graph:g
                ~graph:g' ~handle:h' ~schedule ~source:0 ~batch ~prev ()
            in
            affected := r.Algorithms.Sssp_delta.affected;
            fell_back := r.Algorithms.Sssp_delta.fell_back;
            r)
      in
      let r_full, full =
        time_stats (fun () ->
            Algorithms.Sssp_delta.run ~pool:p ~graph:g' ~handle:h' ~schedule
              ~source:0 ())
      in
      assert (
        r_inc.Algorithms.Sssp_delta.result.Algorithms.Sssp_delta.dist
        = r_full.Algorithms.Sssp_delta.dist);
      let speedup = full.Timer.median /. inc.Timer.median in
      Printf.printf "%8d %10d %12.5f %12.5f %8.1fx %b\n" ops !affected
        inc.Timer.median full.Timer.median speedup !fell_back;
      Report.row "dynamic"
        [
          ("experiment", Json.String "incremental_vs_full");
          ("graph", Json.String w.wname);
          ("ops", Json.Int ops);
          ("affected", Json.Int !affected);
          ("incremental_seconds", Json.Float inc.Timer.median);
          ("full_seconds", Json.Float full.Timer.median);
          ("speedup", Json.Float speedup);
          ("fell_back", Json.Bool !fell_back);
        ])
    sizes

let sections =
  [
    ("fig1", "Figure 1: ordered vs unordered speedup", fig1);
    ("tab4", "Table 4: running times across frameworks", tab4);
    ("fig4", "Figure 4: slowdown heatmap vs fastest", fig4);
    ("tab5", "Table 5: lines of code", tab5);
    ("tab6", "Table 6: bucket fusion", tab6);
    ("tab7", "Table 7: eager vs lazy bucket updates", tab7);
    ("fig11", "Figure 11: scalability", fig11);
    ("delta", "Section 6.2: delta selection", delta_sweep);
    ("traverse", "Traversal kernel: push vs pull vs hybrid (SSSP)", traverse_bench);
    ("graphbin", "Binary graph format: load speed vs text parsing", graphbin_bench);
    ("autotune", "Section 6.2: autotuning", autotune_bench);
    ("ablate", "Ablations: fusion threshold, bucket window, widest path", ablation);
    ("dslperf", "DSL interpretation overhead vs native API", dsl_overhead);
    ("fig9", "Figure 9: generated code", fig9);
    ("micro", "Substrate micro-benchmarks", micro);
    ("runtime", "Parallel-runtime microbenchmarks", runtime);
    ("service", "Query service: batching and the ALT cache", service_bench);
    ("dynamic", "Dynamic graphs: commits, incremental repair, compaction", dynamic_bench);
  ]

let () =
  let selected = parse_args sections in
  let tracer =
    match !trace_out with
    | None -> None
    | Some _ ->
        (* A bench run is long: a deep ring keeps a useful tail of the
           timeline even when early sections have wrapped out. *)
        let t = Observe.Tracer.create ~capacity_per_track:65536 () in
        Observe.Tracer.set_current (Some t);
        Observe.Tracer.install_pool_hooks ();
        Some t
  in
  (* Detach the process-wide worker hook even if a section raises;
     otherwise every later Pool user pays for tracing into a dead ring. *)
  Fun.protect
    ~finally:(fun () ->
      if tracer <> None then begin
        Observe.Tracer.remove_pool_hooks ();
        Observe.Tracer.set_current None
      end)
  @@ fun () ->
  Printf.printf "GraphIt ordered-extension benchmark suite\n";
  Printf.printf "workers=%d scale=%s (see EXPERIMENTS.md for methodology)\n" !workers
    (if !big then "big" else "default");
  List.iter
    (fun wl ->
      Printf.printf "  %-10s ~ %-22s |V|=%-7d |E|=%-8d\n" wl.wname wl.paper_analog
        (Csr.num_vertices wl.directed) (Csr.num_edges wl.directed))
    (Lazy.force suite);
  List.iter (fun (id, title, f) -> section id title f) selected;
  (match (tracer, !trace_out) with
  | Some t, Some path ->
      Observe.Tracer.set_current None;
      Observe.Tracer.write t path;
      Printf.printf "\nwrote timeline trace to %s (%d events; open in \
                     ui.perfetto.dev)\n" path (Observe.Tracer.event_count t)
  | _ -> ());
  Report.write
    ~meta:
      (Json.Obj
         (Report.provenance ()
         @ [
           ("workers", Json.Int !workers);
           ("scale", Json.String (if !big then "big" else "default"));
           ("smoke", Json.Bool !smoke);
           ("repeats", Json.Int (effective_repeats ()));
           ("layout", Json.String (Layout.kind_to_string !bench_layout));
           ("reorder", Json.String (Reorder.kind_to_string !bench_reorder));
           ( "suite",
             Json.List
               (List.map
                  (fun wl ->
                    Json.Obj
                      [
                        ("name", Json.String wl.wname);
                        ("paper_analog", Json.String wl.paper_analog);
                        ("num_vertices", Json.Int (Csr.num_vertices wl.directed));
                        ("num_edges", Json.Int (Csr.num_edges wl.directed));
                      ])
                  (Lazy.force suite)) );
         ]));
  Pool.shutdown (Lazy.force pool)
