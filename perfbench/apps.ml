(* The two in-process application workloads. Each builds its graph views
   once, then runs [streams] closed loops of seeded application calls at
   once, in forked processes, through the public [Algorithms.*.run] entry
   points. Every call is timed, and each process judges every distinct
   result it produced against [Check.Oracle.default] once the timed
   window is over. *)

open Common
module Csr = Graphs.Csr
module Handle = Graphs.Handle
module Schedule = Ordered.Schedule
module Stats = Ordered.Stats

type kind = Road | Social

(* ~160K vertices / ~640K edges, and 2^14 vertices / ~260K edges. *)
let road_side = 400
let social_scale = 14
let social_edge_factor = 16

(* One worker: on a 2-vCPU VM two workers made every timing vary 2x as
   much from run to run, and one worker makes every run's work counters
   exact. The pool still runs each round as an inline episode. *)
let workers = 1

(* Independent closed loops measured at once, each in its own process
   with a one-worker pool: one per vCPU of a 2-vCPU VM. The host slows
   each vCPU by up to 1.6x in stretches of seconds, independently (two
   integer loops pinned to the two vCPUs had speed correlation -0.02),
   so summing two loops averages two draws of that noise. A two-worker
   pool instead waits at every round barrier for the slower vCPU. *)
let streams = 2

(* Distinct sources (or source/target pairs) per application; the loop
   cycles through them, so each distinct result is judged once. *)
let keys_per_app = 8

let graph_file dir = function
  | Road -> Filename.concat dir "road.txt"
  | Social -> Filename.concat dir "social.txt"

let coords_file dir = graph_file dir Road ^ ".coords"

let generate ~dir ~seed kind =
  let rng = Support.Rng.create seed in
  let path = graph_file dir kind in
  match kind with
  | Road ->
      let el, coords =
        Graphs.Generators.road_grid ~rng ~rows:road_side ~cols:road_side ()
      in
      Graphs.Graph_io.write_edge_list path el;
      Graphs.Graph_io.write_coords (coords_file dir) coords
  | Social ->
      let el =
        Graphs.Generators.rmat ~rng ~scale:social_scale
          ~edge_factor:social_edge_factor ()
        |> Graphs.Generators.assign_weights ~rng ~lo:1 ~hi:1000
      in
      Graphs.Graph_io.write_edge_list path el

(* Every graph view the runs use. Road grids are symmetric by
   construction, so one handle serves every road application. *)
type views = {
  dir : Handle.t;
  wbfs : Handle.t;  (** weights in the paper's wBFS range [1, log2 n) *)
  sym : Handle.t;
  coords : Graphs.Coords.t option;
}

let load dir kind =
  let el = Graphs.Graph_io.load (graph_file dir kind) in
  let coords =
    match kind with
    | Road -> Some (Graphs.Graph_io.read_coords (coords_file dir))
    | Social -> None
  in
  (el, coords)

let build_views kind (el, coords) =
  match kind with
  | Road ->
      let h = Handle.of_edge_list el in
      { dir = h; wbfs = h; sym = h; coords }
  | Social ->
      let dir = Handle.of_edge_list el in
      Handle.prewarm dir;
      let range = social_scale - 1 in
      let wbfs =
        Handle.of_edge_list
          (Graphs.Edge_list.map_weights (fun e -> 1 + (e.weight mod range)) el)
      in
      Handle.prewarm wbfs;
      let sym = Handle.of_edge_list (Graphs.Edge_list.symmetrized el) in
      { dir; wbfs; sym; coords }

(* ------------------------------------------------------------------ *)
(* Applications                                                        *)

let null = Bucketing.Bucket_order.null_priority
let oracle = Check.Oracle.default

type outcome = {
  key : string;  (** runs with the same key must return the same value *)
  value : int array;
  verify : unit -> (unit, string) result;  (** the oracle's verdict *)
  stats : Stats.t option;
  reached : int;  (** vertices given a final distance; 0 when unknown *)
}

type app = { name : string; run : Parallel.Pool.t -> int -> outcome }

let reached dist = Array.fold_left (fun n d -> if d <> null then n + 1 else n) 0 dist

(* [key] names the expected distance array: road SSSP and wBFS run on one
   graph, so they share keys and the oracle judges each source once. *)
let sssp_outcome ~key ~graph ~source (r : Algorithms.Sssp_delta.result) =
  {
    key = Printf.sprintf "%s/%d" key source;
    value = r.dist;
    verify = (fun () -> oracle.sssp graph ~source r.dist);
    stats = Some r.stats;
    reached = reached r.dist;
  }

let point_outcome ~name ~graph ~source ~target distance stats =
  {
    key = Printf.sprintf "%s/%d/%d" name source target;
    value = [| distance |];
    verify = (fun () -> oracle.ppsp graph ~source ~target distance);
    stats = Some stats;
    reached = 0;
  }

(* Social sources are drawn from vertices of at least average out-degree,
   which lie in the giant component, so every full run covers about the
   same part of the graph. *)
let pick_sources rng csr =
  let n = Csr.num_vertices csr in
  Array.init keys_per_app (fun _ ->
      let rec go () =
        let v = Support.Rng.int rng n in
        if Csr.out_degree csr v >= social_edge_factor then v else go ()
      in
      go ())

(* Full-graph road sources: one per quadrant, jittered by the seed, so
   each run covers the same mix of eccentricities. Four, because the
   oracle's Bellman-Ford cross-check costs about a second per source. *)
let road_sources rng =
  let q = road_side / 4 and j = road_side / 16 in
  Array.map
    (fun (r, c) ->
      let r = r + Support.Rng.int_range rng (-j) j and c = c + Support.Rng.int_range rng (-j) j in
      (r * road_side) + c)
    [| (q, q); (q, 3 * q); (3 * q, q); (3 * q, 3 * q) |]

(* Point-to-point pairs a quarter of the grid apart (Manhattan distance
   between side/4 and side/2), so every pair costs about the same. *)
let pick_pairs rng =
  Array.init keys_per_app (fun _ ->
      let rec go () =
        let r1 = Support.Rng.int rng road_side and c1 = Support.Rng.int rng road_side in
        let r2 = Support.Rng.int rng road_side and c2 = Support.Rng.int rng road_side in
        let d = abs (r1 - r2) + abs (c1 - c2) in
        if d >= road_side / 4 && d <= road_side / 2 then
          ((r1 * road_side) + c1, (r2 * road_side) + c2)
        else go ()
      in
      go ())

let road_delta = 1024
let social_delta = 32

let apps kind views ~seed =
  let rng = Support.Rng.create (seed + 7919) in
  let g = Handle.csr views.dir in
  match kind with
  | Road ->
      let sources = road_sources rng in
      let pairs = pick_pairs rng in
      let sched =
        { Schedule.default with strategy = Schedule.Eager_with_fusion; delta = road_delta }
      in
      let handle = views.dir in
      [
        {
          name = "sssp";
          run =
            (fun pool i ->
              let source = sources.(i mod 4) in
              sssp_outcome ~key:"dist" ~graph:g ~source
                (Algorithms.Sssp_delta.run ~pool ~graph:g ~handle ~schedule:sched
                   ~source ()));
        };
        {
          name = "ppsp";
          run =
            (fun pool i ->
              let source, target = pairs.(i) in
              let r =
                Algorithms.Ppsp.run ~pool ~graph:g ~handle ~schedule:sched ~source
                  ~target ()
              in
              point_outcome ~name:"ppsp" ~graph:g ~source ~target r.distance r.stats);
        };
        {
          name = "astar";
          run =
            (fun pool i ->
              let source, target = pairs.((i + 3) mod keys_per_app) in
              let r =
                Algorithms.Astar.run ~pool ~graph:g ?coords:views.coords ~handle
                  ~schedule:sched ~source ~target ()
              in
              point_outcome ~name:"astar" ~graph:g ~source ~target r.distance r.stats);
        };
        {
          name = "wbfs";
          run =
            (fun pool i ->
              let source = sources.((i + 2) mod 4) in
              sssp_outcome ~key:"dist" ~graph:g ~source
                (Algorithms.Wbfs.run ~pool ~graph:g ~handle ~schedule:Schedule.default
                   ~source ()));
        };
        {
          name = "kcore";
          run =
            (fun pool _ ->
              let r = Algorithms.Kcore.run ~pool ~graph:g ~handle ~schedule:Schedule.default () in
              {
                key = "kcore";
                value = r.coreness;
                verify = (fun () -> oracle.kcore g r.coreness);
                stats = Some r.stats;
                reached = 0;
              });
        };
      ]
  | Social ->
      let hybrid =
        { Schedule.default with strategy = Schedule.Lazy; traversal = Schedule.Hybrid }
      in
      let sources = pick_sources rng g in
      let gw = Handle.csr views.wbfs and gs = Handle.csr views.sym in
      [
        {
          name = "sssp";
          run =
            (fun pool i ->
              let source = sources.(i) in
              sssp_outcome ~key:"sssp" ~graph:g ~source
                (Algorithms.Sssp_delta.run ~pool ~graph:g ~handle:views.dir
                   ~schedule:{ hybrid with delta = social_delta } ~source ()));
        };
        {
          name = "wbfs";
          run =
            (fun pool i ->
              let source = sources.((i + 3) mod keys_per_app) in
              sssp_outcome ~key:"wbfs" ~graph:gw ~source
                (Algorithms.Wbfs.run ~pool ~graph:gw ~handle:views.wbfs ~schedule:hybrid
                   ~source ()));
        };
        {
          name = "kcore";
          run =
            (fun pool _ ->
              let r =
                Algorithms.Kcore.run ~pool ~graph:gs ~handle:views.sym
                  ~schedule:{ Schedule.default with strategy = Schedule.Lazy_constant_sum }
                  ()
              in
              {
                key = "kcore";
                value = r.coreness;
                verify = (fun () -> oracle.kcore gs r.coreness);
                stats = Some r.stats;
                reached = 0;
              });
        };
        {
          name = "setcover";
          run =
            (fun pool _ ->
              let r =
                Algorithms.Setcover.run ~pool ~graph:gs ~handle:views.sym
                  ~schedule:{ Schedule.default with strategy = Schedule.Lazy }
                  ()
              in
              let chosen = ref [] in
              Array.iteri (fun v c -> if c then chosen := v :: !chosen) r.in_cover;
              let stats = Stats.create () in
              stats.rounds <- r.rounds;
              stats.bucket_inserts <- r.bucket_inserts;
              {
                key = "setcover";
                value = Array.of_list !chosen;
                verify = (fun () -> oracle.setcover gs r);
                stats = Some stats;
                reached = 0;
              });
        };
      ]

(* One cycle runs every application once, and one of them twice, chosen
   so the median run falls inside a band of similar latencies rather than
   in the gap between two: on road, k-core (the same whole-graph work
   every time) lifts the median out of the gap between the point queries
   and the full SSSP runs; on social, the second SSSP does. *)
let cycle kind apps =
  let again name = List.find (fun a -> a.name = name) apps in
  match kind with
  | Road -> apps @ [ again "kcore" ]
  | Social -> again "sssp" :: apps

(* ------------------------------------------------------------------ *)
(* The timed loop                                                      *)

type sample = { app : string; seconds : float; stats : Stats.t option; reached : int }

(* The distinct results of each key; each is judged by the oracle once,
   after the timed window. Only distinct values are kept, so memory does
   not grow with the number of runs. *)
type variant = { value : int array; verify : unit -> (unit, string) result; mutable runs : int }

let record results (o : outcome) =
  let vs =
    match Hashtbl.find_opt results o.key with
    | Some vs -> vs
    | None ->
        let vs = ref [] in
        Hashtbl.add results o.key vs;
        vs
  in
  match List.find_opt (fun v -> v.value = o.value) !vs with
  | Some v -> v.runs <- v.runs + 1
  | None -> vs := { value = o.value; verify = o.verify; runs = 1 } :: !vs

(* Runs whose result the oracle rejects. *)
let judge results =
  Hashtbl.fold
    (fun key vs failed ->
      List.fold_left
        (fun failed v ->
          match v.verify () with
          | Ok () -> failed
          | Error msg ->
              Printf.eprintf "oracle mismatch on %s (%d runs): %s\n%!" key v.runs msg;
              failed + v.runs)
        failed !vs)
    results 0

(* Runs whole cycles, at least one, until [seconds] have passed; cycle
   [c] gives each application query index [c mod keys_per_app]. Returns
   the samples, the window's length and every cycle's length. *)
let closed_loop ~pool ~results ~seconds ~first_cycle runs =
  let samples = ref [] and cycles = ref [] in
  let t0 = now () in
  let rec loop c =
    let start = now () in
    List.iter
      (fun a ->
        let o, dt = time (fun () -> a.run pool (c mod keys_per_app)) in
        record results o;
        samples := { app = a.name; seconds = dt; stats = o.stats; reached = o.reached } :: !samples)
      runs;
    cycles := (now () -. start) :: !cycles;
    if now () -. t0 < seconds then loop (c + 1) else c + 1
  in
  let next = loop first_cycle in
  (List.rev !samples, !cycles, next)

let app_names = [ "sssp"; "ppsp"; "astar"; "wbfs"; "kcore"; "setcover" ]

(* Per-layer metrics of one traced window: flight-recorder histograms and
   counters diffed around it, plus the [Stats] the runs returned. *)
let layer_metrics ~snap ~samples ~untraced =
  let sum f = List.fold_left (fun acc s -> match s.stats with Some st -> acc + f st | None -> acc) 0 samples in
  let rounds = sum (fun s -> s.rounds) in
  let edges = sum (fun s -> s.edges_relaxed) in
  let barrier =
    List.fold_left
      (fun acc s -> match s.stats with Some st -> acc +. st.sync_seconds | None -> acc)
      0. samples
  in
  let full = List.filter (fun s -> s.reached > 0) samples in
  let reached = List.fold_left (fun acc s -> acc + s.reached) 0 full in
  let processed =
    List.fold_left
      (fun acc s -> match s.stats with Some st -> acc + st.vertices_processed | None -> acc)
      0 full
  in
  let round_h = hist snap "engine.round" in
  let push_s = hist_total_s snap "traverse.push" and pull_s = hist_total_s snap "traverse.pull" in
  let app_ms name =
    match List.filter (fun s -> s.app = name) untraced with
    | [] -> 0.
    | l -> 1000. *. median (List.map (fun s -> s.seconds) l)
  in
  [
    ("pool.episodes", float_of_int (counter snap "pool.episodes"));
    ("pool.barrier_wait_s", barrier);
    ("engine.rounds", float_of_int rounds);
    ("engine.global_syncs", float_of_int (sum (fun s -> s.global_syncs)));
    ( "engine.round_us",
      match round_h with
      | Some h when h.count > 0 -> float_of_int h.total_ns /. 1e3 /. float_of_int h.count
      | _ -> 0. );
    ("engine.useful_ratio", ratio reached processed);
    ("bucketing.inserts", float_of_int (sum (fun s -> s.bucket_inserts)));
    ("bucketing.fused_drains", float_of_int (sum (fun s -> s.fused_drains)));
    ("bucketing.dequeue_s", hist_total_s snap "engine.dequeue");
    ("bucketing.bulk_update_s", hist_total_s snap "pq.bulk_update");
    ("traverse.edges_relaxed", float_of_int edges);
    ("traverse.pull_rounds", float_of_int (sum (fun s -> s.pull_rounds)));
    ("traverse.push_s", push_s);
    ("traverse.pull_s", pull_s);
    ("traverse.ns_per_edge", (push_s +. pull_s) *. 1e9 /. float_of_int (max 1 edges));
  ]
  @ List.map (fun a -> ("app." ^ a ^ "_ms", app_ms a)) app_names

(* Runs completed per second of one loop's window. The host's speed
   swings by up to 1.6x over periods of seconds, so a window mixes fast
   and slow stretches. Over five 30 s single-loop runs per workload this
   mean spread 17-19% (quartile distance over median) where the median
   cycle spread 21-25%: the median flips between the two speeds when
   neither holds most of the window. *)
let throughput runs cycles =
  float_of_int (List.length runs * List.length cycles) /. List.fold_left ( +. ) 0. cycles

let setup_reps = 7

(* One measured loop: a warm-up cycle, the window, then the oracle's
   verdict on every distinct result it produced. *)
type stream = {
  runs : (string * float) list;  (** application, latency in ms *)
  cycles : float list;
  mem_mb : float;  (** [VmHWM], read before the oracle runs *)
  failed : int;
}

let stream ~seconds runs =
  let results = Hashtbl.create 64 in
  (* A forked child shares the set-up's heap copy-on-write; a full
     collection writes to every live block, so the copying happens here
     rather than in the window. *)
  Gc.full_major ();
  Parallel.Pool.with_pool ~num_workers:workers (fun pool ->
      (* One unmeasured cycle fills the lazily built work buffers. *)
      ignore (closed_loop ~pool ~results ~seconds:0. ~first_cycle:0 runs);
      let samples, cycles, _ = closed_loop ~pool ~results ~seconds ~first_cycle:1 runs in
      let mem_mb = peak_mem_mb "self" in
      let failed, judge_s = time (fun () -> judge results) in
      Printf.eprintf "  oracle checks took %.1f s\n%!" judge_s;
      { runs = List.map (fun s -> (s.app, 1000. *. s.seconds)) samples; cycles; mem_mb; failed })

(* Starts [f] in a forked child; the returned function waits for the
   child and returns what [f] returned. *)
let fork_child f =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let code =
        try
          let oc = Unix.out_channel_of_descr wr in
          Marshal.to_channel oc (f ()) [];
          close_out oc;
          0
        with e ->
          prerr_endline (Printexc.to_string e);
          1
      in
      flush_all ();
      Unix._exit code
  | pid ->
      Unix.close wr;
      fun () ->
        let ic = Unix.in_channel_of_descr rd in
        let r = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
        close_in ic;
        match (snd (Unix.waitpid [] pid), r) with
        | Unix.WEXITED 0, Some r -> r
        | _ -> failwith "a measuring process failed"

let main ~dir ~seed ~seconds ~trace kind =
  (* Set-up repeated; the last views are the ones the runs use. Each
     repetition drops and collects the previous one's views first, so
     the peak resident set is that of one set-up, not of several. (A
     full major collection rather than a compaction: the next set-up
     reuses the freed heap instead of growing it again.) *)
  let views = ref None and reps = ref [] in
  for _ = 1 to setup_reps do
    views := None;
    Gc.full_major ();
    let loaded, load_s = time (fun () -> load dir kind) in
    let v, views_s = time (fun () -> build_views kind loaded) in
    views := Some v;
    reps := (load_s, views_s) :: !reps
  done;
  let views = Option.get !views in
  Printf.eprintf "  set-ups (load + views, s): %s\n"
    (String.concat " " (List.rev_map (fun (l, v) -> Printf.sprintf "%.3f+%.3f" l v) !reps));
  let setup_s = median (List.map (fun (l, v) -> l +. v) !reps)
  and load_s = median (List.map fst !reps)
  and views_s = median (List.map snd !reps) in
  let apps = apps kind views ~seed in
  let runs = cycle kind apps in
  if not trace then begin
    (* Both loops start before either is waited for. *)
    let waits = List.init streams (fun _ -> fork_child (fun () -> stream ~seconds runs)) in
    let measured = List.map (fun wait -> wait ()) waits in
    List.iteri
      (fun i m ->
        Printf.eprintf "  stream %d: %d cycles, ms min %.0f median %.0f max %.0f\n" i (List.length m.cycles)
          (1000. *. List.fold_left Float.min infinity m.cycles) (1000. *. median m.cycles)
          (1000. *. List.fold_left Float.max 0. m.cycles))
      measured;
    let all = List.concat_map (fun m -> m.runs) measured in
    List.iter
      (fun a ->
        let l = List.filter_map (fun (app, ms) -> if app = a.name then Some ms else None) all in
        Printf.eprintf "  %-8s runs=%3d median=%8.2f ms\n" a.name (List.length l) (median l))
      apps;
    let failed = List.fold_left (fun n m -> n + m.failed) 0 measured in
    let lat = List.map snd all in
    emit ~correct:(failed = 0) ~attempted:(List.length all) ~failed
      (Spec.end_to_end
         [
           ("setup_s", setup_s);
           ("throughput", List.fold_left (fun acc m -> acc +. throughput runs m.cycles) 0. measured);
           ("p50_ms", percentile 0.5 lat);
           ("p90_ms", percentile 0.9 lat);
           ("peak_mem_mb", List.fold_left (fun acc m -> Float.max acc m.mem_mb) 0. measured);
         ])
  end
  else begin
    (* One loop, half the window untraced, half traced: the per-layer
       numbers come from the traced half, the tracing cost from
       comparing the two halves' median cycle times. *)
    let results = Hashtbl.create 64 in
    Parallel.Pool.with_pool ~num_workers:workers (fun pool ->
        (* One unmeasured cycle fills the lazily built work buffers. *)
        ignore (closed_loop ~pool ~results ~seconds:0. ~first_cycle:0 runs);
        let half = seconds /. 2. in
        let plain, plain_cycles, next = closed_loop ~pool ~results ~seconds:half ~first_cycle:1 runs in
        Observe.Span.set_enabled true;
        Observe.Span.install_pool_hook ();
        let before = Observe.Metrics.snapshot Observe.Metrics.default in
        let traced, traced_cycles, _ = closed_loop ~pool ~results ~seconds:half ~first_cycle:next runs in
        let snap =
          Observe.Metrics.diff ~earlier:before (Observe.Metrics.snapshot Observe.Metrics.default)
        in
        Observe.Span.remove_pool_hook ();
        Observe.Span.set_enabled false;
        let failed = judge results in
        let overhead = 100. *. ((median traced_cycles /. median plain_cycles) -. 1.) in
        let layers =
          [ ("graphs.load_s", load_s); ("graphs.views_s", views_s) ]
          @ layer_metrics ~snap ~samples:traced ~untraced:plain
          @ [ ("observe.overhead_pct", overhead) ]
        in
        emit ~correct:(failed = 0) ~attempted:(List.length plain + List.length traced) ~failed
          (Spec.per_layer layers))
  end

(* Exact-count fingerprint: on one worker every run's work counters are a
   pure function of the seed. Prints one line per (application, key). *)
let fingerprint ~dir ~seed kind =
  let views = build_views kind (load dir kind) in
  let apps = apps kind views ~seed in
  Parallel.Pool.with_pool ~num_workers:1 (fun pool ->
      List.iter
        (fun a ->
          for i = 0 to keys_per_app - 1 do
            let o = a.run pool i in
            match o.stats with
            | Some s ->
                Printf.printf "%s rounds=%d edges_relaxed=%d bucket_inserts=%d fused_drains=%d\n"
                  o.key s.rounds s.edges_relaxed s.bucket_inserts s.fused_drains
            | None -> ()
          done)
        apps)
