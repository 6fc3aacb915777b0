(* The serve-mixed workload: a real [ordered_serve] process behind a unix
   socket, driven by one single-threaded open-loop generator over two
   connections (reads on one, mutations on the other). Arrival times are
   drawn from the seed before the window opens; every latency is measured
   from the request's intended send time, so a stall in the server is
   charged to every request it delays. *)

open Common
module J = Support.Json
module P = Service.Protocol
module Csr = Graphs.Csr
module Delta = Graphs.Delta

(* A 60x60 road grid: 3600 vertices, ~14K edges. Sixteen landmarks make
   set-up mostly real work: the server is ready after about 65 ms on
   2 vCPUs, of which about 15 ms is process start and the rest GRAPHBIN
   load and warming the landmarks (32 SSSP runs). A larger grid would
   make set-up longer, but it also makes every query slower, so fewer
   requests fit the window and the read tail spreads more from run to
   run. *)
let side = 60
let landmarks = 16

(* Server starts per run; setup_s is their median. *)
let setup_reps = 9

(* The engine's coarsening factor for every query. Road weights are
   100-600, so the default of 1 would walk thousands of near-empty
   buckets per query. *)
let delta = 1024

(* Offered load in requests per second. A read that reaches an idle
   server waits for the queue's 10 ms poll and then runs in about
   0.5 ms, so most read latencies fall evenly in 0.5-11 ms; the rest
   arrived while a commit (~14 ms with 16 landmarks), a k-core re-peel
   or a widest query held the single worker. At 100/s those held it
   about 11% of the time, which put the read p90 on the knee between
   the two groups: a slower host moved it from 12 to 20 ms on the same
   seed, and one set of ten seeds spread 36%. At 50/s (about
   5.5%) it spread 15% across five seeds; at 35/s (under 4%) it spread
   4%, and two CPU-bound processes competing for the 2 vCPUs raised it
   14% (against 36% at 50/s). 36/s keeps at least 1000 reads in a 30 s
   window. The read p90 then moves with read cost and the poll, and a
   heavy operation that doubles in cost pushes it over the knee. A lower
   rate does not help against a busy host: at 28/s the same two
   processes raised it as much, since the reads' own wake-up delays
   then set the tail. *)
let rate = 36.

(* Mix shares; ppsp takes the rest. *)
let astar_share = 0.25
let widest_share = 0.02
let kcore_share = 0.02
let mutate_share = 0.05
let ops_per_mutate = 8

(* A compaction every 22 or 23 commits: one per 12.5 s at [rate]. *)
let compact_ops = 180

(* Ppsp sources come from a few hot vertices, so queued queries share
   engine runs in the batcher; targets lie within [local_radius] grid
   steps of their source, like most route queries. *)
let hot_sources = 8
let local_radius = side / 4

(* A run whose generator sent its 99th-percentile request later than
   this behind schedule is invalid: the offered load was not the one
   intended. On a 2-vCPU VM, host steal time alone puts the p99 at
   3-20 ms. *)
let max_late_p99_ms = 50.

(* Replies still missing this long after the last send count as failed. *)
let drain_s = 15.

(* Oracle re-checks per read op, drawn from the seed. *)
let checks_per_op = 40

let bin_file dir = Filename.concat dir "serve.bin"
let coords_file dir = Filename.concat dir "serve.coords"
let sock_file dir = Filename.concat dir "serve.sock"

let generate ~dir ~seed =
  let rng = Support.Rng.create seed in
  let el, coords = Graphs.Generators.road_grid ~rng ~rows:side ~cols:side () in
  Graphs.Graph_bin.save (bin_file dir) (Csr.of_edge_list el);
  Graphs.Graph_io.write_coords (coords_file dir) coords

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)

type server = { pid : int; out : in_channel }

let spawn ~exe ~dir ~trace_file =
  let sock = sock_file dir in
  (try Sys.remove sock with Sys_error _ -> ());
  let args =
    [
      exe; "serve"; bin_file dir; "--socket"; sock; "-j"; "1"; "--warm";
      "--landmarks"; string_of_int landmarks; "--coords"; coords_file dir;
      "--compact-ops"; string_of_int compact_ops; "--delta"; string_of_int delta;
    ]
    @ match trace_file with Some f -> [ "--trace"; f ] | None -> []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let out = Unix.in_channel_of_descr rd in
  let rec ready () =
    match input_line out with
    | line when String.starts_with ~prefix:"listening on" line -> ()
    | _ -> ready ()
    | exception End_of_file -> failwith "ordered_serve exited before listening"
  in
  ready ();
  ({ pid; out }, now () -. t0)

(* Waits for the server to exit after a shutdown request or SIGTERM,
   killing it if it has not stopped within [grace] seconds. *)
let reap ?(grace = 10.) s =
  let deadline = now () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill s.pid Sys.sigkill;
        ignore (Unix.waitpid [] s.pid);
        prerr_endline "ordered_serve did not stop; killed"
    | _ -> ()
  in
  wait ();
  close_in s.out

let connect dir =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX (sock_file dir));
  fd

let send_line fd line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* The request stream                                                  *)

type op = Ppsp | Astar | Widest | Kcore | Mutate

let op_name = function
  | Ppsp -> "ppsp" | Astar -> "astar" | Widest -> "widest" | Kcore -> "kcore"
  | Mutate -> "mutate"

type request = {
  id : int;
  op : op;
  at : float;  (** intended send time, seconds after the window opens *)
  line : string;
  src : int;
  dst : int;  (** the target, or the vertex of a kcore query *)
  batch : Delta.batch;  (** empty unless [op = Mutate] *)
}

type reply = {
  mutable sent : float;
  mutable recv : float;
  mutable resp : P.response option;
}

(* Mutations touch edges of the base graph only, and never lower a
   weight below its base value: road weights are at least 100x the
   Euclidean edge length, and keeping them there keeps the server's
   coordinate heuristic admissible, so A* stays exact. *)
let mutation rng base =
  let n = Csr.num_vertices base in
  Array.init ops_per_mutate (fun _ ->
      let rec pick () =
        let u = Support.Rng.int rng n in
        let lo, hi = Csr.edge_range base u in
        if hi > lo then
          let e = lo + Support.Rng.int rng (hi - lo) in
          (u, Csr.edge_target base e, Csr.edge_weight base e)
        else pick ()
      in
      let src, dst, w = pick () in
      let roll = Support.Rng.int rng 100 in
      if roll < 15 then Delta.Delete { src; dst }
      else if roll < 30 then Delta.Insert { src; dst; weight = w * Support.Rng.int_range rng 1 3 }
      else Delta.Reweight { src; dst; weight = w * Support.Rng.int_range rng 1 3 })

(* A vertex within [local_radius] grid steps of [v]. *)
let rec near rng v =
  let r = v / side + Support.Rng.int_range rng (-local_radius) local_radius
  and c = v mod side + Support.Rng.int_range rng (-local_radius) local_radius in
  if r >= 0 && r < side && c >= 0 && c < side
     && abs (r - (v / side)) + abs (c - (v mod side)) <= local_radius
  then (r * side) + c
  else near rng v

(* Reads arrive as a Poisson stream: a fixed count placed uniformly in
   the window, which is a Poisson process conditioned on its count, so
   the offered load is exact. Mutations come from an update feed that
   commits at a steady cadence, with a seeded phase. *)
let schedule ~seed ~seconds base =
  let rng = Support.Rng.create (seed + 104729) in
  let n = Csr.num_vertices base in
  let total = max 20 (int_of_float (rate *. seconds)) in
  let count share = max 1 (int_of_float (Float.round (share *. float_of_int total))) in
  let writes = count mutate_share in
  let reads =
    List.concat_map
      (fun (op, k) -> List.init k (fun _ -> op))
      [ (Astar, count astar_share); (Widest, count widest_share); (Kcore, count kcore_share) ]
  in
  let reads = Array.of_list (reads @ List.init (total - writes - List.length reads) (fun _ -> Ppsp)) in
  Support.Rng.shuffle rng reads;
  let read_at = Array.init (Array.length reads) (fun _ -> Support.Rng.float rng *. seconds) in
  Array.sort compare read_at;
  let period = seconds /. float_of_int writes in
  let phase = Support.Rng.float rng *. period in
  let arrivals =
    Array.append
      (Array.mapi (fun i op -> (read_at.(i), op)) reads)
      (Array.init writes (fun k -> (phase +. (float_of_int k *. period), Mutate)))
  in
  Array.stable_sort (fun (a, _) (b, _) -> compare a b) arrivals;
  let hot = Array.init hot_sources (fun _ -> Support.Rng.int rng n) in
  Array.mapi
    (fun i (at, op) ->
      let id = i + 1 in
      let v () = Support.Rng.int rng n in
      let src, dst =
        match op with
        | Ppsp ->
            let src = hot.(Support.Rng.int rng hot_sources) in
            (src, near rng src)
        | _ -> (v (), v ())
      in
      let batch = if op = Mutate then mutation rng base else [||] in
      let fields =
        match op with
        | Ppsp | Astar | Widest -> Printf.sprintf {|"source": %d, "target": %d|} src dst
        | Kcore -> Printf.sprintf {|"vertex": %d|} dst
        | Mutate -> Printf.sprintf {|"ops": "%s"|} (Delta.to_string batch)
      in
      let line = Printf.sprintf {|{"id": %d, "op": "%s", %s}|} id (op_name op) fields in
      { id; op; at; line; src; dst; batch })
    arrivals

(* ------------------------------------------------------------------ *)
(* The open loop                                                       *)

(* Reads replies from [fd] into [buf], handing each complete line to [f]. *)
let read_replies fd buf chunk f =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "server closed a connection"
  | k ->
      Buffer.add_subbytes buf chunk 0 k;
      let s = Buffer.contents buf in
      let lines = String.split_on_char '\n' s in
      let rec go = function
        | [ rest ] ->
            Buffer.clear buf;
            Buffer.add_string buf rest
        | line :: tl ->
            f line;
            go tl
        | [] -> ()
      in
      go lines

let parse_response line =
  match J.of_string line with
  | Ok j -> ( match P.response_of_json j with Ok r -> r | Error e -> failwith e)
  | Error e -> failwith ("unparseable reply: " ^ e)

(* Sends [reqs] on schedule over [reads]/[writes] and collects replies.
   Returns the window start and the per-request replies. *)
let drive ~reads ~writes reqs =
  let replies = Array.map (fun _ -> { sent = nan; recv = nan; resp = None }) reqs in
  let total = Array.length reqs in
  let pending = ref total in
  let bufs = [ (reads, Buffer.create 4096); (writes, Buffer.create 4096) ] in
  let chunk = Bytes.create 65536 in
  let on_line line =
    if line <> "" then begin
      let r = parse_response line in
      let rep = replies.(r.P.rid - 1) in
      rep.recv <- now ();
      rep.resp <- Some r;
      decr pending
    end
  in
  let t0 = now () +. 0.05 in
  let next = ref 0 in
  let give_up = ref infinity in
  while !pending > 0 && now () < !give_up do
    let t = now () in
    while !next < total && t0 +. reqs.(!next).at <= t do
      let q = reqs.(!next) in
      replies.(!next).sent <- now ();
      send_line (if q.op = Mutate then writes else reads) q.line;
      incr next;
      if !next = total then give_up := now () +. drain_s
    done;
    let timeout =
      if !next < total then Float.max 0. (t0 +. reqs.(!next).at -. now ())
      else Float.max 0. (!give_up -. now ())
    in
    let ready, _, _ =
      try Unix.select [ reads; writes ] [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter (fun fd -> read_replies fd (List.assoc fd bufs) chunk on_line) ready
  done;
  (t0, replies)

(* A one-off request on [fd], answered before anything else is sent. *)
let call fd line =
  send_line fd line;
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let got = ref None in
  while !got = None do
    read_replies fd buf chunk (fun l -> if l <> "" then got := Some (parse_response l))
  done;
  Option.get !got

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)

let null = Bucketing.Bucket_order.null_priority

let int_field name = function
  | Some j -> ( match J.member name j with Some (J.Int v) -> Some v | Some J.Null -> Some null | _ -> None)
  | None -> None

(* Re-checks a seeded sample of [ok] read replies against the oracle on
   the graph version stamped in each reply's meta. Versions are rebuilt
   by replaying the committed batches with [Graphs.Delta]. Returns the
   ids whose answers were wrong. *)
let verify ~seed ~base reqs replies =
  let commits = Hashtbl.create 128 in
  Array.iteri
    (fun i q ->
      match (q.op, replies.(i).resp) with
      | Mutate, Some ({ P.status = P.Ok; _ } as r) -> (
          match int_field "version" r.result with
          | Some v -> Hashtbl.replace commits v q.batch
          | None -> failwith "mutate reply without a version")
      | _ -> ())
    reqs;
  let rng = Support.Rng.create (seed + 15485863) in
  let sample =
    List.concat_map
      (fun op ->
        let ok =
          Array.to_list reqs
          |> List.filteri (fun i q ->
                 q.op = op
                 && match replies.(i).resp with Some { P.status = P.Ok; _ } -> true | _ -> false)
          |> Array.of_list
        in
        Support.Rng.shuffle rng ok;
        Array.to_list (Array.sub ok 0 (min checks_per_op (Array.length ok))))
      [ Ppsp; Astar; Widest; Kcore ]
  in
  let version q =
    match replies.(q.id - 1).resp with
    | Some { P.meta = Some { version = Some v; _ }; _ } -> v
    | _ -> 0
  in
  let sample = List.sort (fun a b -> compare (version a) (version b)) sample in
  let graph = ref base and at = ref 0 and coreness = ref None in
  let wrong = ref [] in
  List.iter
    (fun q ->
      let v = version q in
      while !at < v do
        incr at;
        match Hashtbl.find_opt commits !at with
        | Some b ->
            graph := Delta.apply !graph b;
            coreness := None
        | None -> failwith (Printf.sprintf "reply read version %d, never committed" !at)
      done;
      let result = replies.(q.id - 1).resp |> Option.map (fun r -> r.P.result) |> Option.join in
      let expected, got =
        match q.op with
        | Ppsp | Astar ->
            (Algorithms.Dijkstra.distance_to !graph ~source:q.src ~target:q.dst, int_field "distance" result)
        | Widest ->
            ((Algorithms.Widest_path.sequential !graph ~source:q.src).(q.dst), int_field "capacity" result)
        | Kcore ->
            let c =
              match !coreness with
              | Some c -> c
              | None ->
                  let sym =
                    Csr.of_edge_list (Graphs.Edge_list.symmetrized (Csr.to_edge_list !graph))
                  in
                  let c = Algorithms.Kcore_peel_seq.coreness sym in
                  coreness := Some c;
                  c
            in
            (c.(q.dst), int_field "coreness" result)
        | Mutate -> assert false
      in
      let expected = if q.op = Widest && expected = null then 0 else expected in
      if got <> Some expected then begin
        Printf.eprintf "oracle mismatch on %s at version %d: expected %d\n%!" q.line v expected;
        wrong := q.id :: !wrong
      end)
    sample;
  (List.length sample, !wrong)

(* ------------------------------------------------------------------ *)
(* One load phase and its metrics                                      *)

type phase = {
  reqs : request array;
  replies : reply array;
  window : float;  (** window start to last reply, seconds *)
  mem_mb : float;
  stats : (J.t * J.t) option;  (** [stats] results before and after *)
  wrong : int list;
  checked : int;
}

let is_ok r = match r.resp with Some { P.status = P.Ok; _ } -> true | _ -> false

let failed_ids p =
  let bad = ref p.wrong in
  Array.iteri (fun i r -> if not (is_ok r) then bad := p.reqs.(i).id :: !bad) p.replies;
  List.sort_uniq compare !bad

(* Latency in ms from intended send time, of the replied requests [keep]. *)
let latencies p t0 keep =
  let acc = ref [] in
  Array.iteri
    (fun i r ->
      if keep p.reqs.(i) && not (Float.is_nan r.recv) then
        acc := (1000. *. (r.recv -. (t0 +. p.reqs.(i).at))) :: !acc)
    p.replies;
  !acc

let phase ~server ~dir ~seed ~seconds ~stats =
  let base = Graphs.Graph_bin.load_csr (bin_file dir) in
  let reqs = schedule ~seed ~seconds base in
  let reads = connect dir and writes = connect dir in
  (* Fill the caches once (k-core, engine work buffers) before the window. *)
  List.iteri
    (fun i l -> ignore (call reads (Printf.sprintf {|{"id": %d, %s}|} (1_000_000 + i) l)))
    [ {|"op": "ppsp", "source": 0, "target": 1000|}; {|"op": "astar", "source": 0, "target": 1000|};
      {|"op": "widest", "source": 0, "target": 1000|}; {|"op": "kcore", "vertex": 0|} ];
  let get_stats () = (call reads {|{"id": 2000000, "op": "stats"}|}).P.result |> Option.get in
  let before = if stats then Some (get_stats ()) else None in
  let t0, replies = drive ~reads ~writes reqs in
  let after = if stats then Some (get_stats ()) else None in
  let mem_mb = peak_mem_mb (string_of_int server.pid) in
  send_line reads {|{"id": 3000000, "op": "shutdown"}|};
  reap server;
  Unix.close reads;
  Unix.close writes;
  let last = Array.fold_left (fun m r -> if Float.is_nan r.recv then m else Float.max m r.recv) t0 replies in
  let window = last -. t0 in
  let checked, wrong = verify ~seed ~base reqs replies in
  let p = { reqs; replies; window; mem_mb; stats = Option.map (fun b -> (b, Option.get after)) before; wrong; checked } in
  (p, t0)

let late_p99_ms p t0 =
  percentile 0.99
    (Array.to_list (Array.mapi (fun i r -> 1000. *. (r.sent -. (t0 +. p.reqs.(i).at))) p.replies))

let is_read q = q.op <> Mutate

(* The read-latency percentile [q] of the window, taken in 5 s segments
   of intended send time and summarized by the segments' median: a burst
   of host contention shorter than half the window then moves it little,
   while a cost paid throughout the window moves every segment. *)
let segment_s = 5.

let read_percentile q p t0 ~seconds =
  let k = max 1 (int_of_float (seconds /. segment_s)) in
  let len = seconds /. float_of_int k in
  median
    (List.init k (fun i ->
         let lo = float_of_int i *. len in
         percentile q (latencies p t0 (fun r -> is_read r && r.at >= lo && r.at < lo +. len))))

(* The stats-op metric snapshot diffed across the window. *)
let service_layers (before, after) =
  let metrics j =
    match J.member "metrics" j with
    | Some m -> (
        let section name = match J.member name m with Some (J.Obj l) -> l | _ -> [] in
        let num = function J.Int v -> float_of_int v | J.Float f -> f | _ -> 0. in
        let hists =
          List.map
            (fun (name, h) ->
              let f k = match J.member k h with Some v -> num v | None -> 0. in
              (name, (f "count", f "total_ns")))
            (section "histograms")
        in
        (List.map (fun (k, v) -> (k, num v)) (section "counters"), hists))
    | None -> failwith "stats reply without metrics"
  in
  let (c0, h0), (c1, h1) = (metrics before, metrics after) in
  let c name =
    Option.value ~default:0. (List.assoc_opt name c1) -. Option.value ~default:0. (List.assoc_opt name c0)
  in
  let h name =
    let get l = Option.value ~default:(0., 0.) (List.assoc_opt name l) in
    let (n1, t1), (n0, t0) = (get h1, get h0) in
    (n1 -. n0, (t1 -. t0) /. 1e9)
  in
  let mean_ms name = let n, t = h name in if n > 0. then 1000. *. t /. n else 0. in
  let share a b = if a +. b > 0. then a /. (a +. b) else 0. in
  [
    ("service.queue_wait_ms", mean_ms "service.queue_wait");
    ("service.batch_run_ms", mean_ms "service.batch_run");
    ("service.batch_width", if c "service.batches" > 0. then c "service.batched_queries" /. c "service.batches" else 0.);
    ("service.alt_assisted_ratio", share (c "service.alt.assisted") (c "service.alt.unassisted"));
    ("service.kcore_hit_ratio", share (c "service.kcore.cache_hits") (c "service.kcore.runs"));
    ("dynamic.commit_ms", mean_ms "dynamic.commit");
    ("dynamic.alt_refreshed_ratio", share (c "dynamic.alt.refreshed") (c "dynamic.alt.kept"));
    ("dynamic.compactions", c "dynamic.compactions");
    ("dynamic.compaction_s", snd (h "dynamic.compaction"));
  ]

(* Mean microseconds per call of [f] over [items], repeated to at least
   [min_calls] calls. *)
let per_call_us items f =
  let n = List.length items in
  let reps = max 1 (20_000 / max 1 n) in
  let (), dt = time (fun () -> for _ = 1 to reps do List.iter f items done) in
  1e6 *. dt /. float_of_int (reps * n)

let protocol_layers p =
  let lines = Array.to_list (Array.map (fun q -> q.line) p.reqs) in
  let resps = List.filter_map (fun r -> r.resp) (Array.to_list p.replies) in
  [
    ("protocol.parse_us", per_call_us lines (fun l -> ignore (P.parse_request l)));
    ("protocol.serialize_us", per_call_us resps (fun r -> ignore (J.to_string (P.response_to_json r))));
  ]

let client_layers p t0 =
  let op_p50 op = percentile 0.5 (latencies p t0 (fun q -> q.op = op)) in
  let overhead =
    List.filter_map Fun.id
      (Array.to_list
         (Array.map
            (fun r ->
              match r.resp with
              | Some { P.meta = Some m; _ } -> Some ((1000. *. (r.recv -. r.sent)) -. m.P.wall_ms)
              | _ -> None)
            p.replies))
  in
  [
    ("serve.read_p99_ms", percentile 0.99 (latencies p t0 is_read));
    ("serve.write_p90_ms", percentile 0.9 (latencies p t0 (fun q -> q.op = Mutate)));
    ("net.overhead_ms", median overhead);
    ("op.ppsp_p50_ms", op_p50 Ppsp);
    ("op.astar_p50_ms", op_p50 Astar);
    ("op.widest_p50_ms", op_p50 Widest);
    ("op.kcore_p50_ms", op_p50 Kcore);
    ("gen.late_p99_ms", late_p99_ms p t0);
  ]

(* An invalid run prints no result: its offered load was not the one
   the benchmark defines. *)
let require_on_schedule p t0 =
  let late = late_p99_ms p t0 in
  Printf.eprintf "  generator lateness p99 %.3f ms\n%!" late;
  if late > max_late_p99_ms then begin
    Printf.eprintf "invalid run: generator p99 lateness %.2f ms exceeds %.0f ms\n%!" late max_late_p99_ms;
    exit 3
  end

let tally ps =
  let failed = List.fold_left (fun acc p -> acc + List.length (failed_ids p)) 0 ps in
  let attempted = List.fold_left (fun acc p -> acc + Array.length p.reqs) 0 ps in
  let correct = List.for_all (fun p -> p.wrong = []) ps in
  List.iter (fun p -> Printf.eprintf "  oracle re-checked %d replies\n" p.checked) ps;
  (correct, attempted, failed)

let main ~exe ~dir ~seed ~seconds ~trace =
  if not trace then begin
    (* Set-up repeated; the last server carries the load. *)
    let spawns =
      List.init setup_reps (fun i ->
          let s, dt = spawn ~exe ~dir ~trace_file:None in
          if i < setup_reps - 1 then begin
            Unix.kill s.pid Sys.sigterm;
            reap s
          end;
          (s, dt))
    in
    let server = fst (List.nth spawns (setup_reps - 1)) in
    Printf.eprintf "  server starts (s): %s\n"
      (String.concat " " (List.map (fun (_, dt) -> Printf.sprintf "%.3f" dt) spawns));
    let p, t0 = phase ~server ~dir ~seed ~seconds ~stats:false in
    require_on_schedule p t0;
    let lat = latencies p t0 is_read in
    Printf.eprintf "  read latency (ms) by percentile: %s\n"
      (String.concat " "
         (List.map (fun q -> Printf.sprintf "p%g=%.1f" (100. *. q) (percentile q lat))
            [ 0.5; 0.75; 0.8; 0.85; 0.9; 0.95; 0.99 ]));
    List.iter
      (fun op ->
        let l = latencies p t0 (fun q -> q.op = op) in
        Printf.eprintf "  %-6s n=%d p50=%.1f p90=%.1f\n" (op_name op) (List.length l) (percentile 0.5 l)
          (percentile 0.9 l))
      [ Ppsp; Astar; Widest; Kcore; Mutate ];
    let ok = Array.fold_left (fun n r -> if is_ok r then n + 1 else n) 0 p.replies in
    let correct, attempted, failed = tally [ p ] in
    emit ~correct ~attempted ~failed
      (Spec.end_to_end
         [
           ("setup_s", median (List.map snd spawns));
           ("throughput", float_of_int (ok - List.length p.wrong) /. p.window);
           ("p50_ms", read_percentile 0.5 p t0 ~seconds);
           ("p90_ms", read_percentile 0.9 p t0 ~seconds);
           ("peak_mem_mb", p.mem_mb);
         ])
  end
  else begin
    (* A full window against an untraced server, then another against
       one recording a timeline, so each holds the 1000 reads a p99
       needs. Client-side latencies come from the untraced window, the
       server's own metrics from the traced one, and the tracing cost
       from the two windows' read p50. *)
    let plain_server, _ = spawn ~exe ~dir ~trace_file:None in
    let plain, t0a = phase ~server:plain_server ~dir ~seed ~seconds ~stats:false in
    require_on_schedule plain t0a;
    let traced_server, _ = spawn ~exe ~dir ~trace_file:(Some (Filename.concat dir "serve.trace.json")) in
    let traced, t0b = phase ~server:traced_server ~dir ~seed ~seconds ~stats:true in
    require_on_schedule traced t0b;
    let p50 p t0 = read_percentile 0.5 p t0 ~seconds in
    let correct, attempted, failed = tally [ plain; traced ] in
    emit ~correct ~attempted ~failed
      (Spec.per_layer
         (service_layers (Option.get traced.stats)
         @ protocol_layers traced @ client_layers plain t0a
         @ [ ("observe.overhead_pct", 100. *. ((p50 traced t0b /. p50 plain t0a) -. 1.)) ]))
  end
