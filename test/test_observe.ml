module Json = Support.Json
module Metrics = Observe.Metrics
module Span = Observe.Span
module Tracer = Observe.Tracer
module Log = Observe.Log
module Pool = Parallel.Pool
module Csr = Graphs.Csr
module Schedule = Ordered.Schedule
module Stats = Ordered.Stats

(* ------------------------------------------------------------------ *)
(* Metrics: counters                                                    *)

let test_counter_monotonic () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "test.counter" in
  Alcotest.(check int) "fresh counter" 0 (Metrics.counter_value c);
  Metrics.incr c ~tid:0 ();
  Metrics.incr c ~tid:1 ~by:5 ();
  (* Worker ids beyond the slot count fold in by masking. *)
  Metrics.incr c ~tid:4097 ~by:2 ();
  Alcotest.(check int) "sums per-worker slots" 8 (Metrics.counter_value c);
  Alcotest.check_raises "negative increments rejected"
    (Invalid_argument "Metrics.incr: counters are monotonic (by < 0)")
    (fun () -> Metrics.incr c ~tid:0 ~by:(-1) ());
  Alcotest.(check int) "value unchanged after rejection" 8
    (Metrics.counter_value c);
  Alcotest.(check bool) "registration is idempotent" true
    (Metrics.counter reg "test.counter" == c)

let test_histogram_summary () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "test.hist" in
  Metrics.observe h 1e-6;
  Metrics.observe h 2e-6;
  Metrics.observe h (-5.0);
  (* clamps to zero, still counted *)
  let snap = Metrics.snapshot reg in
  let summary = List.assoc "test.hist" snap.Metrics.histograms in
  Alcotest.(check int) "count" 3 summary.Metrics.count;
  Alcotest.(check bool) "total covers both observations" true
    (summary.Metrics.total_ns >= 3000 && summary.Metrics.total_ns < 4000);
  Alcotest.(check int) "min clamped to zero" 0 summary.Metrics.min_ns;
  Alcotest.(check bool) "max is the largest" true (summary.Metrics.max_ns >= 2000);
  Alcotest.(check int) "bucket counts sum to count" 3
    (List.fold_left (fun acc (_, c) -> acc + c) 0 summary.Metrics.buckets)

let test_snapshot_diff () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "test.rounds" in
  let h = Metrics.histogram reg "test.phase" in
  Metrics.incr c ~tid:0 ~by:10 ();
  Metrics.observe h 1e-3;
  let earlier = Metrics.snapshot reg in
  Metrics.incr c ~tid:0 ~by:7 ();
  Metrics.observe h 2e-3;
  Metrics.observe h 3e-3;
  let later = Metrics.snapshot reg in
  let d = Metrics.diff ~earlier later in
  Alcotest.(check int) "counter diff is the delta" 7
    (List.assoc "test.rounds" d.Metrics.counters);
  let hd = List.assoc "test.phase" d.Metrics.histograms in
  Alcotest.(check int) "histogram diff count" 2 hd.Metrics.count;
  Alcotest.(check bool) "self-diff is empty" true
    (Metrics.is_empty (Metrics.diff ~earlier:later later));
  (* Round-trip: earlier + diff = later, entry-wise. *)
  List.iter
    (fun (name, v) ->
      let e = try List.assoc name earlier.Metrics.counters with Not_found -> 0 in
      let dv = List.assoc name d.Metrics.counters in
      Alcotest.(check int) ("counter round-trip " ^ name) v (e + dv))
    later.Metrics.counters

let test_reset () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "test.c" in
  Metrics.incr c ~tid:0 ~by:3 ();
  Metrics.reset reg;
  Alcotest.(check int) "reset zeroes, handle stays valid" 0
    (Metrics.counter_value c);
  Metrics.incr c ~tid:0 ();
  Alcotest.(check int) "usable after reset" 1 (Metrics.counter_value c)

(* The percentile estimator only sees log2 buckets, so its contract is
   positional, not numeric: the estimate's bucket is within one of the
   exact nearest-rank sample's bucket. Samples are pushed through
   [observe]'s seconds→ns conversion with a +0.5ns bias so truncation
   lands each one on its intended integer. *)
let log2_bucket v =
  let n = max 1 (int_of_float v) in
  let rec go b n = if n <= 1 then b else go (b + 1) (n lsr 1) in
  go 0 n

let qcheck_percentile_buckets =
  QCheck.Test.make ~name:"histogram percentiles within one log2 bucket"
    ~count:200
    QCheck.(list_of_size Gen.(1 -- 200) (int_range 1 (1 lsl 30)))
    (fun ns ->
      let reg = Metrics.create () in
      let h = Metrics.histogram reg "test.pct" in
      List.iter
        (fun v -> Metrics.observe h ((float_of_int v +. 0.5) /. 1e9))
        ns;
      let summary =
        List.assoc "test.pct" (Metrics.snapshot reg).Metrics.histograms
      in
      let sorted = Array.of_list ns in
      Array.sort compare sorted;
      let count = Array.length sorted in
      List.for_all
        (fun q ->
          let rank = max 1 (int_of_float (ceil (q *. float_of_int count))) in
          let exact = sorted.(rank - 1) in
          let est = Metrics.percentile_ns summary q in
          abs (log2_bucket est - log2_bucket (float_of_int exact)) <= 1)
        [ 0.; 0.5; 0.95; 0.99; 1. ])

let test_percentile_empty () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "test.empty" in
  ignore h;
  let summary =
    List.assoc "test.empty" (Metrics.snapshot reg).Metrics.histograms
  in
  Alcotest.(check (float 0.)) "empty histogram percentile" 0.
    (Metrics.percentile_ns summary 0.5)

(* The file [ordered_serve --metrics-out] writes and the [metrics] object
   of the service's [stats] reply: the documented shape, exact values,
   and a text form that parses back. Durations are powers of two of a
   second so their nanosecond counts are exact. *)
let test_metrics_json () =
  let reg = Metrics.create () in
  Metrics.incr (Metrics.counter reg "test.queries") ~tid:0 ~by:3 ();
  ignore (Metrics.counter reg "test.idle");
  let h = Metrics.histogram reg "test.wait" in
  Metrics.observe h 0.5;
  Metrics.observe h 0.25;
  let json = Metrics.to_json (Metrics.snapshot reg) in
  let path keys =
    List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some json) keys
  in
  let int_at keys =
    match path keys with Some (Json.Int n) -> Some n | _ -> None
  in
  Alcotest.(check (option int)) "counter" (Some 3)
    (int_at [ "counters"; "test.queries" ]);
  Alcotest.(check (option int)) "idle counter is exported as 0" (Some 0)
    (int_at [ "counters"; "test.idle" ]);
  List.iter
    (fun (field, v) ->
      Alcotest.(check (option int)) field (Some v)
        (int_at [ "histograms"; "test.wait"; field ]))
    [
      ("count", 2);
      ("total_ns", 750_000_000);
      ("min_ns", 250_000_000);
      ("max_ns", 500_000_000);
    ];
  (* 2.5e8 has 28 significant bits, 5e8 has 29. *)
  Alcotest.(check (option string)) "buckets are [exponent, count] pairs"
    (Some "[[28,1],[29,1]]")
    (Option.map Json.to_string (path [ "histograms"; "test.wait"; "buckets" ]));
  match Json.of_string (Json.to_string json) with
  | Ok back ->
      Alcotest.(check bool) "to_string parses back" true (Json.equal json back)
  | Error e -> Alcotest.failf "metrics json does not parse: %s" e

(* ------------------------------------------------------------------ *)
(* Log: structured JSONL events                                         *)

let with_log_capture f =
  let buf = Buffer.create 256 in
  Log.set_writer (Some (Buffer.add_string buf));
  Fun.protect
    ~finally:(fun () ->
      Log.set_writer None;
      Log.set_level Log.Info)
    (fun () -> f buf)

let log_lines buf =
  Log.flush ();
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> String.trim l <> "")

let test_log_roundtrip () =
  with_log_capture (fun buf ->
      Log.set_level Log.Debug;
      Log.event Log.Debug "test.event" [ ("k", Json.Int 7) ];
      Log.event Log.Warn "test.slow" [ ("wall_ms", Json.Float 12.5) ];
      let lines = log_lines buf in
      Alcotest.(check int) "two lines" 2 (List.length lines);
      List.iter
        (fun line ->
          match Json.of_string line with
          | Error e -> Alcotest.fail ("log line does not parse: " ^ e)
          | Ok json -> (
              match
                ( Json.member "ts" json,
                  Json.member "level" json,
                  Json.member "event" json )
              with
              | Some (Json.Float _), Some (Json.String _), Some (Json.String _)
                ->
                  ()
              | _ -> Alcotest.fail "missing ts/level/event envelope"))
        lines;
      match Json.of_string (List.nth lines 1) with
      | Ok json ->
          Alcotest.(check bool) "emitter fields survive" true
            (Json.member "wall_ms" json = Some (Json.Float 12.5))
      | Error e -> Alcotest.fail e)

let test_log_threshold () =
  with_log_capture (fun buf ->
      (* Default level is Info. *)
      Alcotest.(check bool) "debug below threshold" false (Log.enabled Log.Debug);
      Alcotest.(check bool) "warn passes" true (Log.enabled Log.Warn);
      Log.event Log.Debug "test.dropped" [];
      Log.event Log.Info "test.kept" [];
      Alcotest.(check int) "only the info line lands" 1
        (List.length (log_lines buf)));
  Alcotest.(check bool) "no sink disables even errors" false
    (Log.enabled Log.Error)

let test_log_warn_flushes_immediately () =
  with_log_capture (fun buf ->
      Log.event Log.Info "test.buffered" [];
      Alcotest.(check string) "info stays in the worker buffer" ""
        (Buffer.contents buf);
      Log.event Log.Warn "test.urgent" [];
      (* The warn flushes its whole slot: both lines, in order. *)
      let lines =
        String.split_on_char '\n' (Buffer.contents buf)
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check int) "warn flushed the slot" 2 (List.length lines))

let level_testable =
  Alcotest.testable
    (fun ppf l -> Format.pp_print_string ppf (Log.level_name l))
    ( = )

let test_log_level_of_string () =
  Alcotest.(check (option level_testable)) "warn" (Some Log.Warn)
    (Log.level_of_string "WARN");
  Alcotest.(check (option level_testable)) "warning alias" (Some Log.Warn)
    (Log.level_of_string "warning");
  Alcotest.(check (option level_testable)) "unknown" None
    (Log.level_of_string "loud")

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)

(* Global on/off state: always restore, the other suites assume it off. *)
let with_spans f =
  Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Span.set_enabled false) f

let hist_count snap name =
  match List.assoc_opt name snap.Metrics.histograms with
  | Some s -> s.Metrics.count
  | None -> 0

let test_span_disabled_is_noop () =
  Span.set_enabled false;
  let before = Metrics.snapshot Metrics.default in
  let r = Span.with_ "test.span.off" (fun () -> 41 + 1) in
  Alcotest.(check int) "body result" 42 r;
  let d = Metrics.diff ~earlier:before (Metrics.snapshot Metrics.default) in
  Alcotest.(check int) "nothing recorded" 0 (hist_count d "test.span.off")

let test_span_nesting_and_exceptions () =
  with_spans (fun () ->
      let before = Metrics.snapshot Metrics.default in
      (match
         Span.with_ "test.span.outer" (fun () ->
             Span.with_ "test.span.inner" (fun () -> raise Exit))
       with
      | () -> Alcotest.fail "expected Exit"
      | exception Exit -> ());
      let d = Metrics.diff ~earlier:before (Metrics.snapshot Metrics.default) in
      Alcotest.(check int) "outer recorded despite the raise" 1
        (hist_count d "test.span.outer");
      Alcotest.(check int) "inner recorded despite the raise" 1
        (hist_count d "test.span.inner"))

let test_pool_hook () =
  with_spans (fun () ->
      Span.install_pool_hook ();
      Fun.protect
        ~finally:(fun () -> Span.remove_pool_hook ())
        (fun () ->
          let before = Metrics.snapshot Metrics.default in
          Pool.with_pool ~num_workers:2 (fun pool ->
              for _ = 1 to 5 do
                Pool.run_workers pool (fun _ -> ())
              done);
          let d =
            Metrics.diff ~earlier:before (Metrics.snapshot Metrics.default)
          in
          Alcotest.(check int) "one episode histogram entry per run_workers" 5
            (hist_count d "pool.episode");
          Alcotest.(check int) "episode counter matches" 5
            (List.assoc "pool.episodes" d.Metrics.counters)))

(* Regression for the driver pattern (ordered_run --trace/--profile,
   bench): the process-wide pool hooks must come off even when the run
   body raises, or every later pool user keeps feeding a dead tracer. *)
let test_pool_hooks_detach_on_exception () =
  with_spans (fun () ->
      let t = Tracer.create () in
      Span.install_pool_hook ();
      Tracer.set_current (Some t);
      Tracer.install_pool_hooks ();
      (match
         Fun.protect
           ~finally:(fun () ->
             Span.remove_pool_hook ();
             Tracer.remove_pool_hooks ();
             Tracer.set_current None)
           (fun () -> failwith "driver blew up mid-run")
       with
      | () -> Alcotest.fail "expected Failure"
      | exception Failure _ -> ());
      let before = Metrics.snapshot Metrics.default in
      let events_before = Tracer.event_count t in
      Pool.with_pool ~num_workers:2 (fun pool ->
          Pool.run_workers pool (fun _ -> ()));
      let d = Metrics.diff ~earlier:before (Metrics.snapshot Metrics.default) in
      Alcotest.(check int) "no episode recorded after detach" 0
        (hist_count d "pool.episode");
      Alcotest.(check int) "no tracer events after detach" events_before
        (Tracer.event_count t))

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)

let test_json_emit () =
  let open Json in
  Alcotest.(check string)
    "escaping and scalars"
    {|{"a":null,"b\n":true,"c":[1,-2,"x\"y"],"nan":null}|}
    (to_string
       (Obj
          [
            ("a", Null);
            ("b\n", Bool true);
            ("c", List [ Int 1; Int (-2); String "x\"y" ]);
            ("nan", Float Float.nan);
          ]))

let test_json_parse () =
  let open Json in
  (match of_string {| {"k": [1, 2.5, "s", null, false]} |} with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check bool) "structure" true
        (equal v
           (Obj
              [ ("k", List [ Int 1; Float 2.5; String "s"; Null; Bool false ]) ])));
  (match of_string "[1," with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error _ -> ());
  match member "x" (Obj [ ("x", Int 3) ]) with
  | Some (Int 3) -> ()
  | _ -> Alcotest.fail "member lookup"

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map
          (fun f -> Json.Float (if Float.is_finite f then f else 0.0))
          float;
        map (fun s -> Json.String s) (string_size (int_bound 10));
      ]
  in
  sized_size (int_bound 4) (fix (fun self n ->
      if n <= 0 then scalar
      else
        frequency
          [
            (2, scalar);
            (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n - 1))));
            ( 1,
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (int_bound 4)
                   (pair (string_size (int_bound 6)) (self (n - 1)))) );
          ]))

let qcheck_json_roundtrip =
  QCheck.Test.make ~name:"json survives to_string/of_string" ~count:500
    (QCheck.make ~print:Json.to_string json_gen) (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> Json.equal v v'
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e)

let qcheck_json_pp_roundtrip =
  QCheck.Test.make ~name:"pretty-printed json parses back" ~count:200
    (QCheck.make ~print:Json.to_string json_gen) (fun v ->
      let pretty = Format.asprintf "%a" Json.pp v in
      match Json.of_string pretty with
      | Ok v' -> Json.equal v v'
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e)

(* ------------------------------------------------------------------ *)
(* Stats / Trace export                                                 *)

let test_stats_sync_rendering () =
  let s = Stats.create () in
  s.Stats.sync_seconds <- 0.25;
  let render () = Format.asprintf "%a" Stats.pp s in
  Alcotest.(check bool) "1-worker pool renders '-'" true
    (s.Stats.workers = 1
    &&
    let str = render () in
    String.length str >= 6
    && String.sub str (String.length str - 6) 6 = "sync=-");
  s.Stats.workers <- 2;
  let str = render () in
  let suffix = "sync=0.250000s" in
  Alcotest.(check bool) "multi-worker pool renders seconds" true
    (String.length str >= String.length suffix
    && String.sub str
         (String.length str - String.length suffix)
         (String.length suffix)
       = suffix);
  (match Json.member "sync_seconds" (Stats.to_json s) with
  | Some (Json.Float f) -> Alcotest.(check (float 1e-9)) "json value" 0.25 f
  | _ -> Alcotest.fail "expected a float");
  s.Stats.workers <- 1;
  match Json.member "sync_seconds" (Stats.to_json s) with
  | Some Json.Null -> ()
  | _ -> Alcotest.fail "1-worker sync_seconds must export as null"

(* ------------------------------------------------------------------ *)
(* Tracer: per-worker timelines as Chrome trace_event JSON              *)

let with_tracer ?capacity f =
  let t = Tracer.create ?capacity_per_track:capacity () in
  Tracer.set_current (Some t);
  Fun.protect ~finally:(fun () -> Tracer.set_current None) (fun () -> f t)

let trace_events json =
  match Json.member "traceEvents" json with
  | Some (Json.List l) -> l
  | _ -> Alcotest.fail "export has no traceEvents array"

let str_field name e =
  match Json.member name e with Some (Json.String s) -> Some s | _ -> None

let int_field name e =
  match Json.member name e with Some (Json.Int i) -> Some i | _ -> None

(* Every track's B/E events must pair up in order: that is what makes the
   export loadable as nested slices. *)
let balanced events =
  let depth = Hashtbl.create 8 in
  let get tid = try Hashtbl.find depth tid with Not_found -> 0 in
  let ok = ref true in
  List.iter
    (fun e ->
      match (str_field "ph" e, int_field "tid" e) with
      | Some "B", Some tid -> Hashtbl.replace depth tid (get tid + 1)
      | Some "E", Some tid ->
          let d = get tid - 1 in
          if d < 0 then ok := false else Hashtbl.replace depth tid d
      | _ -> ())
    events;
  Hashtbl.iter (fun _ d -> if d <> 0 then ok := false) depth;
  !ok

let qcheck_tracer_wraparound =
  QCheck.Test.make ~name:"ring wraparound keeps the newest events" ~count:100
    QCheck.(pair (int_bound 200) (int_bound 5))
    (fun (n, cap_exp) ->
      let cap = 1 lsl cap_exp in
      let t = Tracer.create ~capacity_per_track:cap () in
      let lbl = Tracer.label "test.trace_counter" in
      for i = 0 to n - 1 do
        Tracer.counter t ~tid:0 lbl i
      done;
      let values =
        List.filter_map
          (fun e ->
            match (str_field "ph" e, Json.member "args" e) with
            | Some "C", Some args -> (
                match Json.member "value" args with
                | Some (Json.Int v) -> Some v
                | _ -> None)
            | _ -> None)
          (trace_events (Tracer.to_json t))
      in
      let kept = min n cap in
      values = List.init kept (fun i -> n - kept + i)
      && Tracer.event_count t = kept
      && Tracer.dropped_events t = max 0 (n - cap))

let qcheck_tracer_balanced =
  (* Arbitrary begin/end sequences — including unmatched ends, unclosed
     begins, and tids beyond num_tracks — on a tiny ring, so wraparound
     orphans are common. The export must still balance every track. *)
  QCheck.Test.make ~name:"export nesting is balanced per track" ~count:200
    QCheck.(list_of_size Gen.(int_bound 120) (triple (int_bound 20) bool (int_bound 2)))
    (fun ops ->
      let t = Tracer.create ~capacity_per_track:8 () in
      let lbls =
        [| Tracer.label "test.a"; Tracer.label "test.b"; Tracer.label "test.c" |]
      in
      List.iter
        (fun (tid, is_begin, l) ->
          if is_begin then Tracer.begin_ t ~tid lbls.(l)
          else Tracer.end_ t ~tid lbls.(l))
        ops;
      balanced (trace_events (Tracer.to_json t)))

let qcheck_tracer_roundtrip =
  QCheck.Test.make ~name:"trace export survives to_string/of_string" ~count:50
    QCheck.(list_of_size Gen.(int_bound 40) (pair (int_bound 3) (int_bound 2)))
    (fun ops ->
      let t = Tracer.create ~capacity_per_track:16 () in
      let lbls =
        [| Tracer.label "test.a"; Tracer.label "test.b"; Tracer.label "test.c" |]
      in
      List.iter
        (fun (tid, l) ->
          Tracer.begin_ t ~tid ~arg:l lbls.(l);
          Tracer.end_ t ~tid lbls.(l))
        ops;
      let json = Tracer.to_json t in
      match Json.of_string (Json.to_string json) with
      | Ok v -> Json.equal v json
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e)

let test_tracer_write_dropped () =
  let t = Tracer.create ~capacity_per_track:4 () in
  let lbl = Tracer.label "test.spam" in
  for i = 0 to 9 do
    Tracer.counter t ~tid:0 lbl i
  done;
  Alcotest.(check int) "dropped" 6 (Tracer.dropped_events t);
  let before = Metrics.snapshot Metrics.default in
  let path = Filename.temp_file "trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Tracer.write t path;
      let d = Metrics.diff ~earlier:before (Metrics.snapshot Metrics.default) in
      Alcotest.(check int) "write folds the drop count into metrics" 6
        (List.assoc "trace.dropped_events" d.Metrics.counters);
      (* A second write reports only the delta — none here. *)
      Tracer.write t path;
      let d = Metrics.diff ~earlier:before (Metrics.snapshot Metrics.default) in
      Alcotest.(check int) "no double counting across writes" 6
        (List.assoc "trace.dropped_events" d.Metrics.counters);
      let contents =
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Json.of_string contents with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("written trace does not parse: " ^ e))

(* ------------------------------------------------------------------ *)
(* Golden: the --profile flight table on a deterministic run            *)

(* A 6-vertex weighted path 0 -1-> 1 -1-> 2 ... with one shortcut; SSSP
   from 0 with delta=1 on one worker is fully deterministic, so the
   [~times:false] table (names and counts, no wall-clock) is stable. *)
let profile_graph () =
  Csr.of_edge_list
    (Graphs.Edge_list.create ~num_vertices:6
       (Array.map
          (fun (src, dst, weight) -> { Graphs.Edge_list.src; dst; weight })
          [| (0, 1, 1); (1, 2, 1); (2, 3, 1); (3, 4, 1); (4, 5, 1); (0, 3, 5) |]))

let test_profile_table_golden () =
  with_spans (fun () ->
      Span.install_pool_hook ();
      Fun.protect
        ~finally:(fun () -> Span.remove_pool_hook ())
        (fun () ->
          let before = Metrics.snapshot Metrics.default in
          Pool.with_pool ~num_workers:1 (fun pool ->
              ignore
                (Algorithms.Sssp_delta.run ~pool ~graph:(profile_graph ())
                   ~schedule:Schedule.default ~source:0 ()));
          let d =
            Metrics.diff ~earlier:before (Metrics.snapshot Metrics.default)
          in
          let table = Format.asprintf "%a" (Metrics.pp ~times:false) d in
          let expected =
            "counter                                       value\n\
             engine.bucket_inserts                             7\n\
             engine.buckets_processed                          6\n\
             engine.edges_relaxed                              6\n\
             engine.global_syncs                               6\n\
             engine.rounds                                     6\n\
             engine.runs                                       1\n\
             engine.vertices_processed                         6\n\
             pool.episodes                                     6\n\
             span                                      count\n\
             eager_buckets.drain_global                    6\n\
             eager_buckets.next_global_key                 7\n\
             engine.dequeue                                6\n\
             engine.round                                  6\n\
             engine.sync_wait                              6\n\
             pool.episode                                  6\n\
             traverse.push                                 6\n"
          in
          Alcotest.(check string) "flight table" expected table))

(* End to end: a 2-worker SSSP run with the tracer current produces a
   loadable timeline — one track per worker, nested round slices with the
   round index as payload, thread_name metadata. *)
let test_tracer_sssp_export () =
  with_tracer (fun t ->
      Tracer.install_pool_hooks ();
      Fun.protect
        ~finally:(fun () -> Tracer.remove_pool_hooks ())
        (fun () ->
          Pool.with_pool ~num_workers:2 (fun pool ->
              ignore
                (Algorithms.Sssp_delta.run ~pool ~graph:(profile_graph ())
                   ~schedule:Schedule.default ~source:0 ())));
      let json = Tracer.to_json t in
      (match Json.of_string (Json.to_string json) with
      | Ok v ->
          Alcotest.(check bool) "export round-trips" true (Json.equal v json)
      | Error e -> Alcotest.fail ("export does not parse: " ^ e));
      let events = trace_events json in
      let data_tids =
        List.sort_uniq compare
          (List.filter_map
             (fun e ->
               match (str_field "ph" e, int_field "tid" e) with
               | Some ("B" | "E" | "C"), Some tid -> Some tid
               | _ -> None)
             events)
      in
      Alcotest.(check (list int)) "one track per worker" [ 0; 1 ] data_tids;
      Alcotest.(check bool) "nesting balanced" true (balanced events);
      Alcotest.(check bool) "thread_name metadata present" true
        (List.exists
           (fun e ->
             str_field "name" e = Some "thread_name"
             && str_field "ph" e = Some "M")
           events);
      Alcotest.(check bool) "worker slices on the helper track" true
        (List.exists
           (fun e ->
             str_field "name" e = Some "pool.worker" && int_field "tid" e = Some 1)
           events);
      Alcotest.(check bool) "round slices carry the round index" true
        (List.exists
           (fun e ->
             str_field "name" e = Some "engine.round"
             && str_field "ph" e = Some "B"
             &&
             match Json.member "args" e with
             | Some args -> (
                 match Json.member "n" args with
                 | Some (Json.Int n) -> n >= 1
                 | _ -> false)
             | None -> false)
           events))

(* Query-scoped telemetry: async slices pair up as Chrome "b"/"e"
   events keyed by the query id, and the ambient context stamps every
   synchronous slice recorded inside it with args.query. *)
let test_tracer_async_and_context () =
  with_tracer (fun t ->
      let q = Tracer.label "service.query" in
      let work = Tracer.label "test.work" in
      Tracer.async_begin t ~tid:0 ~id:41 q;
      Tracer.set_context (Some 41);
      Alcotest.(check (option int)) "context reads back" (Some 41)
        (Tracer.context ());
      Tracer.begin_ t ~tid:0 work;
      Tracer.end_ t ~tid:0 work;
      Tracer.set_context None;
      Tracer.async_end t ~tid:0 ~id:41 q;
      Tracer.begin_ t ~tid:0 work;
      Tracer.end_ t ~tid:0 work;
      let events = trace_events (Tracer.to_json t) in
      let async ph =
        List.exists
          (fun e ->
            str_field "ph" e = Some ph
            && str_field "cat" e = Some "query"
            && int_field "id" e = Some 41
            && str_field "name" e = Some "service.query")
          events
      in
      Alcotest.(check bool) "async begin exported" true (async "b");
      Alcotest.(check bool) "async end exported" true (async "e");
      let ctx_of e =
        match Json.member "args" e with
        | Some args -> (
            match Json.member "query" args with
            | Some (Json.Int v) -> Some v
            | _ -> None)
        | None -> None
      in
      match
        List.filter
          (fun e ->
            str_field "name" e = Some "test.work" && str_field "ph" e = Some "B")
          events
      with
      | [ inside; outside ] ->
          Alcotest.(check (option int)) "slice inside carries the query id"
            (Some 41) (ctx_of inside);
          Alcotest.(check (option int)) "slice outside carries none" None
            (ctx_of outside)
      | l -> Alcotest.failf "expected 2 work slices, got %d" (List.length l))

let () =
  Alcotest.run "observe"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter monotonicity" `Quick test_counter_monotonic;
          Alcotest.test_case "histogram summary" `Quick test_histogram_summary;
          Alcotest.test_case "snapshot/diff" `Quick test_snapshot_diff;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "empty percentile" `Quick test_percentile_empty;
          QCheck_alcotest.to_alcotest qcheck_percentile_buckets;
        ] );
      (* Alcotest truncates a test name to the width left after the
         longest group label; this group's 11 characters keep the names
         the suite prints for its other groups as they were. *)
      ( "metrics_out",
        [ Alcotest.test_case "snapshot json shape" `Quick test_metrics_json ] );
      ( "log",
        [
          Alcotest.test_case "round-trip" `Quick test_log_roundtrip;
          Alcotest.test_case "level threshold" `Quick test_log_threshold;
          Alcotest.test_case "warn flushes immediately" `Quick
            test_log_warn_flushes_immediately;
          Alcotest.test_case "level_of_string" `Quick test_log_level_of_string;
        ] );
      ( "span",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_span_disabled_is_noop;
          Alcotest.test_case "nesting and exceptions" `Quick
            test_span_nesting_and_exceptions;
          Alcotest.test_case "pool hook" `Quick test_pool_hook;
          Alcotest.test_case "hooks detach on exception" `Quick
            test_pool_hooks_detach_on_exception;
        ] );
      ( "json",
        [
          Alcotest.test_case "emit" `Quick test_json_emit;
          Alcotest.test_case "parse" `Quick test_json_parse;
          QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_json_pp_roundtrip;
        ] );
      ( "export",
        [
          Alcotest.test_case "stats sync rendering" `Quick
            test_stats_sync_rendering;
          Alcotest.test_case "profile table golden" `Quick
            test_profile_table_golden;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "sssp export" `Quick test_tracer_sssp_export;
          Alcotest.test_case "async slices and query context" `Quick
            test_tracer_async_and_context;
          Alcotest.test_case "write reports drops" `Quick
            test_tracer_write_dropped;
          QCheck_alcotest.to_alcotest qcheck_tracer_wraparound;
          QCheck_alcotest.to_alcotest qcheck_tracer_balanced;
          QCheck_alcotest.to_alcotest qcheck_tracer_roundtrip;
        ] );
    ]
