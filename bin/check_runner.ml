(* check_runner: the differential checker. Each mode is a sweep, or the
   replay of one repro line a sweep printed:

   - default: apps x graphs x substrate variants x the schedule grid x
     worker counts, judged against the sequential oracles;
     --app/--graph/--schedule replays one configuration.
   - --dynamic: random delta batches, incremental vs from-scratch SSSP;
     --graph/--schedule/--batches replays one.
   - --dsl: generated DSL programs through the reference, engine and
     compiled lanes (docs/TESTING.md); --program/--graph/--schedule
     replays one.
   - query repro: --app/--graph-file/--source/--target (or --vertex)
     replays one service query from a slow-query record
     (docs/OBSERVABILITY.md).

   A sweep prints a JSON summary on stdout; its failures are shrunk and
   come with repro lines (also in --failures FILE). Exit codes: 0 = clean;
   1 = oracle mismatch or race finding; 2 = bad command line. *)

open Cmdliner
module Harness = Check.Harness
module Sweep = Check.Sweep
module Dynamic = Check.Dynamic
module Graph_case = Check.Graph_case
module Dsl_case = Check.Dsl_case
module Dsl_sweep = Check.Dsl_sweep
module Schedule = Ordered.Schedule

let usage msg =
  Printf.eprintf "check_runner: %s\n" msg;
  exit 2

let parse_or_exit what = function
  | Ok v -> v
  | Error msg -> usage (Printf.sprintf "bad %s: %s" what msg)

let parse_workers s =
  String.split_on_char ',' s
  |> List.map (fun w ->
         match int_of_string_opt (String.trim w) with
         | Some n when n >= 1 -> n
         | _ -> usage (Printf.sprintf "bad worker count %S" w))

let parse_apps s =
  String.split_on_char ',' s
  |> List.map (fun a -> parse_or_exit "app" (Sweep.app_of_string (String.trim a)))

(* Flag parsing and mode dispatch; every mode ends in Harness.emit (a
   sweep) or Harness.replay (one configuration), whose result is the exit
   code. *)
let main budget seed apps app graph schedule workers chaos race max_failures
    json_path failures_path layout reorder bin graph_file source target vertex
    symmetric dynamic batches dsl program bug no_compiled =
  let workers = parse_workers workers in
  let bug = parse_or_exit "bug" (Dsl_sweep.bug_of_string bug) in
  let compiled = not no_compiled in
  let variant_given = layout <> None || reorder <> None || bin in
  let variant =
    {
      Sweep.layout =
        (match layout with
        | None -> Graphs.Layout.Plain
        | Some l -> parse_or_exit "layout" (Graphs.Layout.kind_of_string l));
      reorder =
        (match reorder with
        | None -> Graphs.Reorder.Identity
        | Some r -> parse_or_exit "reorder" (Graphs.Reorder.kind_of_string r));
      bin_roundtrip = bin;
    }
  in
  let spec_of g = parse_or_exit "graph spec" (Graph_case.of_string g) in
  let schedule_of s = parse_or_exit "schedule" (Schedule.of_string s) in
  let emit ~headline json summary =
    Harness.emit ?json_path ?failures_path ~headline json summary
  in
  let replay run = Harness.replay ~seed ~chaos ~race ~workers run in
  let with_pool w f = Parallel.Pool.with_pool ~num_workers:w f in
  exit
  @@
  if dsl then
    match (program, graph, schedule) with
    | Some program, Some graph, Some schedule ->
        let spec = parse_or_exit "program spec" (Dsl_case.of_string program) in
        let gspec = spec_of graph in
        let schedule = schedule_of schedule in
        let case = Graph_case.build gspec in
        let toolchain = if compiled then Dsl_sweep.detect_toolchain () else None in
        Printf.printf "compiled lane: %s\n"
          (Option.fold ~none:"unavailable" ~some:Dsl_sweep.toolchain_name toolchain);
        with_pool 1 (fun ref_pool ->
            replay (fun w ->
                with_pool w (fun pool ->
                    Dsl_sweep.run_one ~bug ?toolchain ~pool ~ref_pool spec case schedule
                    |> Result.map_error (fun (lane, msg) -> Dsl_sweep.headline lane msg))))
    | None, None, None ->
        let s =
          Dsl_sweep.run ~workers ~budget ~seed ~max_failures ~chaos ~race ~bug
            ~compiled ~log:prerr_endline ()
        in
        emit ~headline:Dsl_sweep.headline (Dsl_sweep.summary_json ~seed s) s.checks
    | _ -> usage "dsl repro mode needs all of --program, --graph, --schedule"
  else
    match (dynamic, graph_file, app, graph, schedule) with
    | true, None, None, Some graph, Some schedule ->
        (* Dynamic repro: replay one batch sequence (the syntax of
           --dynamic repro lines). *)
        let spec = spec_of graph in
        let schedule = schedule_of schedule in
        let batches =
          parse_or_exit "batches"
            (Dynamic.batches_of_string (Option.value ~default:"" batches))
        in
        replay (fun w ->
            with_pool w (fun pool ->
                Dynamic.run_config ~pool { Dynamic.spec; schedule; workers = w; batches }
                |> Result.map_error (fun (step, msg) -> Dynamic.headline step msg)))
    | true, None, None, None, None ->
        let s =
          Dynamic.run ~workers ~budget ~seed ~max_failures ~chaos ~race
            ~log:prerr_endline ()
        in
        emit ~headline:Dynamic.headline (Dynamic.summary_json ~seed s) s
    | false, Some graph_file, Some app, None, Some schedule ->
        let module Qr = Check.Query_repro in
        let app = parse_or_exit "app" (Qr.app_of_string app) in
        let schedule = schedule_of schedule in
        let source, target =
          match (app, vertex, source, target) with
          | Qr.Kcore, Some v, _, _ | Qr.Kcore, None, Some v, _ -> (v, -1)
          | Qr.Kcore, None, None, _ -> usage "kcore query repro needs --vertex"
          | _, _, Some s, Some t -> (s, t)
          | _ -> usage "query repro needs --source and --target"
        in
        Harness.replay ~seed ~chaos:false ~race:false ~workers (fun workers ->
            Qr.run { Qr.app; graph_file; symmetric; source; target; schedule; workers })
    | false, None, Some app, Some graph, Some schedule ->
        let app = parse_or_exit "app" (Sweep.app_of_string app) in
        let spec = spec_of graph in
        let schedule = schedule_of schedule in
        let case = Graph_case.build spec in
        replay (fun w ->
            with_pool w (fun pool -> Sweep.run_one ~variant ~pool app case schedule))
    | false, None, None, None, None ->
        (* Sweep mode: with no substrate flags, run the whole default
           variant axis; with flags, pin the sweep to that one variant. *)
        let apps = Option.fold ~none:Sweep.all_apps ~some:parse_apps apps in
        let variants = if variant_given then [ variant ] else Sweep.default_variants in
        let s =
          Sweep.run ~apps ~variants ~workers ~budget ~seed ~max_failures ~chaos ~race
            ~log:prerr_endline ()
        in
        emit ~headline:Sweep.headline (Sweep.summary_json ~seed s) s.checks
    | _ ->
        usage
          "repro mode needs all of --app, --graph, --schedule; query repro \
           needs --app, --graph-file, --schedule and --source/--target (or \
           --vertex); dynamic repro needs --dynamic, --graph, --schedule, \
           --batches"

let () =
  let str name ?docv doc = Arg.(value & opt (some string) None & info [ name ] ?docv ~doc) in
  let int_opt name doc = Arg.(value & opt (some int) None & info [ name ] ~doc) in
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let budget =
    Arg.(
      value & opt float 60.
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:"Stop enumerating new configurations after this long")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~doc:"Master seed for graphs, sampled schedules, and chaos streams")
  in
  let apps =
    str "apps" ~docv:"LIST" "Comma-separated subset of sssp,wbfs,ppsp,astar,kcore,setcover"
  in
  let app_arg = str "app" "Repro mode: the app of the failing configuration" in
  let graph =
    str "graph" ~docv:"SPEC" "Repro mode: graph spec, e.g. 'random:seed=3,n=48,m=200,w=12'"
  in
  let schedule =
    str "schedule" ~docv:"SCHED"
      "Repro mode: schedule, e.g. \
       'strategy=lazy,delta=2,traversal=DensePull,sched=guided'"
  in
  let workers =
    Arg.(value & opt string "1,2,4" & info [ "workers" ] ~docv:"LIST" ~doc:"Worker counts to sweep")
  in
  let chaos = flag "chaos" "Inject seeded scheduling perturbation (Parallel.Chaos)" in
  let race =
    flag "race"
      "Enable the plain-write race detector (Parallel.Race); any finding fails the run"
  in
  let max_failures =
    Arg.(value & opt int 5 & info [ "max-failures" ] ~doc:"Stop the sweep after this many failures")
  in
  let json_path = str "json" ~docv:"FILE" "Also write the JSON summary here" in
  let failures_path =
    str "failures" ~docv:"FILE" "Write failure messages and repro lines here (CI artifact)"
  in
  let layout =
    str "layout" ~docv:"KIND"
      "Storage layout (plain|compressed). Repro mode: run the configuration \
       under it; sweep mode: pin the sweep's variant axis to it"
  in
  let reorder =
    str "reorder" ~docv:"KIND"
      "Vertex reordering (none|degree|bfs|hilbert) applied to the graph before running"
  in
  let bin =
    flag "bin"
      "Round-trip the graph through the binary format (save-bin -> load-bin) before running"
  in
  let graph_file =
    str "graph-file" ~docv:"FILE"
      "Query-repro mode: replay one service query against this graph file \
       (edge-list text or GRAPHBIN) — the syntax of slow-query log repro lines"
  in
  let source = int_opt "source" "Query-repro mode: source vertex" in
  let target = int_opt "target" "Query-repro mode: target vertex" in
  let vertex = int_opt "vertex" "Query-repro mode: the kcore query vertex" in
  let symmetric =
    flag "symmetric"
      "Query-repro mode: symmetrize the loaded graph, as `serve --symmetric` did"
  in
  let dynamic =
    flag "dynamic"
      "Dynamic-graph mode: sweep incremental-vs-from-scratch SSSP across random \
       delta batches, schedules, and worker counts (with \
       --graph/--schedule/--batches: replay one failing configuration)"
  in
  let batches =
    str "batches" ~docv:"BATCHES"
      "Dynamic repro mode: semicolon-separated delta batches, each a \
       comma-separated op list (i:src-dst-w, d:src-dst, r:src-dst-w)"
  in
  let dsl =
    flag "dsl"
      "DSL differential mode: sweep generated DSL programs through \
       reference-interp vs scheduled-engine (vs generated C++ when a toolchain \
       is present) across the schedule grid (with --program/--graph/--schedule: \
       replay one failing configuration)"
  in
  let program =
    str "program" ~docv:"SPEC" "DSL repro mode: program spec, e.g. 'min:guard+reach+print'"
  in
  let bug =
    Arg.(
      value & opt string "none"
      & info [ "bug" ] ~docv:"NAME"
          ~doc:
            "DSL mode: graft a deliberately wrong lowering into the \
             engine/compiled lanes (none|wrong-weight) — used by the test \
             suite to prove the sweep detects injected miscompilations")
  in
  let no_compiled =
    flag "no-compiled" "DSL mode: skip the compiled lane even if a toolchain exists"
  in
  let term =
    Term.(
      const main $ budget $ seed $ apps $ app_arg $ graph $ schedule $ workers
      $ chaos $ race $ max_failures $ json_path $ failures_path $ layout
      $ reorder $ bin $ graph_file $ source $ target $ vertex $ symmetric
      $ dynamic $ batches $ dsl $ program $ bug $ no_compiled)
  in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "check_runner"
             ~doc:
               "Differential checker: every schedule-space point must match \
                the sequential oracles")
          term))
