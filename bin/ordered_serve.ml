(* ordered_serve: the long-running ordered-graph query server and its
   line-protocol client. `serve` loads a graph once and answers point
   queries over a unix or TCP socket (protocol: docs/SERVICE.md);
   `client` plays a script of request lines against a server and prints
   the responses — the scripted-mix driver used by CI and the docs. *)

open Cmdliner

let make_schedule strategy delta threshold buckets =
  let ( let* ) = Result.bind in
  let* strategy = Ordered.Schedule.strategy_of_string strategy in
  Ordered.Schedule.validate
    {
      Ordered.Schedule.default with
      strategy;
      delta;
      fusion_threshold = threshold;
      num_open_buckets = buckets;
    }

let address socket_path port host =
  match port with
  | Some p -> Service.Server.Tcp (host, p)
  | None -> Service.Server.Unix_sock socket_path

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let serve graph_path socket_path port host workers landmarks queue_capacity
    max_batch deadline_ms slow_query_ms strategy delta threshold buckets
    coords_path symmetric warm compact_ops trace_path metrics_out log_path
    log_level =
  let schedule =
    match make_schedule strategy delta threshold buckets with
    | Ok s -> s
    | Error msg ->
        Printf.eprintf "invalid schedule: %s\n" msg;
        exit 1
  in
  (match Observe.Log.level_of_string log_level with
  | Some l -> Observe.Log.set_level l
  | None ->
      Printf.eprintf "invalid log level %S\n" log_level;
      exit 1);
  Option.iter Observe.Log.open_file log_path;
  let el =
    match Graphs.Graph_io.load_any graph_path with
    | Ok el -> el
    | Error msg ->
        Printf.eprintf "cannot load graph: %s\n" msg;
        exit 1
  in
  let el = if symmetric then Graphs.Edge_list.symmetrized el else el in
  let handle = Graphs.Handle.of_edge_list el in
  let coords = Option.map Graphs.Graph_io.read_coords coords_path in
  let tracer =
    match trace_path with
    | None -> None
    | Some _ ->
        let t = Observe.Tracer.create () in
        Observe.Tracer.set_current (Some t);
        Observe.Tracer.install_pool_hooks ();
        Some t
  in
  Parallel.Pool.with_pool ~num_workers:workers (fun pool ->
      let config =
        {
          Service.Config.queue_capacity;
          max_batch;
          default_deadline_ms = deadline_ms;
          landmarks;
          schedule;
          slow_query_ms;
          graph_file = Some graph_path;
          symmetric;
          compact_ops;
        }
      in
      let core = Service.Core.create ~pool ~handle ?coords ~config () in
      if warm then begin
        let warmed = Service.Core.warm_alt core in
        Printf.printf "alt cache warmed: %d landmarks\n%!" warmed
      end;
      let server =
        Service.Server.start ~core ~address:(address socket_path port host) ()
      in
      (* The readiness line CI greps for before launching clients. *)
      Printf.printf "listening on %s (%d vertices, %d edges, %d workers)\n%!"
        (Service.Server.address_to_string (Service.Server.bound_address server))
        (Graphs.Handle.num_vertices handle)
        (Graphs.Handle.num_edges handle)
        workers;
      let handle_signal _ = Service.Server.request_stop server in
      (try
         Sys.set_signal Sys.sigint (Sys.Signal_handle handle_signal);
         Sys.set_signal Sys.sigterm (Sys.Signal_handle handle_signal)
       with Invalid_argument _ -> ());
      Service.Server.wait server;
      Printf.printf "server stopped\n%!");
  Observe.Log.close ();
  (match log_path with
  | Some path -> Printf.printf "log: %s\n" path
  | None -> ());
  (match metrics_out with
  | Some path ->
      let snap = Observe.Metrics.snapshot Observe.Metrics.default in
      let oc = open_out path in
      output_string oc (Support.Json.to_string (Observe.Metrics.to_json snap));
      output_char oc '\n';
      close_out oc;
      Printf.printf "metrics: %s\n" path
  | None -> ());
  match (tracer, trace_path) with
  | Some t, Some path ->
      Observe.Tracer.set_current None;
      Observe.Tracer.remove_pool_hooks ();
      Observe.Tracer.write t path;
      Printf.printf "trace: %s (%d events; open in ui.perfetto.dev)\n" path
        (Observe.Tracer.event_count t)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* client                                                              *)

let connect socket_path port host timeout =
  let fd =
    match port with
    | Some p ->
        let addr =
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found -> Unix.inet_addr_of_string host
        in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (addr, p));
        fd
    | None ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket_path);
        fd
  in
  if timeout > 0. then Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
  fd

let read_script = function
  | None ->
      let rec go acc =
        match input_line stdin with
        | exception End_of_file -> List.rev acc
        | line -> go (line :: acc)
      in
      go []
  | Some path ->
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | exception End_of_file -> List.rev acc
            | line -> go (line :: acc)
          in
          go [])

let write_all fd line =
  let bytes = Bytes.of_string line in
  let len = Bytes.length bytes in
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write fd bytes !written (len - !written)
  done

(* `client --watch`: one subscribe request, then print the stats pushes
   as they stream in. [updates = 0] watches until the server stops (or
   the receive timeout fires). *)
let watch socket_path port host timeout interval_ms updates quiet =
  let fd = connect socket_path port host timeout in
  let ic = Unix.in_channel_of_descr fd in
  write_all fd
    (Support.Json.to_string
       (Support.Json.Obj
          [
            ("id", Support.Json.Int 0);
            ("op", Support.Json.String "subscribe");
            ("interval_ms", Support.Json.Float interval_ms);
            ("updates", Support.Json.Int updates);
          ])
    ^ "\n");
  let received = ref 0 in
  (try
     while updates = 0 || !received < updates do
       let line = input_line ic in
       incr received;
       if not quiet then print_endline line
     done
   with
  | End_of_file -> ()
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Printf.eprintf "timed out after %d updates\n" !received);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Printf.eprintf "updates: %d/%s\n" !received
    (if updates = 0 then "unbounded" else string_of_int updates);
  if updates > 0 && !received < updates then exit 1

let client socket_path port host script timeout quiet watch_mode interval_ms
    updates =
  if watch_mode then watch socket_path port host timeout interval_ms updates quiet
  else
  let lines =
    read_script script
    |> List.filter (fun l ->
           let l = String.trim l in
           l <> "" && not (String.length l >= 1 && l.[0] = '#'))
  in
  if lines = [] then begin
    Printf.eprintf "empty script\n";
    exit 1
  end;
  let fd = connect socket_path port host timeout in
  let ic = Unix.in_channel_of_descr fd in
  List.iter (fun line -> write_all fd (line ^ "\n")) lines;
  let expected = List.length lines in
  let by_status = Hashtbl.create 8 in
  let received = ref 0 in
  (try
     while !received < expected do
       let line = input_line ic in
       incr received;
       if not quiet then print_endline line;
       let status =
         match Support.Json.of_string line with
         | Ok json -> (
             match Support.Json.member "status" json with
             | Some (Support.Json.String s) -> s
             | _ -> "unparseable")
         | Error _ -> "unparseable"
       in
       Hashtbl.replace by_status status
         (1 + Option.value ~default:0 (Hashtbl.find_opt by_status status))
     done
   with
  | End_of_file ->
      Printf.eprintf "server closed the connection after %d/%d responses\n"
        !received expected
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Printf.eprintf "timed out after %d/%d responses\n" !received expected);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let statuses =
    Hashtbl.fold (fun s n acc -> (s, n) :: acc) by_status []
    |> List.sort compare
    |> List.map (fun (s, n) -> Printf.sprintf "%s=%d" s n)
    |> String.concat " "
  in
  Printf.eprintf "responses: %d/%d (%s)\n" !received expected statuses;
  if !received < expected then exit 1

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)

let socket_arg =
  Arg.(
    value
    & opt string "ordered.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (ignored when $(b,--port) is given)")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"Listen/connect on TCP instead of the unix socket; 0 lets the \
              OS pick (the bound port is printed on the readiness line)")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"TCP bind/connect host")

let serve_cmd =
  let graph =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"GRAPH"
          ~doc:"Edge-list text file or GRAPHBIN binary (sniffed by magic)")
  in
  let workers =
    Arg.(value & opt int 4 & info [ "j"; "workers" ] ~doc:"Worker domains")
  in
  let landmarks =
    Arg.(
      value & opt int 4
      & info [ "landmarks" ] ~docv:"K"
          ~doc:"ALT landmark cache size; 0 disables the cache")
  in
  let queue_capacity =
    Arg.(
      value & opt int 256
      & info [ "queue-capacity" ]
          ~doc:"Admission bound: further requests are rejected, not queued")
  in
  let max_batch =
    Arg.(
      value & opt int 32
      & info [ "max-batch" ] ~doc:"Most requests one batcher cycle drains")
  in
  let deadline_ms =
    Arg.(
      value & opt float 0.
      & info [ "default-deadline-ms" ]
          ~doc:
            "Deadline for requests that set none; 0 means unlimited. \
             Expired queries return status=partial with monotone bounds")
  in
  let slow_query_ms =
    Arg.(
      value & opt float 0.
      & info [ "slow-query-ms" ] ~docv:"MS"
          ~doc:
            "Log a slow-query record (with a check_runner repro line) for \
             any query at or over this wall-clock latency; 0 disables the \
             threshold. Deadline misses are always recorded. Needs \
             $(b,--log)")
  in
  let strategy =
    Arg.(
      value & opt string "eager_with_fusion"
      & info [ "strategy" ] ~doc:"Bucket update strategy")
  in
  let delta =
    Arg.(value & opt int 1 & info [ "delta" ] ~doc:"Priority coarsening factor")
  in
  let threshold =
    Arg.(
      value & opt int 1000
      & info [ "fusion-threshold" ] ~doc:"Bucket fusion threshold")
  in
  let buckets =
    Arg.(
      value & opt int 128
      & info [ "num-buckets" ] ~doc:"Materialized lazy buckets")
  in
  let coords =
    Arg.(
      value
      & opt (some file) None
      & info [ "coords" ] ~doc:"Coordinates file (extra A* heuristic)")
  in
  let symmetric =
    Arg.(
      value & flag
      & info [ "symmetric" ]
          ~doc:"Symmetrize the graph at load (service queries still run on \
                the loaded direction; kcore symmetrizes internally anyway)")
  in
  let warm =
    Arg.(
      value & flag
      & info [ "warm" ]
          ~doc:
            "Warm the whole ALT cache before accepting connections \
             (otherwise it warms in the background and via the warm_alt op)")
  in
  let compact_ops =
    Arg.(
      value & opt int 4096
      & info [ "compact-ops" ] ~docv:"N"
          ~doc:
            "Mutation ops between background compactions of the versioned \
             graph (each compaction rebuilds every derived layout hot and \
             truncates the delta log); 0 disables compaction")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a per-worker timeline of the whole serving session and \
             write Chrome trace_event JSON at exit (open in ui.perfetto.dev)")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write the flight-recorder snapshot as JSON at exit")
  in
  let log_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:
            "Append structured JSONL event records (query attribution, \
             slow queries) to $(docv) (schema: docs/OBSERVABILITY.md §8a)")
  in
  let log_level =
    Arg.(
      value & opt string "info"
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Lowest level written to $(b,--log): debug, info, warn, error. \
             Per-query attribution records are $(b,debug); slow-query \
             records are $(b,warn)")
  in
  let term =
    Term.(
      const serve $ graph $ socket_arg $ port_arg $ host_arg $ workers
      $ landmarks $ queue_capacity $ max_batch $ deadline_ms $ slow_query_ms
      $ strategy $ delta $ threshold $ buckets $ coords $ symmetric $ warm
      $ compact_ops $ trace $ metrics_out $ log_path $ log_level)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Load a graph once and serve ordered-graph point queries \
          (ppsp/astar/widest/kcore) over line-delimited JSON")
    term

let client_cmd =
  let script =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:
            "Request lines to send (one JSON object per line; blank lines \
             and # comments skipped). Reads stdin when absent")
  in
  let timeout =
    Arg.(
      value & opt float 60.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Receive timeout while waiting for responses; 0 disables")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet" ]
          ~doc:"Suppress response lines; only print the summary to stderr")
  in
  let watch =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:
            "Subscribe to the server's live stats stream instead of playing \
             a script: print one queue/latency snapshot per interval \
             (docs/SERVICE.md §7a)")
  in
  let interval_ms =
    Arg.(
      value & opt float 1000.
      & info [ "interval-ms" ] ~docv:"MS"
          ~doc:"Push interval for $(b,--watch) (server-clamped to ≥ 10)")
  in
  let updates =
    Arg.(
      value & opt int 0
      & info [ "updates" ] ~docv:"N"
          ~doc:
            "Stop $(b,--watch) after $(docv) pushes; 0 watches until the \
             server stops or $(b,--timeout) fires")
  in
  let term =
    Term.(
      const client $ socket_arg $ port_arg $ host_arg $ script $ timeout
      $ quiet $ watch $ interval_ms $ updates)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send a script of requests to a running server, print each \
          response, and summarize statuses (exit 1 on missing responses)")
    term

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "ordered_serve"
             ~doc:"Ordered-graph query service (docs/SERVICE.md)")
          [ serve_cmd; client_cmd ]))
