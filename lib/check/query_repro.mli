(** One service query as a reproducible [check_runner] command line.

    The slow-query log (lib/service, docs/OBSERVABILITY.md) attaches a
    line of the form

    {v check_runner --app ppsp --graph-file road.el --source 40
       --target 6399 --schedule 'strategy=eager_fusion,delta=2,...'
       --workers 2 v}

    to every record, so an offending query replays solo — same graph
    file, endpoints, schedule, and worker count — judged against the
    sequential oracles. {!to_line} quotes its words for a POSIX shell
    ({!Harness.command_line}); {!of_line} accepts a pasted line (leading
    [check_runner]/[dune exec ... --] tokens are skipped; words may be
    single-quoted or backslash-escaped), and {!run} executes it. A* replays without
    the server's ALT heuristic (h = 0 is plain PPSP — still exact, so
    the judgement is unchanged); k-core symmetrizes the loaded graph
    exactly like the server does. *)

type app = Ppsp | Astar | Widest | Kcore

val app_to_string : app -> string
val app_of_string : string -> (app, string) result

type t = {
  app : app;
  graph_file : string;  (** Edge-list text or GRAPHBIN (sniffed). *)
  symmetric : bool;  (** Symmetrize after load, as [serve --symmetric]. *)
  source : int;  (** The vertex, for [Kcore]. *)
  target : int;  (** Ignored by [Kcore]. *)
  schedule : Ordered.Schedule.t;
  workers : int;
}

val to_line : t -> string

(** [of_line line] parses a repro line; [Error] describes the first
    offending token. *)
val of_line : string -> (t, string) result

(** [run ?oracle r] loads the graph, runs the query on a fresh
    [r.workers]-worker pool, and judges the result ([Ok ()] = matches
    the oracle). IO and range problems come back as [Error]. *)
val run : ?oracle:Oracle.t -> t -> (unit, string) result
