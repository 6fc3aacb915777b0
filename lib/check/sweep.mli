(** The schedule-space differential sweep.

    One algorithm text must produce oracle-equivalent results under every
    point of the paper's schedule space (Table 2). {!run} enumerates, per
    app and graph, the cross-product

    {v strategy × Δ ∈ {1, 2, 8, Δ*} × traversal (push/pull/hybrid)
     × open-bucket count × fusion threshold × Static/Dynamic/Guided
     × 1/2/4 workers v}

    plus a few {!Autotune.Search_space} samples, runs the app on each
    point, and judges the result with {!Oracle}. A failing point is
    shrunk ({!Graph_case.shrink}) and reported with a paste-able
    [check_runner] repro line; {!Harness} runs the loop.

    Everything is deterministic in [seed] — graph contents, sampled
    schedules, and (given the same machine timing) the chaos streams. *)

type app = Sssp | Wbfs | Ppsp | Astar | Kcore | Setcover

val all_apps : app list
val app_to_string : app -> string
val app_of_string : string -> (app, string) result

(** A substrate variant: which storage layout to traverse with, which
    vertex reordering to apply first, and whether the graph must survive
    a [save-bin] → [load-bin] round trip before running. The oracles
    judge apps on the transformed graph, so a variant failure isolates
    the substrate. *)
type variant = {
  layout : Graphs.Layout.kind;
  reorder : Graphs.Reorder.kind;
  bin_roundtrip : bool;
}

(** Plain layout, identity order, no round trip — the historical sweep. *)
val default_variant : variant

(** The default axis: plain and compressed layouts, each also under the
    degree reordering, plus a binary round trip on the plain layout. *)
val default_variants : variant list

type config = {
  app : app;
  spec : Graph_case.spec;
  schedule : Ordered.Schedule.t;
  workers : int;
  variant : variant;
}

(** [run_one ~pool app case schedule] runs one configuration and judges
    it against [oracle] (default {!Oracle.default}). Engine exceptions
    are reported as [Error] like any mismatch. k-core and set cover run
    on the symmetrized edge list; A* requires [case.coords]. [variant]
    (default {!default_variant}) first applies the substrate transforms:
    reordering rewrites the case's edge list and coordinates, [layout]
    picks the traversal storage, and [bin_roundtrip] passes the graph
    through the binary format (a round trip that changes the graph is an
    [Error]). *)
val run_one :
  ?oracle:Oracle.t ->
  ?variant:variant ->
  pool:Parallel.Pool.t ->
  app ->
  Graph_case.t ->
  Ordered.Schedule.t ->
  (unit, string) result

(** A failure's lane carries nothing: every point is judged by its oracle. *)
type failure = (config, unit) Harness.failure

type summary = {
  checks : (config, unit) Harness.summary;
  per_app : (app * int) list;  (** Configurations run per app. *)
}

(** The default graph catalogue for [seed]: random multigraphs, road
    grids, and the degenerate shapes (edgeless, singleton, self-loops,
    duplicate edges). *)
val default_specs : seed:int -> Graph_case.spec list

(** [run ()] sweeps [apps] × [specs] × [variants] (default
    {!default_variants}) × the schedule grid × [workers] with
    {!Harness.run} until done or [budget] seconds elapse, stopping after
    [max_failures] failures. [chaos] enables seeded scheduling
    perturbation ({!Parallel.Chaos}); [race] enables the plain-write
    detector ({!Parallel.Race}). [log] receives one line per failure and
    per repro. *)
val run :
  ?oracle:Oracle.t ->
  ?apps:app list ->
  ?specs:Graph_case.spec list ->
  ?variants:variant list ->
  ?workers:int list ->
  ?budget:float ->
  ?seed:int ->
  ?max_failures:int ->
  ?chaos:bool ->
  ?race:bool ->
  ?log:(string -> unit) ->
  unit ->
  summary

(** The failures-file line of a failure: its message. *)
val headline : unit -> string -> string

(** The [check_runner] JSON summary: {!Harness.summary_json} plus
    [per_app]; each failure carries its app, graph, schedule, workers,
    variant, message, shrunk graph ([null] if unshrunk) and repro line. *)
val summary_json : seed:int -> summary -> Support.Json.t
