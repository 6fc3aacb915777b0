(** The DSL differential sweep: generated programs ({!Dsl_case}) run
    through three lanes and compared lane-against-lane.

    - {e reference}: the interpreter with the §5.2 loop replacement
      disabled ([Interp.run ~transform:false]) on a one-worker pool — an
      engine-free, schedule-free executable semantics;
    - {e engine}: the interpreter with the transformation on, across the
      schedule grid ({!Dsl_case.strategies} × Δ × traversal × sched) and
      worker counts, re-scheduled per point with
      {!Dsl.Lower.with_loop_schedule};
    - {e compiled}: where a C++ toolchain is detected, the
      {!Dsl.Codegen_cpp} translation of representative grid points,
      built and executed out of process, its [out]/[vec] protocol parsed
      back and compared against the reference.

    A mismatch is shrunk twice — {!Harness.ddmin} over the program's gene
    list, then {!Graph_case.shrink} over the graph — and reported with a paste-able
    [check_runner --dsl] repro line. [bug] grafts a deliberately wrong
    lowering into the engine and compiled lanes (the reference stays
    honest), which is how the test suite proves the sweep detects and
    minimizes injected miscompilations. *)

type bug =
  | No_bug
  | Wrong_weight
      (** Engine/compiled lanes see every [weight] use in user functions
          as [weight + 1] — a miscompiled edge-weight load. No-op for the
          unweighted {!Dsl_case.Sum_peel} family. *)

val bug_to_string : bug -> string
val bug_of_string : string -> (bug, string) result

(** A detected C++ toolchain: the compiler command and a per-process
    cache of already-built binaries keyed by generated source. *)
type toolchain

(** Probes [g++], then [c++], then [clang++]. *)
val detect_toolchain : unit -> toolchain option

val toolchain_name : toolchain -> string

type config = {
  spec : Dsl_case.spec;
  graph : Graph_case.spec;
  schedule : Ordered.Schedule.t;
  workers : int;
  bug : bug;
}

(** The lane a failure shows up in: lowering the rendered program, the
    reference interpreter, the scheduled engine, or the compiled C++
    (compile errors and unreadable output included). *)
type lane = Lower | Reference | Engine | Compiled

val lane_to_string : lane -> string

(** [run_one ~pool ~ref_pool spec case schedule] renders, lowers, and
    compares the lanes for one configuration. [pool] drives the engine
    lane, [ref_pool] (one worker) the reference. The compiled lane runs
    only when [toolchain] is supplied; its unavailability exits (status
    2: unmatched program, unsupported construct) are skips, not
    failures. Lowering errors, runtime errors, and lane mismatches are
    all [Error], tagged with their lane. *)
val run_one :
  ?bug:bug ->
  ?toolchain:toolchain ->
  pool:Parallel.Pool.t ->
  ref_pool:Parallel.Pool.t ->
  Dsl_case.spec ->
  Graph_case.t ->
  Ordered.Schedule.t ->
  (unit, lane * string) result

type failure = (config, lane) Harness.failure

type summary = {
  checks : (config, lane) Harness.summary;
  programs : int;
  compiled_runs : int;
  toolchain : string option;  (** [None] when no C++ compiler was found. *)
}

(** The default program stream for [seed]: {!Dsl_case.generate} 0..5. *)
val default_programs : seed:int -> Dsl_case.spec list

(** Small graphs — the sweep multiplies every program by the full grid,
    so cases stay tiny: a random multigraph, a road grid, a path, a
    star, duplicate edges, self-loops, and the edgeless degenerate. *)
val default_graphs : seed:int -> Graph_case.spec list

(** [run ()] sweeps programs × graphs × the schedule grid × [workers]
    under [budget] seconds, stopping after [max_failures]. [compiled]
    forces the compiled lane on or off (default: auto-detect). [chaos]
    and [race] behave as in {!Sweep.run}. *)
val run :
  ?programs:Dsl_case.spec list ->
  ?graphs:Graph_case.spec list ->
  ?workers:int list ->
  ?budget:float ->
  ?seed:int ->
  ?max_failures:int ->
  ?chaos:bool ->
  ?race:bool ->
  ?bug:bug ->
  ?compiled:bool ->
  ?log:(string -> unit) ->
  unit ->
  summary

(** The failures-file line of a failure: [LANE lane: MESSAGE]. *)
val headline : lane -> string -> string

(** The [--dsl] JSON summary: {!Harness.summary_json} plus [programs],
    [compiled_runs] and [toolchain]; each failure carries its original
    configuration, lane, message, shrunk program and graph ([null] if
    unshrunk) and repro line. *)
val summary_json : seed:int -> summary -> Support.Json.t
