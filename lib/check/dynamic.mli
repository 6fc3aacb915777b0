(** Differential checking for the dynamic-graph path.

    A {!config} replays a sequence of random {!Graphs.Delta} batches
    against a seeded graph case; every step must agree across four
    answers: [Sssp_delta.run_incremental] (the ordered engine seeded
    from the affected set), a from-scratch [Sssp_delta.run] under the
    same schedule, [Bellman_ford.run_incremental] (unordered repair that
    shares no bucketing code), and the sequential oracle. {!run} sweeps
    specs × schedules (push/pull/hybrid × strategies × Δ ×
    incremental-threshold, including threshold 0 — the forced
    full-recompute fallback) × worker counts under a time budget, with
    chaos/race modes. A failure's batches (not its graph) are shrunk
    with {!Harness.ddmin}: first whole batches, then the ops of each
    remaining batch, 300 probes in all. *)

type config = {
  spec : Graph_case.spec;
  schedule : Ordered.Schedule.t;
  workers : int;
  batches : Graphs.Delta.batch array;
}

(** Batches joined by [";"], each in {!Graphs.Delta.to_string} form. *)
val batches_to_string : Graphs.Delta.batch array -> string

val batches_of_string : string -> (Graphs.Delta.batch array, string) result

(** [gen_batches ~seed csr ~num_batches ~ops_per_batch] generates random
    batches whose deletes/reweights target edges live at that point of
    the replay (the tracked graph evolves batch over batch). *)
val gen_batches :
  seed:int ->
  Graphs.Csr.t ->
  num_batches:int ->
  ops_per_batch:int ->
  Graphs.Delta.batch array

(** [run_config ~pool config] replays and judges one configuration.
    [Error (step, message)]: step 0 is the initial full run (or a
    configuration error); step [k >= 1] failed replaying batch [k - 1]. *)
val run_config : pool:Parallel.Pool.t -> config -> (unit, int * string) result

(** A failure's lane is the replay step that failed (see {!run_config}). *)
type failure = (config, int) Harness.failure

type summary = (config, int) Harness.summary

val default_specs : seed:int -> Graph_case.spec list

(** [run ()] sweeps the cross product under [budget] seconds, stopping
    after [max_failures]. Mirrors {!Sweep.run}'s chaos/race/log knobs. *)
val run :
  ?specs:Graph_case.spec list ->
  ?workers:int list ->
  ?budget:float ->
  ?seed:int ->
  ?max_failures:int ->
  ?num_batches:int ->
  ?ops_per_batch:int ->
  ?chaos:bool ->
  ?race:bool ->
  ?log:(string -> unit) ->
  unit ->
  summary

(** The failures-file line of a failure: [step N: MESSAGE]. *)
val headline : int -> string -> string

(** The [--dynamic] JSON summary; each failure carries the shrunk
    configuration, its failing step, message and repro line. *)
val summary_json : seed:int -> summary -> Support.Json.t
