(** Performance-optimization schedules for [applyUpdatePriority] operators —
    the scheduling-language surface of Table 2 in the paper, plus the
    original GraphIt direction and parallelization knobs it composes with. *)

(** The bucket-update strategy ([configApplyPriorityUpdate]). *)
type update_strategy =
  | Eager_with_fusion  (** Thread-local buckets + bucket fusion (Fig. 7). *)
  | Eager_no_fusion  (** Thread-local buckets, one sync per round (Fig. 6). *)
  | Lazy  (** Buffered updates, bulk bucket insertion (Fig. 5). *)
  | Lazy_constant_sum
      (** Lazy plus histogram reduction of constant-delta updates
          (Fig. 10); only valid when the user function performs a
          constant-sum priority update. *)

(** Edge-traversal direction ([configApplyDirection]). *)
type traversal =
  | Sparse_push  (** Sparse frontier, push along out-edges. *)
  | Dense_pull
      (** Dense frontier bitmap, pull along in-edges; no atomics on the
          destination (Fig. 9(b)). Only valid with lazy strategies. *)
  | Hybrid
      (** Ligra-style direction optimization, which the paper notes can be
          combined with the lazy bucketing schedules: each round pulls when
          the frontier's out-degree sum passes a density threshold and
          pushes otherwise. Only valid with lazy strategies. *)

type t = {
  strategy : update_strategy;
  delta : int;  (** Priority-coarsening factor ([configApplyPriorityUpdateDelta]). *)
  fusion_threshold : int;
      (** Max local-bucket size a thread may process without
          redistributing ([configBucketFusionThreshold]). *)
  num_open_buckets : int;
      (** Materialized buckets for lazy strategies ([configNumBuckets]). *)
  traversal : traversal;
  chunk_size : int;  (** Dynamic-scheduling grain for parallel loops. *)
  sched : Parallel.Pool.sched option;
      (** Loop-scheduling policy for the edge sweep ([configApplyParallelization]
          analogue). [None] keeps the traversal core's per-direction defaults
          ([Dynamic] for push, [Guided] for pull); [Some _] forces one policy
          in both directions. Orthogonal to correctness — enumerated by the
          differential sweep precisely because results must not depend on it. *)
  incremental_threshold : float;
      (** Incremental-recompute fallback knob: when a delta batch's
          affected set (dirty vertices + boundary seeds) exceeds this
          fraction of the vertex count, [run_incremental] consumers fall
          back to a full recompute. [0] forces full recompute always;
          [1] never falls back. Orthogonal to correctness — swept by the
          differential checker like the other axes. *)
}

(** [default] is eager-with-fusion, [delta = 1], threshold 1000, 128 open
    buckets, sparse-push, chunk 64 — mirroring the paper's defaults
    (Table 2 bolds eager_with_fusion). *)
val default : t

(** [validate t] rejects inconsistent combinations: non-positive parameters,
    an [incremental_threshold] outside [0, 1], [Dense_pull] with an eager
    strategy (eager bucket updates require push ownership of the local
    bins). *)
val validate : t -> (t, string) result

(** [strategy_of_string] / [strategy_to_string] use the scheduling-language
    spellings: ["eager_with_fusion"], ["eager_no_fusion"], ["lazy"],
    ["lazy_constant_sum"]. *)
val strategy_of_string : string -> (update_strategy, string) result

val strategy_to_string : update_strategy -> string

(** [traversal_of_string] / [traversal_to_string] use ["SparsePush"],
    ["DensePull"], and ["DensePull-SparsePush"] (hybrid). *)
val traversal_of_string : string -> (traversal, string) result

val traversal_to_string : traversal -> string

(** [sched_of_string] / [sched_to_string] use ["default"], ["static"],
    ["dynamic"], ["guided"]. *)
val sched_of_string : string -> (Parallel.Pool.sched option, string) result

val sched_to_string : Parallel.Pool.sched option -> string

(** [to_string] / [of_string] round-trip a schedule through the repro-line
    syntax ([strategy=lazy,delta=2,...,sched=guided,incr=0.25]).
    Parsing starts from {!default}, so keys may be omitted, and validates
    the result. *)
val to_string : t -> string

val of_string : string -> (t, string) result

(** [is_eager t] is true for both eager strategies. *)
val is_eager : t -> bool

(** [pp] prints a schedule as scheduling-language calls. *)
val pp : Format.formatter -> t -> unit
