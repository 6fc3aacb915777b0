(** The flight-recorder metric registry: named monotonic counters and
    duration histograms, cheap enough to stay on while the engine runs.

    A registry maps names to instruments. {e Counters} are monotonic and
    accumulate per worker into padded slots
    ({!Parallel.Atomic_array.make_padded}), so hot-path increments from
    different domains never bounce a cache line; a counter's value is the
    sum over slots. {e Histograms} record durations (seconds in, integer
    nanoseconds internally) into power-of-two buckets with atomic updates,
    so any domain may record.

    Reading happens through {!snapshot}: an immutable copy of every
    instrument, taken between parallel phases. {!diff} subtracts two
    snapshots, which is how callers scope measurements to one run ("the
    flight") on a shared registry. Every metric name that ships in this
    repository is documented in [docs/OBSERVABILITY.md]. *)

type t

(** [create ()] is an empty registry. Counter slot counts are fixed (16,
    a power of two); worker ids are folded into slots by masking, so any
    [tid] is safe. *)
val create : unit -> t

(** [default] is the process-wide registry used by {!Span} and the
    instrumentation hooks in the engine, bucket structures, and baselines. *)
val default : t

(** [reset t] zeroes every registered instrument (the registry keeps its
    instruments; handles stay valid). Call between flights only. *)
val reset : t -> unit

(** {1 Counters} *)

type counter

(** [counter t name] is the counter registered under [name], creating it on
    first use. Thread-safe; idempotent. *)
val counter : t -> string -> counter

(** [incr c ~tid ?by ()] adds [by] (default 1) to worker [tid]'s slot.
    Counters are monotonic: raises [Invalid_argument] when [by < 0]. *)
val incr : counter -> tid:int -> ?by:int -> unit -> unit

(** [counter_value c] sums the per-worker slots. Exact only between
    parallel phases. *)
val counter_value : counter -> int

(** {1 Duration histograms} *)

type histogram

(** [histogram t name] is the histogram registered under [name], creating
    it on first use. Thread-safe; idempotent. *)
val histogram : t -> string -> histogram

(** [observe h seconds] records one duration. Negative durations clamp to
    zero (a clock can step backwards); all updates are atomic. *)
val observe : histogram -> float -> unit

(** {1 Snapshots} *)

type hist_summary = {
  count : int;  (** Number of observations. *)
  total_ns : int;  (** Sum of observed durations, nanoseconds. *)
  min_ns : int;  (** Smallest observation; [0] when [count = 0]. *)
  max_ns : int;  (** Largest observation; [0] when [count = 0]. *)
  buckets : (int * int) list;
      (** Non-empty power-of-two buckets, [(exponent, count)]: an
          observation of [n] ns lands in the bucket whose exponent is the
          position of [n]'s highest set bit. Sorted by exponent. *)
}

type snapshot = {
  counters : (string * int) list;  (** Sorted by name. *)
  histograms : (string * hist_summary) list;  (** Sorted by name. *)
}

(** [percentile_ns h q] estimates the [q]-quantile ([q] in [[0;1]],
    clamped) of the durations recorded in [h], in nanoseconds, from its
    power-of-two buckets alone: nearest-rank bucket selection plus
    linear interpolation within the bucket, clamped to the recorded
    min/max. Because buckets bin by highest set bit, the estimate is
    always within one log2 bucket of the exact sample percentile — the
    contract the qcheck suite pins. [0.] when the histogram is empty.
    The service's [stats] reply derives its p50/p95/p99 latencies from
    this. *)
val percentile_ns : hist_summary -> float -> float

(** [snapshot t] copies every instrument. Take it between parallel phases
    for exact values. *)
val snapshot : t -> snapshot

(** [diff ~earlier later] subtracts counter values and histogram summaries
    entry-wise: the activity that happened between the two snapshots.
    Instruments absent from [earlier] are kept as-is; [min_ns]/[max_ns]
    are those of [later] (extrema cannot be un-observed). *)
val diff : earlier:snapshot -> snapshot -> snapshot

(** [is_empty s] is true when [s] has no instruments with any activity. *)
val is_empty : snapshot -> bool

(** {1 Exporters} *)

(** [pp ?times ppf s] prints the snapshot as an aligned table: counters
    first, then histograms (count, total ms, mean us, min/max us).
    [~times:false] omits every wall-clock column, leaving only names and
    counts — the deterministic form used by golden tests. *)
val pp : ?times:bool -> Format.formatter -> snapshot -> unit

(** [to_json s] is the snapshot as
    [{"counters": {name: value, ...},
      "histograms": {name: {"count": .., "total_ns": .., "min_ns": ..,
                            "max_ns": .., "buckets": [[exp, count], ...]},
                     ...}}]
    — the [metrics] object of the service's [stats] reply and the file
    [ordered_serve --metrics-out] writes. *)
val to_json : snapshot -> Support.Json.t
