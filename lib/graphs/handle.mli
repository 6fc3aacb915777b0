(** A graph handle: one CSR plus lazily cached derived forms.

    The transpose (needed by every pull-direction sweep) and the
    compressed layouts are built on first use and cached for the handle's
    lifetime, so repeated runs — a benchmark loop, the differential
    checker's schedule sweep — stop rebuilding them per run. The handle
    also carries the {!Layout.kind} its consumers should traverse with;
    {!with_kind} re-views the same graph (and shared caches) under the
    other layout.

    Laziness is not thread-safe: force-points all sit on the orchestrating
    thread (engine setup), never inside a parallel episode. *)

type t

(** [create ?kind ?version csr] wraps a CSR ([kind] defaults to [Plain],
    [version] to [0]). The version tags which graph snapshot the handle's
    caches belong to: every mutation commit mints a {e new} handle around
    a fresh CSR, so the cached transpose/compressed views and the CSR's
    memoized degree array can never outlive the graph they were derived
    from (the stale-cache hazard). *)
val create : ?kind:Layout.kind -> ?version:int -> Csr.t -> t

val of_edge_list : ?kind:Layout.kind -> ?version:int -> Edge_list.t -> t

(** The plain CSR, always available without decoding. *)
val csr : t -> Csr.t

val kind : t -> Layout.kind

(** The snapshot version this handle (and all its caches) was built from.
    [0] for handles created outside {!Versioned}. *)
val version : t -> int

(** [prewarm t] eagerly forces the transpose (and, for [Compressed]-kind
    handles, both compressed forms) plus the CSR degree memo. Only safe
    while [t] is private to one thread — {!Versioned} compaction uses it
    before publishing a handle. *)
val prewarm : t -> unit
val num_vertices : t -> int
val num_edges : t -> int

(** [with_kind kind t] shares [t]'s graph and caches under another
    layout kind. *)
val with_kind : Layout.kind -> t -> t

(** [reverse t] views the transpose of [t] as the forward graph, under
    the same kind and version. It forces the plain transpose and shares
    both transpose cells with [t], so nothing is rebuilt:
    [transpose_csr (reverse t) == csr t]. Backward runs (distances {e to}
    a vertex) run forward over it. *)
val reverse : t -> t

(** [resolve handle graph] is the handle an algorithm entry point runs
    on: [handle] when given, else a fresh [Plain] handle around [graph].
    @raise Invalid_argument when [handle] wraps a CSR other than
      (physically) [graph]. *)
val resolve : t option -> Csr.t -> t

(** [graph t] is the forward graph in the handle's layout (cached). *)
val graph : t -> Layout.t

(** [transpose t] is the reversed graph in the handle's layout, built on
    first use and cached — pull sweeps and checkers share one transpose
    per handle. *)
val transpose : t -> Layout.t

(** [transpose_csr t] is the cached plain transpose (for consumers that
    need CSR access regardless of the handle's kind). *)
val transpose_csr : t -> Csr.t

(** [compressed t] is the cached compressed form of the forward graph. *)
val compressed : t -> Csr_compressed.t
