(** Compressed-sparse-row weighted digraphs, the in-memory representation
    every engine traverses (the [WGraph] of the paper's generated code). *)

type t

(** The per-edge arrays (targets, weights): Bigarrays, so the bulk of a
    graph lives outside the OCaml heap. *)
type edges = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [create_edges m] is an uninitialized edge array of length [m], for
    builders that fill every slot. *)
val create_edges : int -> edges

(** [of_edge_list el] builds the CSR form with a counting sort; neighbor
    lists are ordered by destination id. *)
val of_edge_list : Edge_list.t -> t

(** [unsafe_of_arrays ~num_vertices ~offsets ~targets ~weights] adopts the
    flat arrays directly (the binary-format loader's fast path). Only array
    lengths and the final offset are validated: the caller promises that
    [offsets] is monotone and that every neighbor list is sorted by
    destination id, as {!of_edge_list} would produce. *)
val unsafe_of_arrays :
  num_vertices:int ->
  offsets:int array ->
  targets:edges ->
  weights:edges ->
  t

(** [validate g] is the O(n + m) structural check that makes a graph from
    {!unsafe_of_arrays} safe to traverse (the accessors read targets
    unchecked): [offsets.(0) = 0], offsets monotone and ending at the
    edge count, every target in [[0, n)]. Neighbor order and weights are
    not checked. *)
val validate : t -> (unit, string) result

(** [offsets g] / [targets g] / [weights g] borrow the underlying flat
    arrays (for serialization and layout conversion). Do not mutate. *)
val offsets : t -> int array

val targets : t -> edges
val weights : t -> edges

(** [num_vertices g] is |V|. *)
val num_vertices : t -> int

(** [num_edges g] is the number of directed edges. *)
val num_edges : t -> int

(** [out_degree g u] is the number of outgoing edges of [u]. *)
val out_degree : t -> int -> int

(** [iter_out g u f] applies [f dst weight] to every outgoing edge of [u]. *)
val iter_out : t -> int -> (int -> int -> unit) -> unit

(** [fold_out g u f acc] folds over the outgoing edges of [u]. *)
val fold_out : t -> int -> ('a -> int -> int -> 'a) -> 'a -> 'a

(** [edge_range g u] is the half-open index range [(lo, hi)] of [u]'s edges
    in the flat arrays, for chunked traversal. *)
val edge_range : t -> int -> int * int

(** [edge_target g i] and [edge_weight g i] read the flat edge arrays at
    index [i] in [0, num_edges). *)
val edge_target : t -> int -> int

val edge_weight : t -> int -> int

(** [transpose g] reverses every edge (used by DensePull traversal). *)
val transpose : t -> t

(** [to_edge_list g] recovers the edge list. *)
val to_edge_list : t -> Edge_list.t

(** [max_weight g] is the largest edge weight, or [0] for an edgeless
    graph. *)
val max_weight : t -> int

(** [out_degrees g] is a fresh array of all out-degrees. *)
val out_degrees : t -> int array

(** [out_degrees_cached g] is the same array memoized inside the graph:
    computed on first use, then borrowed by every later call. Hot paths
    (the hybrid direction heuristic) read it once per frontier member per
    round, so they must not pay a fresh allocation each time. Do not
    mutate the result. *)
val out_degrees_cached : t -> int array

(** [mem_edge g u v] tests whether a [u -> v] edge exists (binary search). *)
val mem_edge : t -> int -> int -> bool
