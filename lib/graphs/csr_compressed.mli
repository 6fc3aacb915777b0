(** Delta/varint-compressed adjacency (Ligra+ style).

    Neighbor lists are byte streams: the first destination zigzag-delta
    encoded against the vertex id, later destinations as gaps from their
    predecessor, each followed by its weight, all as LEB128 varints. The
    edge payload typically shrinks 4-8x against the plain CSR's 16 bytes
    per edge; degrees and per-vertex byte offsets stay as int arrays so
    [out_degree] and chunked sweeps remain O(1).

    {!iter_out} decodes in registers — no neighbor array is ever
    materialized — which is what lets the pull kernel consume compressed
    adjacency at full speed. Encoding requires what {!Csr.of_edge_list}
    guarantees: neighbor lists sorted by destination id. *)

type t

(** [of_csr g] compresses a plain CSR. [to_csr] decodes it back; the
    round-trip is the identity (property-tested). *)
val of_csr : Csr.t -> t

val to_csr : t -> Csr.t

val num_vertices : t -> int
val num_edges : t -> int
val out_degree : t -> int -> int

(** [out_degrees g] borrows the per-vertex degree array. Do not mutate. *)
val out_degrees : t -> int array

(** [iter_out g u f] applies [f dst weight] to every outgoing edge of [u],
    decoding the varint stream in registers. *)
val iter_out : t -> int -> (int -> int -> unit) -> unit

val fold_out : t -> int -> ('a -> int -> int -> 'a) -> 'a -> 'a

(** [data_bytes g] is the size of the compressed edge payload in bytes
    (compression-ratio reporting). *)
val data_bytes : t -> int

(** {2 Serialization internals} — borrowed parts for the binary graph
    format. Do not mutate. *)

val degrees : t -> int array
val starts : t -> int array
val data : t -> Bytes.t

(** [validate g] is the O(n + m) structural check that makes a graph from
    {!unsafe_of_parts} safe to traverse (the decoder reads bytes
    unchecked): degrees non-negative and summing to the edge count,
    [starts] monotone within the data, and every vertex's stream decoding
    inside its own byte range to targets in [[0, n)]. *)
val validate : t -> (unit, string) result

(** [to_csr_checked g] is [to_csr g] for a graph from {!unsafe_of_parts}
    that {!validate} has not checked: it decodes every stream once with
    bounds checks, then runs {!Csr.validate} on the plain arrays. The
    binary loader's [load_csr] uses it, so a compressed file is decoded
    once instead of once to check and once to convert. *)
val to_csr_checked : t -> (Csr.t, string) result

(** [unsafe_of_parts] adopts previously serialized parts; only lengths and
    the final byte offset are validated. *)
val unsafe_of_parts :
  num_vertices:int ->
  num_edges:int ->
  degrees:int array ->
  starts:int array ->
  data:Bytes.t ->
  t
