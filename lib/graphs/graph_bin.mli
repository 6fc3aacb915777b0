(** Versioned binary graph format, loaded via [Unix.map_file].

    A ["GRAPHBIN"]-tagged, little-endian container holding a prebuilt CSR
    (plain or compressed) so large graphs load at memory-bandwidth speed
    instead of re-parsing an edge-list text file. The 64-byte header
    records magic, version, an endianness marker, the layout code, and
    the vertex/edge counts; see the spec in docs/INTERNALS.md. Loaders
    reject unknown versions, bad magic, foreign endianness, header counts
    beyond the file size, truncated payloads, and payloads that fail
    the structural check (see {!load}) with a descriptive [Failure]. *)

(** [save path ?layout csr] writes [csr] in the given on-disk layout
    (default [Plain]; [Compressed] encodes the varint form first). *)
val save : string -> ?layout:Layout.kind -> Csr.t -> unit

(** [load path] maps the file and returns the graph in its on-disk
    layout, after the O(n + m) structural check of that layout
    ({!Csr.validate} or {!Csr_compressed.validate}): the kernels read the
    loaded arrays unchecked, so a crafted file must not get past it.
    Raises [Failure] on malformed input. *)
val load : string -> Layout.t

(** [load path |> Layout.to_csr], for consumers that need the plain CSR.
    A compressed file is decoded once ({!Csr_compressed.to_csr_checked})
    and checked as a plain CSR, instead of checked compressed and then
    decoded again. Raises [Failure] on malformed input, as {!load}. *)
val load_csr : string -> Csr.t

(** [is_graph_bin path] sniffs the 8-byte magic; false for unreadable or
    short files. *)
val is_graph_bin : string -> bool
