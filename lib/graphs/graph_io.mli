(** Reading and writing graphs on disk.

    Two formats are supported:
    - a simple weighted edge-list text format: a header line
      ["# num_vertices num_edges"] followed by one ["src dst weight"] line
      per edge (0-indexed);
    - the DIMACS shortest-path format used by the paper's RoadUSA input:
      ["p sp n m"] then ["a u v w"] lines (1-indexed).

    Coordinates use one ["x y"] line per vertex after a ["# n"] header. *)

(** [write_edge_list path el] writes the simple text format. *)
val write_edge_list : string -> Edge_list.t -> unit

(** [read_edge_list path] parses the simple text format. Raises [Failure]
    with a located message on malformed input. *)
val read_edge_list : string -> Edge_list.t

(** [read_dimacs path] parses the DIMACS [.gr] format, converting to
    0-indexed vertices. *)
val read_dimacs : string -> Edge_list.t

(** [write_dimacs path el] writes the DIMACS [.gr] format. *)
val write_dimacs : string -> Edge_list.t -> unit

(** [write_coords path coords] / [read_coords path] store per-vertex planar
    coordinates. *)
val write_coords : string -> Coords.t -> unit

val read_coords : string -> Coords.t

(** [load path] dispatches on extension: [.gr] loads DIMACS, anything else
    the simple edge-list format. This is the [load] intrinsic of the DSL. *)
val load : string -> Edge_list.t

(** [load_any path] is the one loader behind the binaries: a GRAPHBIN
    file (sniffed by its magic, see {!Graph_bin.is_graph_bin}) through
    {!Graph_bin.load_csr}, anything else through {!load}. A missing,
    malformed or corrupt file is [Error msg], never an exception. *)
val load_any : string -> (Edge_list.t, string) result
