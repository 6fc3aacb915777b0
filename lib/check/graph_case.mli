(** Named, seeded graph inputs for the differential sweep, round-tripping
    through compact strings so every failure prints a self-contained repro
    line ([check_runner --graph 'random:seed=3,n=48,m=200,w=12']).

    The catalogue covers both regimes the paper evaluates (power-law-ish
    random multigraphs for the social-network side, perturbed road grids
    with coordinates for the A*/road side) and the degenerate shapes from
    [test_robustness] (edgeless, singleton-via-[Edgeless 1], self-loops,
    duplicate edges). [Explicit] carries a literal edge list — the form
    shrunk counterexamples are reported in. *)

type spec =
  | Random of { seed : int; n : int; m : int; max_w : int }
      (** [m] independent uniform (src, dst, weight) draws — self-loops and
          parallel edges included. *)
  | Dup_edges of { seed : int; n : int; m : int; max_w : int }
      (** {!Random} with every edge duplicated at weight+1. *)
  | Road of { seed : int; rows : int; cols : int }
      (** {!Graphs.Generators.road_grid}; the only generated spec with
          coordinates, hence the A* input. *)
  | Path of int
  | Cycle of int
  | Star of int
  | Complete of int
  | Edgeless of int
  | Self_loops of int  (** A cycle plus a self-loop on every vertex. *)
  | Explicit of {
      num_vertices : int;
      edges : (int * int * int) list;  (** [(src, dst, weight)] *)
      coords : (float * float) list option;
    }

type t = {
  spec : spec;
  el : Graphs.Edge_list.t;
  coords : Graphs.Coords.t option;
}

(** [build spec] materializes the edge list (deterministic in the spec).
    Raises [Invalid_argument] for specs violating {!Graphs.Edge_list}'s
    invariants (out-of-range endpoints, non-positive weights). *)
val build : spec -> t

val to_string : spec -> string

(** [of_string s] parses what {!to_string} prints. *)
val of_string : string -> (spec, string) result

(** [shrink ~check case] minimizes [case]'s edge list with {!Harness.ddmin}
    (400 probes) while [check] keeps failing, then trims unused trailing
    vertices if the trimmed graph still fails. The result is an
    [Explicit] spec. *)
val shrink : check:(t -> bool) -> t -> spec
