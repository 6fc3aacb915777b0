(** Batched edge mutations and affected-set planning.

    A {!batch} is an ordered sequence of edge inserts, deletes, and
    reweights over a fixed vertex universe. {!apply} replays a batch
    against an immutable CSR and returns a {e fresh} CSR — the input is
    never mutated, which is what lets {!Versioned} pin old snapshots by
    reference. {!plan} computes the conservative affected set that
    incremental recompute ([Engine.run_incremental] and its consumers)
    re-seeds the priority structures from.

    Semantics per op:
    - [Insert] appends a (possibly parallel) edge [src -> dst] with the
      given positive weight.
    - [Delete] removes {e every} parallel copy of [src -> dst]; deleting
      an absent edge is a no-op.
    - [Reweight] sets the weight of every copy of [src -> dst]; on an
      absent edge it is a no-op.

    Ops within a batch apply in order (so [Delete] then [Insert] leaves
    exactly one copy). *)

type op =
  | Insert of { src : int; dst : int; weight : int }
  | Delete of { src : int; dst : int }
  | Reweight of { src : int; dst : int; weight : int }

type batch = op array

val op_src : op -> int
val op_dst : op -> int

(** [validate ~num_vertices batch] checks endpoints are in range and
    weights positive. *)
val validate : num_vertices:int -> batch -> (unit, string) result

(** [size batch] is the op count. *)
val size : batch -> int

(** [reverse batch] flips every op's endpoints — apply it to a transpose
    to keep it in sync with the forward graph. *)
val reverse : batch -> batch

(** [apply csr batch] materializes the mutated graph as a fresh CSR.
    Untouched adjacency lists are blit-copied; touched ones are replayed
    and re-sorted by target. The result carries no memoized degree cache
    (each version recomputes its own — the stale-cache hazard fix).
    @raise Invalid_argument on an invalid batch. *)
val apply : Csr.t -> batch -> Csr.t

(** The affected set of a batch relative to a previous shortest-distance
    vector (see [plan]). *)
type plan = {
  dirty : int array;
      (** vertices whose previous distance may no longer be achievable;
          callers reset these to [null] before re-seeding. Sorted
          ascending. The SSSP source is never dirty (positive weights). *)
  seeds : (int * int) list;
      (** [(vertex, candidate)] pairs: the clean-to-dirty boundary edges
          of the {e new} graph plus improving-op candidates into clean
          vertices, each read from the op's edge as it stands in the new
          graph (none if the batch removed it). Feed each through
          [update_priority_min]. *)
  affected : int;  (** [|dirty| + |seeds|] — the fallback measure. *)
}

(** [plan ~old_csr ~new_csr batch ~dist ~null] computes the dirty closure
    over the old graph (a vertex is dirty when a removed/raised edge or a
    dirty predecessor supported its tight distance) and the seed
    candidates over the new graph. [dist] is the pre-mutation distance
    vector and is not modified; [null] is the "unreached" sentinel.
    Conservative: over-marking costs recomputation, never correctness. *)
val plan : old_csr:Csr.t -> new_csr:Csr.t -> batch -> dist:int array -> null:int -> plan

(** Printable form used by repro lines: ops joined by [","], each
    [i:src-dst-w], [d:src-dst], or [r:src-dst-w]. *)
val to_string : batch -> string

val of_string : string -> (batch, string) result
val op_to_string : op -> string
val op_of_string : string -> (op, string) result
