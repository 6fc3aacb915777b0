(** Arrays of integers with compare-and-swap updates.

    This is the OCaml counterpart of the [CAS]/[writeMin]/[fetch_add]
    primitives the paper's generated C++ uses on distance and degree arrays
    (Figure 2 and Figure 9). The cells are one flat [int array], one word
    per cell, read and updated through sequentially consistent C atomics,
    so concurrent updates from multiple domains are sequentially
    consistent, as with [int Atomic.t] cells, without a box per cell. *)

type t

(** [make n v] is an array of [n] cells, all holding [v]: one
    [Array.make] of [n] words. *)
val make : int -> int -> t

(** [make_padded n v] is {!make} with each cell on its own cache line. Use
    for small, contention-heavy counter arrays (per-worker [fetch_add]
    slots), where packing 8 cells per line causes false sharing; never for
    per-vertex vectors, where density is what matters. *)
val make_padded : int -> int -> t

(** [length a] is the cell count. *)
val length : t -> int

(** [id a] is the array's allocation id (process-wide, in allocation
    order). Its only purpose is to correlate {!Race.finding} records with
    the arrays they name. *)
val id : t -> int

(** [get a i] reads cell [i]. *)
val get : t -> int -> int

(** [set a i v] writes cell [i] unconditionally. Plain sets must follow
    the ownership discipline — only one worker may plain-set a given slot
    within one [Pool.run_workers] episode; the {!Race} debug mode checks
    exactly this. ([blit_from], [of_array], and the CAS-family updates
    are exempt: they are initialization-time or self-reconciling.) *)
val set : t -> int -> int -> unit

(** [compare_and_set a i ~expected ~desired] atomically replaces the value of
    cell [i] with [desired] when it currently holds [expected]; returns
    whether the swap happened. *)
val compare_and_set : t -> int -> expected:int -> desired:int -> bool

(** [fetch_min a i v] atomically lowers cell [i] to [v] when [v] is smaller;
    returns whether the cell changed ([writeMin] in the paper). *)
val fetch_min : t -> int -> int -> bool

(** [fetch_max a i v] atomically raises cell [i] to [v] when [v] is larger;
    returns whether the cell changed. *)
val fetch_max : t -> int -> int -> bool

(** [fetch_add a i d] atomically adds [d] to cell [i]; returns the value the
    cell held before the addition. *)
val fetch_add : t -> int -> int -> int

(** [add_with_floor a i ~delta ~floor] atomically adds [delta] (which may be
    negative) but never lets the cell drop below [floor]; returns
    [Some (old, new_)] when the cell changed, [None] when it was already at
    or below the floor. This implements [updatePrioritySum] with a minimum
    threshold (Table 1 of the paper), as used by k-core. *)
val add_with_floor : t -> int -> delta:int -> floor:int -> (int * int) option

(** [to_array a] is a snapshot copy of the cells. *)
val to_array : t -> int array

(** [of_array src] is a fresh atomic array holding the elements of [src]. *)
val of_array : int array -> t

(** [blit_from a src] overwrites every cell of [a] from [src]. The lengths
    must match. *)
val blit_from : t -> int array -> unit
