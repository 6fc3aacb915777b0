(* OCaml 5.1 has no flat atomic int array primitive, so each cell is a
   boxed [int Atomic.t] (a 2-word block). Two layout decisions reclaim most
   of the cost of that representation:

   - [make] allocates all cells in one tight loop, so they sit back-to-back
     on the heap in index order: a scan over [i, i+1, ...] touches
     consecutive cache lines (4 cells per 64-byte line) instead of chasing
     pointers to scattered boxes;
   - [make_padded] spaces the *used* cells a cache line apart (by
     interleaving never-read spacer cells in the same allocation stream),
     for small fetch_add-heavy counter arrays indexed by worker id, where
     4-cells-per-line is false sharing, not locality.

   Access discipline: every public operation bounds-checks its index once
   (in [cell]) and then runs on the unboxed cell reference — CAS retry
   loops never re-index the array, and bulk operations use [unsafe_get]
   inside their loops. *)

type t = {
  cells : int Atomic.t array;
  length : int;
  shift : int; (* cell index of logical [i] is [i lsl shift] *)
  id : int; (* allocation order, names the array in race findings *)
  shadow : int array Atomic.t; (* race-mode per-slot (episode, tid) tags *)
}

(* cells/line: an Atomic.t box is 2 words, a cache line holds 4 of them. *)
let pad_shift = 2

let next_id = Atomic.make 0

let alloc ~shift n v =
  let cells = Array.init (n lsl shift) (fun _ -> Atomic.make v) in
  {
    cells;
    length = n;
    shift;
    id = Atomic.fetch_and_add next_id 1;
    shadow = Atomic.make [||];
  }

let make n v = alloc ~shift:0 n v
let make_padded n v = alloc ~shift:pad_shift n v
let length a = a.length
let id a = a.id

let[@inline] cell a i =
  if i < 0 || i >= a.length then invalid_arg "Atomic_array: index out of bounds";
  Array.unsafe_get a.cells (i lsl a.shift)

let get a i = Atomic.get (cell a i)

(* Race-mode shadow tracking for plain [set]. Tags pack as
   [(episode lsl 8) lor tid]; a previous tag from the *same* episode with
   a *different* tid means two workers plain-set this slot inside one
   [Pool.run_workers] round. The shadow is itself written plainly — a
   missed detection under extreme reordering is acceptable, a false
   positive is impossible (same-episode different-tid tags only arise
   from genuinely overlapping sets). Allocated lazily on first tracked
   write so arrays in race-disabled runs pay nothing. *)
let[@inline never] track_set a i =
  let shadow =
    let s = Atomic.get a.shadow in
    if s != [||] then s
    else begin
      let fresh = Array.make a.length 0 in
      if Atomic.compare_and_set a.shadow [||] fresh then fresh
      else Atomic.get a.shadow
    end
  in
  let tid = Race.current_tid () land 255 in
  let episode = Race.current_episode () in
  let tag = (episode lsl 8) lor tid in
  let prev = shadow.(i) in
  if prev <> 0 && prev lsr 8 = episode && prev land 255 <> tid then
    Race.report
      {
        Race.array_id = a.id;
        slot = i;
        first_tid = prev land 255;
        second_tid = tid;
        episode;
      };
  shadow.(i) <- tag

let set a i v =
  Atomic.set (cell a i) v;
  if Race.enabled () then track_set a i

let compare_and_set a i ~expected ~desired =
  Atomic.compare_and_set (cell a i) expected desired

(* The CAS retry loops are top-level functions of the cell and value, not
   local closures: without flambda a local [let rec retry () = ...]
   allocates its closure on every call, which on the relaxation path is
   every edge. *)
let rec fetch_min_cell c v =
  let cur = Atomic.get c in
  if v >= cur then false
  else if Atomic.compare_and_set c cur v then true
  else fetch_min_cell c v

let rec fetch_max_cell c v =
  let cur = Atomic.get c in
  if v <= cur then false
  else if Atomic.compare_and_set c cur v then true
  else fetch_max_cell c v

let fetch_min a i v = fetch_min_cell (cell a i) v
let fetch_max a i v = fetch_max_cell (cell a i) v
let fetch_add a i d = Atomic.fetch_and_add (cell a i) d

let rec add_with_floor_cell c delta floor =
  let cur = Atomic.get c in
  (* A decrement must leave values already at or below the floor untouched
     (clamping them *up* to the floor would un-finalize peeled vertices). *)
  if delta < 0 && cur <= floor then None
  else begin
    let target = max floor (cur + delta) in
    if target = cur then None
    else if Atomic.compare_and_set c cur target then Some (cur, target)
    else add_with_floor_cell c delta floor
  end

let add_with_floor a i ~delta ~floor = add_with_floor_cell (cell a i) delta floor

let to_array a =
  Array.init a.length (fun i ->
      Atomic.get (Array.unsafe_get a.cells (i lsl a.shift)))

let of_array src =
  let a = alloc ~shift:0 (Array.length src) 0 in
  Array.iteri (fun i v -> Atomic.set (Array.unsafe_get a.cells i) v) src;
  a

let blit_from a src =
  if a.length <> Array.length src then
    invalid_arg "Atomic_array.blit_from: length mismatch";
  for i = 0 to a.length - 1 do
    Atomic.set
      (Array.unsafe_get a.cells (i lsl a.shift))
      (Array.unsafe_get src i)
  done
