(* The cells are one flat [int array], one word per cell, updated through
   [@@noalloc] C stubs (atomic_array_stubs.c) that use sequentially
   consistent [__atomic_*] builtins — the ordering [int Atomic.t] cells
   gave. [make] is a single [Array.make]; [make_padded] spaces the used
   cells a cache line (8 words) apart, for small fetch_add-heavy counter
   arrays indexed by worker id, where packed cells would be false
   sharing, not locality.

   Access discipline: every public operation bounds-checks its index once
   (in [slot]) and then works on the raw word index — CAS retry loops never
   re-check, and bulk operations use [unsafe_get] inside their loops. *)

type t = {
  cells : int array;
  length : int;
  shift : int; (* cell index of logical [i] is [i lsl shift] *)
  id : int; (* allocation order, names the array in race findings *)
  shadow : int array Atomic.t; (* race-mode per-slot (episode, tid) tags *)
}

external load : int array -> int -> int = "graphit_atomic_array_get"
[@@noalloc]

external store : int array -> int -> int -> unit = "graphit_atomic_array_set"
[@@noalloc]

external cas : int array -> int -> int -> int -> bool
  = "graphit_atomic_array_cas"
[@@noalloc]

external add : int array -> int -> int -> int
  = "graphit_atomic_array_fetch_add"
[@@noalloc]

(* words per padded cell: 8 words fill a 64-byte line *)
let pad_shift = 3

let next_id = Atomic.make 0

let wrap ~shift n cells =
  { cells; length = n; shift; id = Atomic.fetch_and_add next_id 1;
    shadow = Atomic.make [||] }

let make n v = wrap ~shift:0 n (Array.make n v)
let make_padded n v = wrap ~shift:pad_shift n (Array.make (n lsl pad_shift) v)
let length a = a.length
let id a = a.id

let[@inline] slot a i =
  if i < 0 || i >= a.length then invalid_arg "Atomic_array: index out of bounds";
  i lsl a.shift

let get a i = load a.cells (slot a i)

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
  store a.cells (slot a i) v;
  if Race.enabled () then track_set a i

let compare_and_set a i ~expected ~desired =
  cas a.cells (slot a i) expected desired

(* The CAS retry loops are top-level functions of the cells and the word
   index, not local closures: without flambda a local
   [let rec retry () = ...] allocates its closure on every call, which on
   the relaxation path is every edge. *)
let rec fetch_min_at cells j v =
  let cur = load cells j in
  if v >= cur then false
  else if cas cells j cur v then true
  else fetch_min_at cells j v

let rec fetch_max_at cells j v =
  let cur = load cells j in
  if v <= cur then false
  else if cas cells j cur v then true
  else fetch_max_at cells j v

let fetch_min a i v = fetch_min_at a.cells (slot a i) v
let fetch_max a i v = fetch_max_at a.cells (slot a i) v
let fetch_add a i d = add a.cells (slot a i) d

let rec add_with_floor_at cells j delta floor =
  let cur = load cells j in
  (* A decrement must leave values already at or below the floor untouched
     (clamping them *up* to the floor would un-finalize peeled vertices). *)
  if delta < 0 && cur <= floor then None
  else begin
    let target = max floor (cur + delta) in
    if target = cur then None
    else if cas cells j cur target then Some (cur, target)
    else add_with_floor_at cells j delta floor
  end

let add_with_floor a i ~delta ~floor =
  add_with_floor_at a.cells (slot a i) delta floor

(* The bulk operations run between parallel phases, which the pool's own
   synchronization orders against the workers, so plain loads and stores
   suffice (and an int-array store needs no write barrier). *)
let to_array a =
  if a.shift = 0 then Array.copy a.cells
  else Array.init a.length (fun i -> Array.unsafe_get a.cells (i lsl a.shift))

let of_array src = wrap ~shift:0 (Array.length src) (Array.copy src)

let blit_from a src =
  if a.length <> Array.length src then
    invalid_arg "Atomic_array.blit_from: length mismatch";
  for i = 0 to a.length - 1 do
    Array.unsafe_set a.cells (i lsl a.shift) (Array.unsafe_get src i)
  done
