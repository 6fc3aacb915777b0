module Int_vec = Support.Int_vec

(* Bins are recycled, not allocated per key: a slot that has never held a
   vertex points at the shared [empty] sentinel, and once the cursor moves
   past a slot its vector goes onto the owning worker's spare stack for
   the next fresh slot. A Δ = 1 wBFS walks tens of thousands of keys, and
   a vector per key would be allocated, promoted and dropped for each. *)
type local = {
  mutable bins : Int_vec.t array; (* slot i holds key base + i *)
  mutable min_slot : int; (* lower bound on the smallest non-empty slot *)
  mutable inserts : int;
  mutable recycled : int; (* slots below this hold [empty] *)
  mutable spare : Int_vec.t list; (* emptied vectors, ready for reuse *)
}

type t = {
  workers : int;
  base : int;
  locals : local array;
  mutable cur_slot : int;
}

(* Shared by every instance and domain, so it is only ever read: [insert]
   swaps in a real vector before pushing, and nothing clears it. *)
let empty = Int_vec.create ~capacity:1 ()

let create ~num_workers ~min_key () =
  if num_workers < 1 then invalid_arg "Eager_buckets.create: num_workers >= 1";
  {
    workers = num_workers;
    base = min_key;
    locals =
      Array.init num_workers (fun _ ->
          { bins = [||]; min_slot = max_int; inserts = 0; recycled = 0;
            spare = [] });
    cur_slot = 0;
  }

let num_workers t = t.workers

let ensure_slot local slot =
  if slot >= Array.length local.bins then begin
    let len = max (slot + 1) (max 8 (2 * Array.length local.bins)) in
    let bins = Array.make len empty in
    Array.blit local.bins 0 bins 0 (Array.length local.bins);
    local.bins <- bins
  end

let fresh_bin local =
  match local.spare with
  | [] -> Int_vec.create ~capacity:2 ()
  | bin :: rest ->
      local.spare <- rest;
      bin

(* Moves the vectors of the slots the cursor has passed onto the spare
   stack. They are empty: drains clear their bin, and inserts behind the
   cursor clamp to it. *)
let recycle local ~below =
  let stop = min below (Array.length local.bins) in
  for slot = local.recycled to stop - 1 do
    let bin = local.bins.(slot) in
    if bin != empty then begin
      local.spare <- bin :: local.spare;
      local.bins.(slot) <- empty
    end
  done;
  local.recycled <- stop

let insert t ~tid ~vertex ~key =
  if key <> Bucket_order.null_key then begin
    let local = t.locals.(tid) in
    (* Monotonic priorities never move behind the cursor except within the
       current bucket; clamp defensively, as GAPBS does with its floor. *)
    let slot = max (key - t.base) t.cur_slot in
    ensure_slot local slot;
    let bin = local.bins.(slot) in
    let bin =
      if bin != empty then bin
      else begin
        let fresh = fresh_bin local in
        local.bins.(slot) <- fresh;
        fresh
      end
    in
    Int_vec.push bin vertex;
    if slot < local.min_slot then local.min_slot <- slot;
    local.inserts <- local.inserts + 1
  end

(* Both global operations below run once per round, between parallel
   phases — round-granular spans, never per-edge. *)
let next_global_key t =
  Observe.Span.with_ "eager_buckets.next_global_key" (fun () ->
      let best = ref max_int in
      Array.iter
        (fun local ->
          let len = Array.length local.bins in
          let slot = ref (max local.min_slot t.cur_slot) in
          while
            !slot < len && !slot < !best && Int_vec.is_empty local.bins.(!slot)
          do
            incr slot
          done;
          local.min_slot <- !slot;
          if
            !slot < len && !slot < !best
            && not (Int_vec.is_empty local.bins.(!slot))
          then best := !slot)
        t.locals;
      if !best = max_int then None
      else begin
        t.cur_slot <- !best;
        Array.iter (recycle ~below:!best) t.locals;
        Some (t.base + !best)
      end)

let cursor_key t = t.base + t.cur_slot

let drain_global t ~key =
  Observe.Span.with_ ~arg:key "eager_buckets.drain_global" (fun () ->
      let slot = key - t.base in
      let total =
        Array.fold_left
          (fun acc local ->
            if slot < Array.length local.bins then
              acc + Int_vec.length local.bins.(slot)
            else acc)
          0 t.locals
      in
      let out = Array.make total 0 in
      let pos = ref 0 in
      Array.iter
        (fun local ->
          if slot < Array.length local.bins then begin
            let bin = local.bins.(slot) in
            if not (Int_vec.is_empty bin) then begin
              Int_vec.blit_to_array bin out !pos;
              pos := !pos + Int_vec.length bin;
              Int_vec.clear bin
            end
          end)
        t.locals;
      out)

let local_size t ~tid ~key =
  let local = t.locals.(tid) in
  let slot = key - t.base in
  if slot < Array.length local.bins then Int_vec.length local.bins.(slot) else 0

let take_local t ~tid ~key =
  let local = t.locals.(tid) in
  let slot = key - t.base in
  if slot >= Array.length local.bins || Int_vec.is_empty local.bins.(slot) then None
  else begin
    let bin = local.bins.(slot) in
    let out = Int_vec.to_array bin in
    Int_vec.clear bin;
    Some out
  end

let total_inserts t =
  Array.fold_left (fun acc local -> acc + local.inserts) 0 t.locals
