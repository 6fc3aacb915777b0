module Atomic_array = Parallel.Atomic_array
module Pool = Parallel.Pool
module Bucket_order = Bucketing.Bucket_order
module Pq = Ordered.Priority_queue
module Int_vec = Support.Int_vec
module Vertex_subset = Frontier.Vertex_subset
module Edge_map = Traverse.Edge_map
module Scratch = Traverse.Scratch

type result = {
  in_cover : bool array;
  cover_size : int;
  cover_cost : int;
  rounds : int;
  bucket_inserts : int;
}

let ilog2 d =
  if d <= 0 then invalid_arg "Setcover.ilog2: positive argument expected";
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 d

(* The set of vertex [s] covers [s] itself and its neighbors. *)
let iter_set graph s f =
  f s;
  Graphs.Csr.iter_out graph s (fun v _w -> f v)


(* Cost-per-element bucket value: floor(log2 of the scaled coverage/cost
   ratio). With unit costs this degenerates to floor(log2 degree), the
   unweighted bucketing of the paper; [ratio_scale] gives weighted
   instances enough resolution to separate sets with equal coverage but
   different costs. *)
let ratio_scale = 8

let bucket_value ~cost d =
  (* Clamp at 1 so a still-useful set (d > 0) always stays in some bucket:
     dropping it could leave its private elements uncoverable. *)
  ilog2 (max 1 (d * ratio_scale / cost))

let run ~pool ~graph ?handle ~schedule ?costs () =
  (match schedule.Ordered.Schedule.strategy with
  | Ordered.Schedule.Lazy_constant_sum ->
      invalid_arg
        "Setcover.run: priorities are recomputed, not constant-sum; use lazy \
         or an eager strategy"
  | _ -> ());
  let n = Graphs.Csr.num_vertices graph in
  let workers = Pool.num_workers pool in
  let cost_of =
    match costs with
    | None -> fun _ -> 1
    | Some c ->
        if Array.length c <> n then invalid_arg "Setcover.run: costs length mismatch";
        Array.iter
          (fun x -> if x < 1 then invalid_arg "Setcover.run: costs must be positive")
          c;
        fun s -> c.(s)
  in
  let covered = Atomic_array.make n 0 in
  let reservations = Atomic_array.make n max_int in
  let priorities =
    Atomic_array.of_array
      (Array.init n (fun s ->
           bucket_value ~cost:(cost_of s) (Graphs.Csr.out_degree graph s + 1)))
  in
  let pq =
    Pq.create ~schedule ~num_workers:workers ~direction:Bucket_order.Higher_first
      ~allow_coarsening:false ~priorities ~initial:Pq.All_vertices ~pool ()
  in
  let in_cover = Array.make n false in
  let uncovered = ref n in
  let rounds = ref 0 in
  let candidates = Array.init workers (fun _ -> Int_vec.create ()) in
  let covered_delta = Array.make workers 0 in
  let scratch = Scratch.create ~pool ~graph in
  (* All three sweeps below are push-direction, on the handle's layout. *)
  let layout = Graphs.Handle.graph (Graphs.Handle.resolve handle graph) in
  let sweep ?filter ?vertex_begin ?vertex_end ?chunk frontier ~f =
    Edge_map.run_layout scratch ~graph:layout ?filter ?vertex_begin ?vertex_end
      ?chunk ~direction:Edge_map.Push frontier ~f
  in
  (* The kernel's edge function sees only out-edges; the set of [s] also
     covers [s] itself, so [vertex_begin] accounts for the self element.
     Per-vertex accumulators live in padded per-worker slots (one sweep's
     vertex is processed start-to-finish by one worker). *)
  let stride = 8 in
  let uncovered_count = Array.make (workers * stride) 0 in
  let claimed = Array.make (workers * stride) 0 in
  let won = Array.make (workers * stride) 0 in
  let current_value = ref 0 in
  (* Phase 1 hooks: validate each extracted set against its true uncovered
     degree; refile sets whose stored priority went stale, drop fully
     covered sets, keep exact matches as this round's candidates. *)
  let validate_begin ctx s =
    let slot = ctx.Pq.tid * stride in
    uncovered_count.(slot) <- (if Atomic_array.get covered s = 0 then 1 else 0)
  in
  let validate_edge ctx ~src:_ ~dst ~weight:_ =
    if Atomic_array.get covered dst = 0 then begin
      let slot = ctx.Pq.tid * stride in
      uncovered_count.(slot) <- uncovered_count.(slot) + 1
    end
  in
  let validate_end ctx s =
    let d = uncovered_count.(ctx.Pq.tid * stride) in
    if d = 0 then Atomic_array.set priorities s Bucket_order.null_priority
    else begin
      let p = bucket_value ~cost:(cost_of s) d in
      if p = !current_value then Int_vec.push candidates.(ctx.Pq.tid) s
      else Pq.set_priority pq ctx s p
    end
  in
  (* Phase 2 hooks: nearly-independent-set reservation — each uncovered
     element remembers the smallest candidate id claiming it. *)
  let reserve_begin _ctx s =
    if Atomic_array.get covered s = 0 then
      ignore (Atomic_array.fetch_min reservations s s)
  in
  let reserve_edge _ctx ~src ~dst ~weight:_ =
    if Atomic_array.get covered dst = 0 then
      ignore (Atomic_array.fetch_min reservations dst src)
  in
  (* Phase 3 hooks: candidates that won at least 3/4 of their claimed
     elements join the cover; the rest release their reservations and are
     refiled by their next extraction. The commit/release passes re-iterate
     the winner's own set sequentially — per-set follow-up work, not a
     frontier sweep. *)
  let commit_begin ctx s =
    let slot = ctx.Pq.tid * stride in
    claimed.(slot) <- 0;
    won.(slot) <- 0;
    if Atomic_array.get covered s = 0 then begin
      claimed.(slot) <- 1;
      if Atomic_array.get reservations s = s then won.(slot) <- 1
    end
  in
  let commit_edge ctx ~src ~dst ~weight:_ =
    if Atomic_array.get covered dst = 0 then begin
      let slot = ctx.Pq.tid * stride in
      claimed.(slot) <- claimed.(slot) + 1;
      if Atomic_array.get reservations dst = src then won.(slot) <- won.(slot) + 1
    end
  in
  let commit_end ctx s =
    let slot = ctx.Pq.tid * stride in
    let claimed = claimed.(slot) and won = won.(slot) in
    if won > 0 && won * 4 >= claimed * 3 then begin
      in_cover.(s) <- true;
      Atomic_array.set priorities s Bucket_order.null_priority;
      let actually_covered = ref 0 in
      iter_set graph s (fun e ->
          if
            Atomic_array.get reservations e = s
            && Atomic_array.get covered e = 0
          then begin
            Atomic_array.set covered e 1;
            incr actually_covered
          end);
      covered_delta.(ctx.Pq.tid) <- covered_delta.(ctx.Pq.tid) + !actually_covered
    end
    else begin
      (* Release this candidate's reservations and refile it. *)
      iter_set graph s (fun e ->
          if Atomic_array.get reservations e = s then
            Atomic_array.set reservations e max_int);
      let remaining = max 0 (claimed - won) in
      if remaining = 0 then
        (* Everything it claimed is being taken by winners; it will be
           dropped or refiled at its next extraction. *)
        Pq.set_priority pq ctx s !current_value
      else
        Pq.set_priority pq ctx s (bucket_value ~cost:(cost_of s) (max 1 remaining))
    end
  in
  while !uncovered > 0 && not (Pq.finished pq) do
    incr rounds;
    let frontier = Pq.dequeue_ready_set pq in
    current_value := Pq.current_priority pq;
    Array.iter Int_vec.clear candidates;
    ignore
      (sweep
         ~filter:(fun s -> not in_cover.(s))
         ~vertex_begin:validate_begin ~vertex_end:validate_end frontier
         ~f:validate_edge);
    let round_candidates =
      let merged = Int_vec.create () in
      Array.iter (fun vec -> Int_vec.append merged vec) candidates;
      Int_vec.to_array merged
    in
    if Array.length round_candidates > 0 then begin
      let candidate_set =
        Vertex_subset.unsafe_of_array ~num_vertices:n round_candidates
      in
      ignore
        (sweep ~vertex_begin:reserve_begin ~chunk:16 candidate_set
           ~f:reserve_edge);
      Array.fill covered_delta 0 workers 0;
      ignore
        (sweep ~vertex_begin:commit_begin ~vertex_end:commit_end ~chunk:16
           candidate_set ~f:commit_edge);
      uncovered := !uncovered - Array.fold_left ( + ) 0 covered_delta
    end
  done;
  let cover_size = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 in_cover in
  let cover_cost = ref 0 in
  Array.iteri (fun s chosen -> if chosen then cover_cost := !cover_cost + cost_of s) in_cover;
  {
    in_cover;
    cover_size;
    cover_cost = !cover_cost;
    rounds = !rounds;
    bucket_inserts = Pq.total_bucket_inserts pq;
  }

let is_valid_cover graph r =
  let n = Graphs.Csr.num_vertices graph in
  let covered = Array.make n false in
  for s = 0 to n - 1 do
    if r.in_cover.(s) then iter_set graph s (fun e -> covered.(e) <- true)
  done;
  Array.for_all Fun.id covered
