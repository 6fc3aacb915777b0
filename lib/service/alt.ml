module Csr = Graphs.Csr
module Handle = Graphs.Handle
module Json = Support.Json
module Metrics = Observe.Metrics
module Span = Observe.Span

let null = Bucketing.Bucket_order.null_priority

type t = {
  pool : Parallel.Pool.t;
  mutable handle : Handle.t;
      (* the snapshot the distance vectors describe; [refresh] advances
         it together with the vectors after each mutation commit *)
  schedule : Ordered.Schedule.t;
  total : int;
  vertices : int array;  (* landmark vertex per slot, filled as warmed *)
  fwd : int array array;  (* fwd.(i).(v) = d(L_i, v) *)
  bwd : int array array;  (* bwd.(i).(v) = d(v, L_i) *)
  mutable warmed : int;
  warmed_counter : Metrics.counter;
  refreshed_counter : Metrics.counter;
  kept_counter : Metrics.counter;
}

let create ~pool ~handle ~schedule ~landmarks () =
  if landmarks < 0 then invalid_arg "Alt.create: negative landmark count";
  let n = Handle.num_vertices handle in
  let k = if n = 0 then 0 else min landmarks n in
  {
    pool;
    handle;
    schedule;
    total = k;
    vertices = Array.make (max 1 k) (-1);
    fwd = Array.make (max 1 k) [||];
    bwd = Array.make (max 1 k) [||];
    warmed = 0;
    warmed_counter = Metrics.counter Metrics.default "service.alt.landmarks_warmed";
    refreshed_counter = Metrics.counter Metrics.default "dynamic.alt.refreshed";
    kept_counter = Metrics.counter Metrics.default "dynamic.alt.kept";
  }

let total t = t.total
let warmed t = t.warmed

(* Farthest-first selection. The first landmark is the max-out-degree
   vertex (a hub reaches much of the graph, giving the selection metric
   something to work with); each next landmark maximizes the minimum
   forward distance to the already-warm set, preferring finite distances
   so landmarks spread across the reachable periphery before falling
   back to other components (by degree). *)
let next_landmark t =
  let graph = Handle.csr t.handle in
  let n = Csr.num_vertices graph in
  let taken v = Array.exists (fun u -> u = v) (Array.sub t.vertices 0 t.warmed) in
  if t.warmed = 0 then begin
    let degrees = Csr.out_degrees_cached graph in
    let best = ref 0 in
    for v = 1 to n - 1 do
      if degrees.(v) > degrees.(!best) then best := v
    done;
    !best
  end
  else begin
    let best = ref (-1) in
    let best_dist = ref (-1) in
    let fallback = ref (-1) in
    let fallback_deg = ref (-1) in
    let degrees = Csr.out_degrees_cached graph in
    for v = 0 to n - 1 do
      if not (taken v) then begin
        let min_d = ref max_int in
        for i = 0 to t.warmed - 1 do
          let d = t.fwd.(i).(v) in
          if d < !min_d then min_d := d
        done;
        if !min_d <> null && !min_d > !best_dist then begin
          best_dist := !min_d;
          best := v
        end;
        if degrees.(v) > !fallback_deg then begin
          fallback_deg := degrees.(v);
          fallback := v
        end
      end
    done;
    if !best >= 0 then !best else !fallback
  end

let warm_one t =
  if t.warmed >= t.total then false
  else begin
    Span.with_ "service.alt.warm" (fun () ->
        let l = next_landmark t in
        (* Backward distances are forward distances on the reversed
           handle, which shares the snapshot's cached transpose. *)
        let sssp handle =
          Algorithms.Sssp_delta.run ~pool:t.pool ~graph:(Handle.csr handle)
            ~handle ~schedule:t.schedule ~source:l ()
        in
        let fwd = sssp t.handle and bwd = sssp (Handle.reverse t.handle) in
        t.vertices.(t.warmed) <- l;
        t.fwd.(t.warmed) <- fwd.Algorithms.Sssp_delta.dist;
        t.bwd.(t.warmed) <- bwd.Algorithms.Sssp_delta.dist;
        t.warmed <- t.warmed + 1;
        Metrics.incr t.warmed_counter ~tid:0 ());
    true
  end

let warm_all t =
  let added = ref 0 in
  while warm_one t do
    incr added
  done;
  !added

(* After a mutation commit: repair every warm landmark's two vectors with
   the incremental engine instead of re-running 2k full SSSPs. The
   forward vector repairs against [batch] on the forward handles; the
   backward vector repairs against the reversed batch on the reversed
   handles, whose graphs are the two cached transposes. A landmark whose
   affected set was empty on both sides kept its vectors bit-for-bit — it
   is counted [kept], not [refreshed]. *)
let refresh t ~old_handle ~handle ~batch =
  t.handle <- handle;
  if t.warmed = 0 || Array.length batch = 0 then (0, 0)
  else
    Span.with_ "service.alt.refresh" (fun () ->
        let repair ~old_handle ~handle ~batch ~source ~prev =
          Algorithms.Sssp_delta.run_incremental ~pool:t.pool
            ~old_graph:(Handle.csr old_handle) ~graph:(Handle.csr handle) ~handle
            ~schedule:t.schedule ~source ~batch ~prev ()
        in
        let old_rev = Handle.reverse old_handle and rev = Handle.reverse handle in
        let rev_batch = Graphs.Delta.reverse batch in
        let refreshed = ref 0 and kept = ref 0 in
        for i = 0 to t.warmed - 1 do
          let l = t.vertices.(i) in
          let fwd = repair ~old_handle ~handle ~batch ~source:l ~prev:t.fwd.(i) in
          let bwd =
            repair ~old_handle:old_rev ~handle:rev ~batch:rev_batch ~source:l
              ~prev:t.bwd.(i)
          in
          t.fwd.(i) <- fwd.Algorithms.Sssp_delta.result.Algorithms.Sssp_delta.dist;
          t.bwd.(i) <- bwd.Algorithms.Sssp_delta.result.Algorithms.Sssp_delta.dist;
          if
            fwd.Algorithms.Sssp_delta.affected > 0
            || bwd.Algorithms.Sssp_delta.affected > 0
          then incr refreshed
          else incr kept
        done;
        if !refreshed > 0 then
          Metrics.incr t.refreshed_counter ~tid:0 ~by:!refreshed ();
        if !kept > 0 then Metrics.incr t.kept_counter ~tid:0 ~by:!kept ();
        (!refreshed, !kept))

let heuristic t ~target =
  if t.warmed = 0 then None
  else begin
    (* Hoist the target's landmark distances: the closure runs once per
       relaxed edge, so per-call work must stay a short loop over ints. *)
    let k = t.warmed in
    let fwd_t = Array.init k (fun i -> t.fwd.(i).(target)) in
    let bwd_t = Array.init k (fun i -> t.bwd.(i).(target)) in
    let fwd = Array.sub t.fwd 0 k and bwd = Array.sub t.bwd 0 k in
    Some
      (fun v ->
        let h = ref 0 in
        for i = 0 to k - 1 do
          let ft = fwd_t.(i) and fv = fwd.(i).(v) in
          (* d(L,t) - d(L,v) <= d(v,t); only finite pairs inform. *)
          if ft <> null && fv <> null && ft - fv > !h then h := ft - fv;
          let bt = bwd_t.(i) and bv = bwd.(i).(v) in
          (* d(v,L) - d(t,L) <= d(v,t). *)
          if bt <> null && bv <> null && bv - bt > !h then h := bv - bt
        done;
        !h)
  end

let landmark_vertices t = Array.to_list (Array.sub t.vertices 0 t.warmed)

let to_json t =
  Json.Obj
    [
      ("landmarks", Json.Int t.total);
      ("warmed", Json.Int t.warmed);
      ("vertices", Json.List (List.map (fun v -> Json.Int v) (landmark_vertices t)));
    ]
