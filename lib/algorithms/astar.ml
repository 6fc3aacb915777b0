module Atomic_array = Parallel.Atomic_array
module Bucket_order = Bucketing.Bucket_order
module Pq = Ordered.Priority_queue
module Engine = Ordered.Engine

type result = {
  distance : int;
  stats : Ordered.Stats.t;
}

let run ~pool ~graph ?coords ?heuristic ?handle ~schedule ~source ~target
    ?deadline () =
  let handle = Graphs.Handle.resolve handle graph in
  let n = Graphs.Csr.num_vertices graph in
  if source < 0 || source >= n || target < 0 || target >= n then
    invalid_arg "Astar.run: endpoint out of range";
  (match coords with
  | Some c when Graphs.Coords.num_vertices c <> n ->
      invalid_arg "Astar.run: coordinates do not match the graph"
  | _ -> ());
  (* The heuristic is the max of whatever admissible-and-consistent lower
     bounds are on hand: scaled Euclidean distance when coordinates exist
     (the paper's road-network setup), a caller-supplied bound (the query
     service's ALT landmark cache), or zero — which degrades A* to plain
     PPSP, still exact, just undirected. The max of consistent heuristics
     is consistent, so the early exit below stays exact. *)
  let heuristic =
    let coords_h =
      Option.map
        (fun c v -> Graphs.Coords.scaled_distance ~scale:100.0 c v target)
        coords
    in
    match (coords_h, heuristic) with
    | None, None -> fun _ -> 0
    | Some h, None | None, Some h -> h
    | Some h1, Some h2 -> fun v -> max (h1 v) (h2 v)
  in
  let dist = Atomic_array.make n Bucket_order.null_priority in
  (* [estimate] is the priority vector: f = g + h. *)
  let estimate = Atomic_array.make n Bucket_order.null_priority in
  Atomic_array.set dist source 0;
  Atomic_array.set estimate source (heuristic source);
  let pq =
    Pq.create ~schedule ~num_workers:(Parallel.Pool.num_workers pool)
      ~direction:Bucket_order.Lower_first ~allow_coarsening:true
      ~priorities:estimate ~initial:(Pq.Start_vertex source) ~pool ()
  in
  let edge_fn ctx ~src ~dst ~weight =
    let new_dist = Atomic_array.get dist src + weight in
    if Atomic_array.fetch_min dist dst new_dist then
      Pq.update_priority_min pq ctx dst (new_dist + heuristic dst)
  in
  let stop () =
    Atomic_array.get dist target <> Bucket_order.null_priority
    && Pq.finished_vertex pq target
  in
  let stats = Engine.run ~pool ~handle ~schedule ~pq ~edge_fn ~stop ?deadline () in
  { distance = Atomic_array.get dist target; stats }
