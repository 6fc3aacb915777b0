module Atomic_array = Parallel.Atomic_array
module Bucket_order = Bucketing.Bucket_order
module Pq = Ordered.Priority_queue
module Engine = Ordered.Engine

type result = {
  distance : int;
  stats : Ordered.Stats.t;
}

let run ~pool ~graph ?handle ~schedule ~source ~target ?deadline () =
  let handle = Graphs.Handle.resolve handle graph in
  let n = Graphs.Csr.num_vertices graph in
  if source < 0 || source >= n || target < 0 || target >= n then
    invalid_arg "Ppsp.run: endpoint out of range";
  let dist = Atomic_array.make n Bucket_order.null_priority in
  Atomic_array.set dist source 0;
  let pq =
    Pq.create ~schedule ~num_workers:(Parallel.Pool.num_workers pool)
      ~direction:Bucket_order.Lower_first ~allow_coarsening:true ~priorities:dist
      ~initial:(Pq.Start_vertex source) ~pool ()
  in
  let edge_fn ctx ~src ~dst ~weight =
    let new_dist = Atomic_array.get dist src + weight in
    Pq.update_priority_min pq ctx dst new_dist
  in
  (* Early exit: once the current bucket's priority passes dist[target], no
     relaxation can improve it (monotonicity of Δ-stepping buckets). *)
  let stop () =
    Atomic_array.get dist target <> Bucket_order.null_priority
    && Pq.finished_vertex pq target
  in
  let stats = Engine.run ~pool ~handle ~schedule ~pq ~edge_fn ~stop ?deadline () in
  { distance = Atomic_array.get dist target; stats }
