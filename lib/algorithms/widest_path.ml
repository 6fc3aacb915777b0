module Atomic_array = Parallel.Atomic_array
module Bucket_order = Bucketing.Bucket_order
module Pq = Ordered.Priority_queue
module Engine = Ordered.Engine
module Min_heap = Support.Min_heap

type result = {
  capacity : int array;
  stats : Ordered.Stats.t;
}

let run ~pool ~graph ?handle ~schedule ~source ?deadline () =
  let n = Graphs.Csr.num_vertices graph in
  if source < 0 || source >= n then invalid_arg "Widest_path.run: source out of range";
  (* 0 = "no path yet": a valid lowest priority that is never enqueued
     (vertices enter the queue only when an update raises them). *)
  let capacity = Atomic_array.make n 0 in
  Atomic_array.set capacity source (max 1 (Graphs.Csr.max_weight graph));
  let pq =
    Pq.create ~schedule ~num_workers:(Parallel.Pool.num_workers pool)
      ~direction:Bucket_order.Higher_first ~allow_coarsening:true
      ~priorities:capacity ~initial:(Pq.Start_vertex source) ~pool ()
  in
  let edge_fn ctx ~src ~dst ~weight =
    let through = min (Atomic_array.get capacity src) weight in
    Pq.update_priority_max pq ctx dst through
  in
  let handle = Graphs.Handle.resolve handle graph in
  let stats = Engine.run ~pool ~handle ~schedule ~pq ~edge_fn ?deadline () in
  { capacity = Atomic_array.to_array capacity; stats }

let sequential graph ~source =
  let n = Graphs.Csr.num_vertices graph in
  let capacity = Array.make n 0 in
  capacity.(source) <- max 1 (Graphs.Csr.max_weight graph);
  let heap = Min_heap.create () in
  (* Negate keys: the min-heap pops the widest candidate first. *)
  Min_heap.push heap ~key:(-capacity.(source)) ~value:source;
  let rec drain () =
    match Min_heap.pop_min heap with
    | None -> ()
    | Some (neg_cap, u) ->
        if -neg_cap = capacity.(u) then
          Graphs.Csr.iter_out graph u (fun v w ->
              let through = min capacity.(u) w in
              if through > capacity.(v) then begin
                capacity.(v) <- through;
                Min_heap.push heap ~key:(-through) ~value:v
              end);
        drain ()
  in
  drain ();
  capacity
