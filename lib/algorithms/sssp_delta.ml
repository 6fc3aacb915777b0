module Atomic_array = Parallel.Atomic_array
module Bucket_order = Bucketing.Bucket_order
module Pq = Ordered.Priority_queue
module Engine = Ordered.Engine

type result = {
  dist : int array;
  stats : Ordered.Stats.t;
}

let create_pq ~pool ~schedule ~initial dist =
  Pq.create ~schedule ~num_workers:(Parallel.Pool.num_workers pool)
    ~direction:Bucket_order.Lower_first ~allow_coarsening:true ~priorities:dist
    ~initial ~pool ()

(* The updateEdge user function of Fig. 3: relax and move buckets. Built
   as a closure of its own so the per-edge call is a full application. *)
let relax dist pq =
  let edge_fn ctx ~src ~dst ~weight =
    Pq.update_priority_min pq ctx dst (Atomic_array.get dist src + weight)
  in
  edge_fn

let run ~pool ~graph ?handle ~schedule ~source ?deadline ?on_round () =
  let handle = Graphs.Handle.resolve handle graph in
  let n = Graphs.Csr.num_vertices graph in
  if source < 0 || source >= n then invalid_arg "Sssp_delta.run: source out of range";
  let dist = Atomic_array.make n Bucket_order.null_priority in
  Atomic_array.set dist source 0;
  let pq = create_pq ~pool ~schedule ~initial:(Pq.Start_vertex source) dist in
  let edge_fn = relax dist pq in
  let stats =
    Engine.run ~pool ~handle ~schedule ~pq ~edge_fn ?deadline ?on_round ()
  in
  { dist = Atomic_array.to_array dist; stats }

type incremental = {
  result : result;
  affected : int;
  fell_back : bool;
}

let run_incremental ~pool ~old_graph ~graph ?handle ~schedule ~source ~batch
    ~prev ?deadline () =
  let handle = Graphs.Handle.resolve handle graph in
  let n = Graphs.Csr.num_vertices graph in
  if source < 0 || source >= n then
    invalid_arg "Sssp_delta.run_incremental: source out of range";
  if Array.length prev <> n then
    invalid_arg "Sssp_delta.run_incremental: prev length mismatch";
  let plan =
    Graphs.Delta.plan ~old_csr:old_graph ~new_csr:graph batch ~dist:prev
      ~null:Bucket_order.null_priority
  in
  let threshold =
    int_of_float (schedule.Ordered.Schedule.incremental_threshold *. float_of_int n)
  in
  if plan.Graphs.Delta.affected > threshold then begin
    let r = run ~pool ~graph ~handle ~schedule ~source ?deadline () in
    { result = r; affected = plan.Graphs.Delta.affected; fell_back = true }
  end
  else begin
    let dist = Atomic_array.of_array prev in
    (* Dirty distances are unlearned before seeding, so every boundary
       candidate lands as a strict improvement and registers a bucket
       move; clean vertices keep their (still achievable) distances. *)
    Array.iter (fun v -> Atomic_array.set dist v Bucket_order.null_priority)
      plan.Graphs.Delta.dirty;
    let pq = create_pq ~pool ~schedule ~initial:Pq.No_initial dist in
    let edge_fn = relax dist pq in
    let seed ctx =
      List.iter
        (fun (v, cand) -> Pq.update_priority_min pq ctx v cand)
        plan.Graphs.Delta.seeds
    in
    let stats =
      Engine.run_incremental ~pool ~handle ~schedule ~pq ~edge_fn ~seed
        ?deadline ()
    in
    {
      result = { dist = Atomic_array.to_array dist; stats };
      affected = plan.Graphs.Delta.affected;
      fell_back = false;
    }
  end
