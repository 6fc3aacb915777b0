module Atomic_array = Parallel.Atomic_array
module Bucket_order = Bucketing.Bucket_order
module Pq = Ordered.Priority_queue
module Engine = Ordered.Engine

type result = {
  coreness : int array;
  stats : Ordered.Stats.t;
}

let run ~pool ~graph ?handle ~schedule ?deadline () =
  let degrees = Atomic_array.of_array (Graphs.Csr.out_degrees_cached graph) in
  let constant_sum_delta =
    match schedule.Ordered.Schedule.strategy with
    | Ordered.Schedule.Lazy_constant_sum -> Some (-1)
    | _ -> None
  in
  let pq =
    Pq.create ~schedule ~num_workers:(Parallel.Pool.num_workers pool)
      ~direction:Bucket_order.Lower_first ~allow_coarsening:false
      ~priorities:degrees ~initial:Pq.All_vertices ?constant_sum_delta ~pool ()
  in
  (* The apply_f of Fig. 10 (top): peeling [src] at core value k lowers each
     neighbor's degree by one, never below k. Under the histogram schedule
     the compiler's transformation reduces the per-edge work to recording
     the target (Fig. 10 bottom) — mirror that with the recorder fast
     path. *)
  let edge_fn =
    match Pq.constant_sum_recorder pq with
    | Some record -> fun ctx ~src:_ ~dst ~weight:_ -> record ~tid:ctx.Pq.tid dst
    | None ->
        fun ctx ~src:_ ~dst ~weight:_ ->
          let k = Pq.current_priority pq in
          Pq.update_priority_sum pq ctx dst ~diff:(-1) ~floor:k
  in
  let handle = Graphs.Handle.resolve handle graph in
  let stats = Engine.run ~pool ~handle ~schedule ~pq ~edge_fn ?deadline () in
  { coreness = Atomic_array.to_array degrees; stats }

let max_core r = Array.fold_left max 0 r.coreness
