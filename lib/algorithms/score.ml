module Atomic_array = Parallel.Atomic_array
module Bucket_order = Bucketing.Bucket_order
module Pq = Ordered.Priority_queue
module Engine = Ordered.Engine
module Min_heap = Support.Min_heap

type result = {
  coreness : int array;
  stats : Ordered.Stats.t;
}

let strengths graph =
  Array.init (Graphs.Csr.num_vertices graph) (fun v ->
      Graphs.Csr.fold_out graph v (fun acc _u w -> acc + w) 0)

let run ~pool ~graph ~schedule () =
  (match schedule.Ordered.Schedule.strategy with
  | Ordered.Schedule.Lazy_constant_sum ->
      invalid_arg
        "Score.run: weighted peeling subtracts per-edge weights, not a \
         constant; the histogram schedule is illegal here"
  | _ -> ());
  let strength = Atomic_array.of_array (strengths graph) in
  let pq =
    Pq.create ~schedule ~num_workers:(Parallel.Pool.num_workers pool)
      ~direction:Bucket_order.Lower_first ~allow_coarsening:false
      ~priorities:strength ~initial:Pq.All_vertices ~pool ()
  in
  let edge_fn ctx ~src:_ ~dst ~weight =
    let s = Pq.current_priority pq in
    Pq.update_priority_sum pq ctx dst ~diff:(-weight) ~floor:s
  in
  let handle = Graphs.Handle.create graph in
  let stats = Engine.run ~pool ~handle ~schedule ~pq ~edge_fn () in
  { coreness = Atomic_array.to_array strength; stats }

let sequential graph =
  let n = Graphs.Csr.num_vertices graph in
  let strength = strengths graph in
  let removed = Array.make n false in
  let heap = Min_heap.create () in
  Array.iteri (fun v s -> Min_heap.push heap ~key:s ~value:v) strength;
  let current = ref 0 in
  let remaining = ref n in
  while !remaining > 0 do
    match Min_heap.pop_min heap with
    | None -> remaining := 0
    | Some (s, v) ->
        (* Lazy deletion: only the entry matching the live strength counts. *)
        if (not removed.(v)) && s = strength.(v) then begin
          removed.(v) <- true;
          decr remaining;
          current := max !current s;
          strength.(v) <- !current;
          Graphs.Csr.iter_out graph v (fun u w ->
              if (not removed.(u)) && strength.(u) > !current then begin
                strength.(u) <- max !current (strength.(u) - w);
                Min_heap.push heap ~key:strength.(u) ~value:u
              end)
        end
  done;
  strength
