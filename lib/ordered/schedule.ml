type update_strategy =
  | Eager_with_fusion
  | Eager_no_fusion
  | Lazy
  | Lazy_constant_sum

type traversal =
  | Sparse_push
  | Dense_pull
  | Hybrid

type t = {
  strategy : update_strategy;
  delta : int;
  fusion_threshold : int;
  num_open_buckets : int;
  traversal : traversal;
  chunk_size : int;
  sched : Parallel.Pool.sched option;
  incremental_threshold : float;
}

let default =
  {
    strategy = Eager_with_fusion;
    delta = 1;
    fusion_threshold = 1000;
    num_open_buckets = 128;
    traversal = Sparse_push;
    chunk_size = 64;
    sched = None;
    incremental_threshold = 0.25;
  }

let is_eager t =
  match t.strategy with
  | Eager_with_fusion | Eager_no_fusion -> true
  | Lazy | Lazy_constant_sum -> false

let validate t =
  if t.delta < 1 then Error "delta must be >= 1"
  else if t.fusion_threshold < 1 then Error "fusion threshold must be >= 1"
  else if t.num_open_buckets < 1 then Error "num_open_buckets must be >= 1"
  else if t.chunk_size < 1 then Error "chunk_size must be >= 1"
  else if t.incremental_threshold < 0.0 || t.incremental_threshold > 1.0 then
    Error "incremental_threshold must be in [0, 1]"
  else if is_eager t && t.traversal <> Sparse_push then
    Error "DensePull/hybrid traversal requires a lazy bucket-update strategy"
  else Ok t

let strategy_to_string = function
  | Eager_with_fusion -> "eager_with_fusion"
  | Eager_no_fusion -> "eager_no_fusion"
  | Lazy -> "lazy"
  | Lazy_constant_sum -> "lazy_constant_sum"

let strategy_of_string = function
  | "eager_with_fusion" -> Ok Eager_with_fusion
  | "eager_no_fusion" -> Ok Eager_no_fusion
  | "lazy" -> Ok Lazy
  | "lazy_constant_sum" -> Ok Lazy_constant_sum
  | s -> Error (Printf.sprintf "unknown priority-update strategy %S" s)

let traversal_to_string = function
  | Sparse_push -> "SparsePush"
  | Dense_pull -> "DensePull"
  | Hybrid -> "DensePull-SparsePush"

let traversal_of_string = function
  | "SparsePush" -> Ok Sparse_push
  | "DensePull" -> Ok Dense_pull
  | "DensePull-SparsePush" | "hybrid" -> Ok Hybrid
  | s -> Error (Printf.sprintf "unknown traversal direction %S" s)

let sched_to_string = function
  | None -> "default"
  | Some Parallel.Pool.Static -> "static"
  | Some Parallel.Pool.Dynamic -> "dynamic"
  | Some Parallel.Pool.Guided -> "guided"

let sched_of_string = function
  | "default" -> Ok None
  | "static" -> Ok (Some Parallel.Pool.Static)
  | "dynamic" -> Ok (Some Parallel.Pool.Dynamic)
  | "guided" -> Ok (Some Parallel.Pool.Guided)
  | s -> Error (Printf.sprintf "unknown loop schedule %S" s)

let to_string t =
  Printf.sprintf
    "strategy=%s,delta=%d,threshold=%d,buckets=%d,traversal=%s,chunk=%d,sched=%s,incr=%g"
    (strategy_to_string t.strategy)
    t.delta t.fusion_threshold t.num_open_buckets
    (traversal_to_string t.traversal)
    t.chunk_size (sched_to_string t.sched) t.incremental_threshold

let of_string str =
  let field s kv =
    Result.bind s (fun s ->
        match String.index_opt kv '=' with
        | None -> Error (Printf.sprintf "schedule: expected key=value, got %S" kv)
        | Some i -> (
            let key = String.sub kv 0 i in
            let v = String.sub kv (i + 1) (String.length kv - i - 1) in
            let number parse what set =
              match parse v with
              | Some x -> Ok (set x)
              | None -> Error (Printf.sprintf "schedule: %s is not %s: %S" key what v)
            in
            let int = number int_of_string_opt "an integer" in
            match key with
            | "strategy" -> Result.map (fun strategy -> { s with strategy }) (strategy_of_string v)
            | "delta" -> int (fun delta -> { s with delta })
            | "threshold" -> int (fun fusion_threshold -> { s with fusion_threshold })
            | "buckets" -> int (fun num_open_buckets -> { s with num_open_buckets })
            | "traversal" ->
                Result.map (fun traversal -> { s with traversal }) (traversal_of_string v)
            | "chunk" -> int (fun chunk_size -> { s with chunk_size })
            | "sched" -> Result.map (fun sched -> { s with sched }) (sched_of_string v)
            | "incr" ->
                number float_of_string_opt "a float" (fun incremental_threshold ->
                    { s with incremental_threshold })
            | _ -> Error (Printf.sprintf "schedule: unknown key %S" key)))
  in
  Result.bind (List.fold_left field (Ok default) (String.split_on_char ',' str)) validate

let pp ppf t =
  Format.fprintf ppf
    "configApplyPriorityUpdate(%S); configApplyPriorityUpdateDelta(%d); \
     configBucketFusionThreshold(%d); configNumBuckets(%d); \
     configApplyDirection(%S)"
    (strategy_to_string t.strategy)
    t.delta t.fusion_threshold t.num_open_buckets
    (traversal_to_string t.traversal)
