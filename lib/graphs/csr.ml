(* The per-edge arrays live outside the OCaml heap, in Bigarrays: they
   are most of a graph's data, and OCaml 5.1's major heap grows its peak
   with the data it holds (docs/INTERNALS.md, "Graph memory layout").
   The per-vertex [offsets] stay an ordinary [int array]. *)

type edges = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n : int;
  offsets : int array;
  targets : edges;
  weights : edges;
  (* Memoized by [out_degrees_cached]; borrowed by the hybrid degree-sum
     heuristic, which reads it once per frontier member per round. *)
  mutable degrees : int array option;
}

module A1 = Bigarray.Array1

let create_edges m : edges = A1.create Bigarray.int Bigarray.c_layout m

let of_edge_list (el : Edge_list.t) =
  let n = el.Edge_list.num_vertices in
  let edges = el.Edge_list.edges in
  let m = Array.length edges in
  let degrees = Array.make n 0 in
  Array.iter (fun e -> degrees.(e.Edge_list.src) <- degrees.(e.Edge_list.src) + 1) edges;
  let offsets = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + degrees.(u)
  done;
  let targets = create_edges m in
  let weights = create_edges m in
  let cursor = Array.copy offsets in
  (* Stable fill, then sort each neighbor list by target id so lookups can
     binary-search and traversals are cache-friendly. *)
  Array.iter
    (fun { Edge_list.src; dst; weight } ->
      let slot = cursor.(src) in
      targets.{slot} <- dst;
      weights.{slot} <- weight;
      cursor.(src) <- slot + 1)
    edges;
  for u = 0 to n - 1 do
    let lo = offsets.(u) and hi = offsets.(u + 1) in
    if hi - lo > 1 then begin
      let pairs = Array.init (hi - lo) (fun i -> (targets.{lo + i}, weights.{lo + i})) in
      Array.sort compare pairs;
      Array.iteri
        (fun i (dst, w) ->
          targets.{lo + i} <- dst;
          weights.{lo + i} <- w)
        pairs
    end
  done;
  { n; offsets; targets; weights; degrees = None }

let unsafe_of_arrays ~num_vertices ~offsets ~targets ~weights =
  if Array.length offsets <> num_vertices + 1 then
    invalid_arg "Csr.unsafe_of_arrays: offsets must have n + 1 entries";
  if A1.dim targets <> A1.dim weights then
    invalid_arg "Csr.unsafe_of_arrays: targets/weights length mismatch";
  if num_vertices > 0 && offsets.(num_vertices) <> A1.dim targets then
    invalid_arg "Csr.unsafe_of_arrays: offsets do not cover the edge arrays";
  { n = num_vertices; offsets; targets; weights; degrees = None }

let validate g =
  let n = g.n and o = g.offsets and targets = g.targets in
  let rec monotone u = u >= n || (o.(u) <= o.(u + 1) && monotone (u + 1)) in
  let m = A1.dim targets in
  let rec in_range i =
    i >= m || (targets.{i} >= 0 && targets.{i} < n && in_range (i + 1))
  in
  if o.(0) <> 0 then Error "offsets[0] is not 0"
  else if not (monotone 0) then Error "offsets are not monotone"
  else if o.(n) <> m then
    Error "offsets do not end at the edge count"
  else if not (in_range 0) then Error "an edge target lies outside [0, n)"
  else Ok ()

let offsets g = g.offsets
let targets g = g.targets
let weights g = g.weights
let num_vertices g = g.n
let num_edges g = A1.dim g.targets
let out_degree g u = g.offsets.(u + 1) - g.offsets.(u)

let iter_out g u f =
  for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
    f (A1.unsafe_get g.targets i) (A1.unsafe_get g.weights i)
  done

let fold_out g u f acc =
  let acc = ref acc in
  for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
    acc := f !acc (A1.unsafe_get g.targets i) (A1.unsafe_get g.weights i)
  done;
  !acc

let edge_range g u = (g.offsets.(u), g.offsets.(u + 1))
let edge_target g i = A1.unsafe_get g.targets i
let edge_weight g i = A1.unsafe_get g.weights i

let to_edge_list g =
  let m = num_edges g in
  let edges = Array.make m { Edge_list.src = 0; dst = 0; weight = 1 } in
  let k = ref 0 in
  for u = 0 to g.n - 1 do
    for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
      edges.(!k) <- { Edge_list.src = u; dst = g.targets.{i}; weight = g.weights.{i} };
      incr k
    done
  done;
  { Edge_list.num_vertices = g.n; edges }

let transpose g = of_edge_list (Edge_list.reverse (to_edge_list g))

let max_weight g =
  let best = ref 0 in
  for i = 0 to A1.dim g.weights - 1 do
    best := max !best (A1.unsafe_get g.weights i)
  done;
  !best

let out_degrees g = Array.init g.n (fun u -> out_degree g u)

let out_degrees_cached g =
  match g.degrees with
  | Some d -> d
  | None ->
      let d = out_degrees g in
      g.degrees <- Some d;
      d

let mem_edge g u v =
  let rec search lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let t = A1.unsafe_get g.targets mid in
      if t = v then true else if t < v then search (mid + 1) hi else search lo mid
  in
  search g.offsets.(u) g.offsets.(u + 1)
