(* Named, seeded, *printable* graph inputs for the differential sweep.

   Every case the sweep runs must round-trip through a compact string so
   failures come with a repro line the operator can paste back into
   [check_runner --graph]. Shrunk counterexamples use the [Explicit]
   constructor, whose string carries the full edge list (and, for A-star,
   the coordinates) — by construction shrunk graphs are tiny, so the
   verbosity is bounded. *)

module Rng = Support.Rng
module Edge_list = Graphs.Edge_list
module Coords = Graphs.Coords
module Generators = Graphs.Generators

type spec =
  | Random of { seed : int; n : int; m : int; max_w : int }
  | Dup_edges of { seed : int; n : int; m : int; max_w : int }
  | Road of { seed : int; rows : int; cols : int }
  | Path of int
  | Cycle of int
  | Star of int
  | Complete of int
  | Edgeless of int
  | Self_loops of int
  | Explicit of {
      num_vertices : int;
      edges : (int * int * int) list;
      coords : (float * float) list option;
    }

type t = {
  spec : spec;
  el : Edge_list.t;
  coords : Coords.t option;
}

(* Random multigraph: [m] independent (src, dst, weight) draws with
   self-loops and parallel edges allowed — the messiest input Edge_list
   admits, on purpose. *)
let random_edges rng ~n ~m ~max_w =
  Array.init m (fun _ ->
      {
        Edge_list.src = Rng.int rng n;
        dst = Rng.int rng n;
        weight = Rng.int_range rng 1 (max 1 max_w);
      })

let build spec =
  let el, coords =
    match spec with
    | Random { seed; n; m; max_w } ->
        let rng = Rng.create seed in
        (Edge_list.create ~num_vertices:n (random_edges rng ~n ~m ~max_w), None)
    | Dup_edges { seed; n; m; max_w } ->
        (* Every drawn edge appears twice with distinct weights. *)
        let rng = Rng.create seed in
        let base = random_edges rng ~n ~m ~max_w in
        let doubled =
          Array.concat
            [
              base;
              Array.map
                (fun e -> { e with Edge_list.weight = e.Edge_list.weight + 1 })
                base;
            ]
        in
        (Edge_list.create ~num_vertices:n doubled, None)
    | Road { seed; rows; cols } ->
        let rng = Rng.create seed in
        let el, coords = Generators.road_grid ~rng ~rows ~cols () in
        (el, Some coords)
    | Path n -> (Generators.path n, None)
    | Cycle n -> (Generators.cycle n, None)
    | Star n -> (Generators.star n, None)
    | Complete n -> (Generators.complete n, None)
    | Edgeless n -> (Edge_list.create ~num_vertices:n [||], None)
    | Self_loops n ->
        (* A cycle with a self-loop on every vertex: exercises both the
           loop-skipping paths and priority updates that change nothing. *)
        let loops =
          Array.init n (fun v -> { Edge_list.src = v; dst = v; weight = 2 })
        in
        ( Edge_list.create ~num_vertices:n
            (Array.append (Generators.cycle n).Edge_list.edges loops),
          None )
    | Explicit { num_vertices; edges; coords } ->
        ( Edge_list.create ~num_vertices
            (Array.of_list
               (List.map
                  (fun (src, dst, weight) -> { Edge_list.src; dst; weight })
                  edges)),
          Option.map
            (fun cs ->
              let xs = Array.of_list (List.map fst cs) in
              let ys = Array.of_list (List.map snd cs) in
              Coords.create xs ys)
            coords )
  in
  { spec; el; coords }

(* ---------------- spec <-> string ---------------- *)

let edges_to_string edges =
  String.concat "|"
    (List.map (fun (s, d, w) -> Printf.sprintf "%d-%dw%d" s d w) edges)

let coords_to_string cs =
  String.concat "|" (List.map (fun (x, y) -> Printf.sprintf "%g:%g" x y) cs)

let to_string = function
  | Random { seed; n; m; max_w } ->
      Printf.sprintf "random:seed=%d,n=%d,m=%d,w=%d" seed n m max_w
  | Dup_edges { seed; n; m; max_w } ->
      Printf.sprintf "dup:seed=%d,n=%d,m=%d,w=%d" seed n m max_w
  | Road { seed; rows; cols } ->
      Printf.sprintf "road:seed=%d,rows=%d,cols=%d" seed rows cols
  | Path n -> Printf.sprintf "path:%d" n
  | Cycle n -> Printf.sprintf "cycle:%d" n
  | Star n -> Printf.sprintf "star:%d" n
  | Complete n -> Printf.sprintf "complete:%d" n
  | Edgeless n -> Printf.sprintf "edgeless:%d" n
  | Self_loops n -> Printf.sprintf "selfloops:%d" n
  | Explicit { num_vertices; edges; coords } ->
      Printf.sprintf "explicit:n=%d,edges=%s%s" num_vertices
        (edges_to_string edges)
        (match coords with
        | None -> ""
        | Some cs -> ",coords=" ^ coords_to_string cs)

let ( let* ) = Result.bind

let parse_int what s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "graph spec: %s is not an integer: %S" what s)

let parse_fields body =
  List.fold_left
    (fun acc kv ->
      let* acc = acc in
      match String.index_opt kv '=' with
      | None -> Error (Printf.sprintf "graph spec: expected key=value, got %S" kv)
      | Some i ->
          Ok
            ((String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
            :: acc))
    (Ok [])
    (String.split_on_char ',' body)

let field fields key =
  match List.assoc_opt key fields with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "graph spec: missing %s=" key)

let int_field fields key =
  let* v = field fields key in
  parse_int key v

let parse_edges s =
  if s = "" then Ok []
  else
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        match Scanf.sscanf_opt e "%d-%dw%d" (fun s d w -> (s, d, w)) with
        | Some edge -> Ok (edge :: acc)
        | None -> Error (Printf.sprintf "graph spec: bad edge %S" e))
      (Ok [])
      (String.split_on_char '|' s)
    |> Result.map List.rev

let parse_coords s =
  List.fold_left
    (fun acc c ->
      let* acc = acc in
      match Scanf.sscanf_opt c "%g:%g" (fun x y -> (x, y)) with
      | Some xy -> Ok (xy :: acc)
      | None -> Error (Printf.sprintf "graph spec: bad coordinate %S" c))
    (Ok [])
    (String.split_on_char '|' s)
  |> Result.map List.rev

let of_string s =
  let kind, body =
    match String.index_opt s ':' with
    | None -> (s, "")
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  let sized make = Result.map make (parse_int "size" body) in
  match kind with
  | "path" -> sized (fun n -> Path n)
  | "cycle" -> sized (fun n -> Cycle n)
  | "star" -> sized (fun n -> Star n)
  | "complete" -> sized (fun n -> Complete n)
  | "edgeless" -> sized (fun n -> Edgeless n)
  | "selfloops" -> sized (fun n -> Self_loops n)
  | "random" | "dup" ->
      let* fields = parse_fields body in
      let* seed = int_field fields "seed" in
      let* n = int_field fields "n" in
      let* m = int_field fields "m" in
      let* max_w = int_field fields "w" in
      Ok
        (if kind = "random" then Random { seed; n; m; max_w }
         else Dup_edges { seed; n; m; max_w })
  | "road" ->
      let* fields = parse_fields body in
      let* seed = int_field fields "seed" in
      let* rows = int_field fields "rows" in
      let* cols = int_field fields "cols" in
      Ok (Road { seed; rows; cols })
  | "explicit" ->
      let* fields = parse_fields body in
      let* num_vertices = int_field fields "n" in
      let* edges =
        let* s = field fields "edges" in
        parse_edges s
      in
      let* coords =
        match List.assoc_opt "coords" fields with
        | None -> Ok None
        | Some s -> Result.map Option.some (parse_coords s)
      in
      Ok (Explicit { num_vertices; edges; coords })
  | _ -> Error (Printf.sprintf "graph spec: unknown kind %S" kind)

(* ---------------- shrinking ---------------- *)

(* ddmin over the edge array while [check] keeps failing, then trim
   unused trailing vertices. [check] re-runs the full judgement, so
   whatever property failed is the property being preserved. *)
let shrink ~check case =
  let coords =
    Option.map
      (fun c -> List.init (Coords.num_vertices c) (fun v -> (Coords.x c v, Coords.y c v)))
      case.coords
  in
  let explicit num_vertices edges coords =
    Explicit { num_vertices; edges = Array.to_list edges; coords }
  in
  let num_vertices = case.el.Edge_list.num_vertices in
  let edges =
    Harness.ddmin (Harness.probes ~max:400)
      (fun edges -> check (build (explicit num_vertices edges coords)))
      (Array.map (fun e -> Edge_list.(e.src, e.dst, e.weight)) case.el.Edge_list.edges)
  in
  (* Source and target derive from n, so a trim changes the query and
     must itself keep failing. A* keeps its coordinate prefix. *)
  let used = Array.fold_left (fun acc (s, d, _) -> max acc (max s d)) (-1) edges + 1 in
  let spec = explicit num_vertices edges coords in
  if used < 1 || used >= num_vertices then spec
  else
    let trimmed =
      explicit used edges (Option.map (List.filteri (fun i _ -> i < used)) coords)
    in
    if check (build trimmed) then trimmed else spec
