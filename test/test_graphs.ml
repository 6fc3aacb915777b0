module Edge_list = Graphs.Edge_list
module Csr = Graphs.Csr
module Csr_compressed = Graphs.Csr_compressed
module Generators = Graphs.Generators
module Graph_io = Graphs.Graph_io
module Graph_bin = Graphs.Graph_bin
module Coords = Graphs.Coords
module Layout = Graphs.Layout
module Reorder = Graphs.Reorder
module Rng = Support.Rng

let edge src dst weight = { Edge_list.src; dst; weight }

let test_edge_list_validation () =
  Alcotest.check_raises "endpoint range"
    (Invalid_argument "Edge_list.create: endpoint out of range") (fun () ->
      ignore (Edge_list.create ~num_vertices:2 [| edge 0 2 1 |]));
  Alcotest.check_raises "positive weights"
    (Invalid_argument "Edge_list.create: weight must be positive") (fun () ->
      ignore (Edge_list.create ~num_vertices:2 [| edge 0 1 0 |]))

let test_edge_list_dedup () =
  let el =
    Edge_list.create ~num_vertices:3
      [| edge 0 1 5; edge 0 1 3; edge 1 1 2; edge 2 0 7; edge 0 1 9 |]
  in
  let d = Edge_list.dedup el in
  Alcotest.(check int) "dedup count (self-loop dropped)" 2 (Edge_list.num_edges d);
  let weight_01 =
    Array.fold_left
      (fun acc e -> if e.Edge_list.src = 0 && e.Edge_list.dst = 1 then e.Edge_list.weight else acc)
      0 d.Edge_list.edges
  in
  Alcotest.(check int) "keeps min weight" 3 weight_01

let test_edge_list_symmetrized () =
  let el = Edge_list.create ~num_vertices:3 [| edge 0 1 5; edge 1 0 2; edge 1 2 4 |] in
  let s = Edge_list.symmetrized el in
  Alcotest.(check int) "both directions" 4 (Edge_list.num_edges s);
  let g = Csr.of_edge_list s in
  Alcotest.(check bool) "0->1" true (Csr.mem_edge g 0 1);
  Alcotest.(check bool) "1->0" true (Csr.mem_edge g 1 0);
  Alcotest.(check bool) "2->1" true (Csr.mem_edge g 2 1);
  (* Symmetrization keeps the min weight of antiparallel duplicates. *)
  Csr.iter_out g 0 (fun v w -> if v = 1 then Alcotest.(check int) "min weight" 2 w)

let test_csr_structure () =
  let el =
    Edge_list.create ~num_vertices:4 [| edge 0 2 7; edge 0 1 3; edge 2 3 1; edge 0 3 9 |]
  in
  let g = Csr.of_edge_list el in
  Alcotest.(check int) "n" 4 (Csr.num_vertices g);
  Alcotest.(check int) "m" 4 (Csr.num_edges g);
  Alcotest.(check int) "deg 0" 3 (Csr.out_degree g 0);
  Alcotest.(check int) "deg 1" 0 (Csr.out_degree g 1);
  let neighbors = ref [] in
  Csr.iter_out g 0 (fun v w -> neighbors := (v, w) :: !neighbors);
  Alcotest.(check (list (pair int int)))
    "sorted neighbor list"
    [ (1, 3); (2, 7); (3, 9) ]
    (List.rev !neighbors);
  Alcotest.(check int) "fold_out sums weights" 19
    (Csr.fold_out g 0 (fun acc _ w -> acc + w) 0);
  Alcotest.(check bool) "mem_edge present" true (Csr.mem_edge g 0 2);
  Alcotest.(check bool) "mem_edge absent" false (Csr.mem_edge g 1 0);
  Alcotest.(check int) "max_weight" 9 (Csr.max_weight g)

let test_csr_roundtrip_and_transpose () =
  let rng = Rng.create 5 in
  let el = Generators.erdos_renyi ~rng ~num_vertices:50 ~num_edges:300 () in
  let g = Csr.of_edge_list el in
  let g2 = Csr.of_edge_list (Csr.to_edge_list g) in
  Alcotest.(check int) "roundtrip edges" (Csr.num_edges g) (Csr.num_edges g2);
  let t = Csr.transpose g in
  Alcotest.(check int) "transpose edge count" (Csr.num_edges g) (Csr.num_edges t);
  let ok = ref true in
  for u = 0 to 49 do
    Csr.iter_out g u (fun v _ -> if not (Csr.mem_edge t v u) then ok := false)
  done;
  Alcotest.(check bool) "transpose reverses all edges" true !ok;
  let tt = Csr.transpose t in
  let ok = ref true in
  for u = 0 to 49 do
    Csr.iter_out g u (fun v _ -> if not (Csr.mem_edge tt u v) then ok := false)
  done;
  Alcotest.(check bool) "double transpose = original" true !ok

let test_rmat_properties () =
  let rng = Rng.create 1 in
  let el = Generators.rmat ~rng ~scale:10 ~edge_factor:8 () in
  Alcotest.(check int) "vertex count" 1024 el.Edge_list.num_vertices;
  Alcotest.(check bool) "dense enough" true (Edge_list.num_edges el > 4000);
  let g = Csr.of_edge_list el in
  (* Power-law-ish: the max degree should far exceed the average. *)
  let degrees = Csr.out_degrees g in
  let max_deg = Array.fold_left max 0 degrees in
  let avg = Csr.num_edges g / 1024 in
  Alcotest.(check bool)
    (Printf.sprintf "skewed degrees (max=%d avg=%d)" max_deg avg)
    true
    (max_deg > 4 * avg)

let test_road_grid_properties () =
  let rng = Rng.create 2 in
  let el, coords = Generators.road_grid ~rng ~rows:20 ~cols:30 () in
  Alcotest.(check int) "vertex count" 600 el.Edge_list.num_vertices;
  Alcotest.(check int) "coords count" 600 (Coords.num_vertices coords);
  let g = Csr.of_edge_list el in
  (* Bounded degree: lattice plus a few shortcuts. *)
  let max_deg = Array.fold_left max 0 (Csr.out_degrees g) in
  Alcotest.(check bool) "bounded degree" true (max_deg <= 8);
  (* Symmetric by construction. *)
  let symmetric = ref true in
  for u = 0 to 599 do
    Csr.iter_out g u (fun v _ -> if not (Csr.mem_edge g v u) then symmetric := false)
  done;
  Alcotest.(check bool) "symmetric" true !symmetric;
  (* Weights dominate the Euclidean heuristic (A* admissibility). *)
  let admissible = ref true in
  for u = 0 to 599 do
    Csr.iter_out g u (fun v w ->
        if w < Coords.scaled_distance ~scale:100.0 coords u v then admissible := false)
  done;
  Alcotest.(check bool) "weights >= scaled euclidean" true !admissible

let test_weight_assignment () =
  let rng = Rng.create 3 in
  let el = Generators.erdos_renyi ~rng ~num_vertices:100 ~num_edges:500 () in
  let weighted = Generators.assign_weights ~rng ~lo:1 ~hi:1000 el in
  Array.iter
    (fun e ->
      if e.Edge_list.weight < 1 || e.Edge_list.weight >= 1000 then
        Alcotest.fail "weight out of range")
    weighted.Edge_list.edges;
  let wbfs = Generators.wbfs_weights ~rng el in
  Array.iter
    (fun e ->
      if e.Edge_list.weight < 1 || e.Edge_list.weight >= 7 then
        Alcotest.fail "wbfs weight out of [1, log2 100)")
    wbfs.Edge_list.edges

let test_fixed_shapes () =
  let p = Generators.path 5 in
  Alcotest.(check int) "path edges" 4 (Edge_list.num_edges p);
  let c = Generators.cycle 5 in
  Alcotest.(check int) "cycle edges" 5 (Edge_list.num_edges c);
  let s = Generators.star 5 in
  Alcotest.(check int) "star edges" 4 (Edge_list.num_edges s);
  let k = Generators.complete 4 in
  Alcotest.(check int) "complete edges" 12 (Edge_list.num_edges k);
  let g = Generators.grid 3 4 in
  (* 2 * (rows*(cols-1) + (rows-1)*cols) directed edges *)
  Alcotest.(check int) "grid edges" (2 * ((3 * 3) + (2 * 4))) (Edge_list.num_edges g)

let with_temp_file f =
  let path = Filename.temp_file "graphit_test" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_io_edge_list_roundtrip () =
  with_temp_file (fun path ->
      let rng = Rng.create 9 in
      let el = Generators.erdos_renyi ~rng ~num_vertices:40 ~num_edges:200 () in
      let el = Generators.assign_weights ~rng ~lo:1 ~hi:50 el in
      Graph_io.write_edge_list path el;
      let el2 = Graph_io.read_edge_list path in
      Alcotest.(check int) "n" el.Edge_list.num_vertices el2.Edge_list.num_vertices;
      Alcotest.(check bool) "edges preserved" true (el.Edge_list.edges = el2.Edge_list.edges))

let test_io_dimacs_roundtrip () =
  with_temp_file (fun path ->
      let el =
        Graphs.Edge_list.create ~num_vertices:3 [| edge 0 1 4; edge 1 2 6; edge 2 0 1 |]
      in
      Graph_io.write_dimacs path el;
      let el2 = Graph_io.read_dimacs path in
      Alcotest.(check bool) "edges preserved" true (el.Edge_list.edges = el2.Edge_list.edges))

let test_io_coords_roundtrip () =
  with_temp_file (fun path ->
      let c = Coords.create [| 0.5; 1.25 |] [| -3.0; 7.5 |] in
      Graph_io.write_coords path c;
      let c2 = Graph_io.read_coords path in
      Alcotest.(check int) "count" 2 (Coords.num_vertices c2);
      Alcotest.(check (float 1e-5)) "x" 1.25 (Coords.x c2 1);
      Alcotest.(check (float 1e-5)) "y" 7.5 (Coords.y c2 1))

let test_io_malformed () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "not a header\n";
      close_out oc;
      match Graph_io.read_edge_list path with
      | exception Failure msg ->
          Alcotest.(check bool) "located error" true
            (String.length msg > 0 && String.contains msg ':')
      | _ -> Alcotest.fail "expected a parse failure")

let qcheck_csr_degree_sum =
  QCheck.Test.make ~name:"sum of out-degrees = edge count" ~count:100
    QCheck.(pair (int_range 1 60) (int_bound 300))
    (fun (n, m) ->
      let rng = Rng.create (n + (m * 1000)) in
      let el = Generators.erdos_renyi ~rng ~num_vertices:n ~num_edges:m () in
      let g = Csr.of_edge_list el in
      Array.fold_left ( + ) 0 (Csr.out_degrees g) = Csr.num_edges g)

let qcheck_symmetrized_is_symmetric =
  QCheck.Test.make ~name:"symmetrized graphs are symmetric" ~count:50
    QCheck.(pair (int_range 2 40) (int_bound 200))
    (fun (n, m) ->
      let rng = Rng.create (n + (m * 77)) in
      let el = Generators.erdos_renyi ~rng ~num_vertices:n ~num_edges:m () in
      let g = Csr.of_edge_list (Edge_list.symmetrized el) in
      let ok = ref true in
      for u = 0 to n - 1 do
        Csr.iter_out g u (fun v _ -> if not (Csr.mem_edge g v u) then ok := false)
      done;
      !ok)

let random_graph seed ~n ~m =
  let rng = Rng.create seed in
  let el = Generators.erdos_renyi ~rng ~num_vertices:n ~num_edges:m () in
  Csr.of_edge_list (Generators.assign_weights ~rng ~lo:1 ~hi:1000 el)

(* compress . decode = id: the varint round-trip reproduces the exact
   edge list, including weights and empty neighbor lists. *)
let qcheck_compressed_roundtrip =
  QCheck.Test.make ~name:"compressed of_csr/to_csr is the identity" ~count:100
    QCheck.(pair (int_range 1 80) (int_bound 400))
    (fun (n, m) ->
      let g = random_graph (n + (m * 131)) ~n ~m in
      let c = Csr_compressed.of_csr g in
      Csr.to_edge_list (Csr_compressed.to_csr c) = Csr.to_edge_list g)

(* The in-register decoder agrees with plain CSR iteration per vertex
   (the round-trip above goes through the same decoder, but this checks
   the iteration order and degrees directly). *)
let qcheck_compressed_iter_matches_plain =
  QCheck.Test.make ~name:"compressed iter_out matches plain" ~count:50
    QCheck.(pair (int_range 1 60) (int_bound 300))
    (fun (n, m) ->
      let g = random_graph (n + (m * 977)) ~n ~m in
      let c = Csr_compressed.of_csr g in
      let edges iter u =
        let acc = ref [] in
        iter u (fun v w -> acc := (v, w) :: !acc);
        List.rev !acc
      in
      let ok = ref (Csr_compressed.num_edges c = Csr.num_edges g) in
      for u = 0 to n - 1 do
        if Csr_compressed.out_degree c u <> Csr.out_degree g u then ok := false;
        if edges (Csr_compressed.iter_out c) u <> edges (Csr.iter_out g) u then
          ok := false
      done;
      !ok)

let reorder_of kind g coords =
  match Reorder.of_kind kind ~csr:g ~coords with
  | Ok r -> r
  | Error msg -> Alcotest.fail msg

(* reorder . unreorder = id, for every pass: vertex ids round-trip, value
   arrays round-trip, and the relabeled graph is the original up to the
   permutation. *)
let qcheck_reorder_roundtrip =
  QCheck.Test.make ~name:"reorder apply/unapply is the identity" ~count:50
    QCheck.(pair (int_range 1 60) (int_bound 300))
    (fun (n, m) ->
      let g = random_graph (n + (m * 313)) ~n ~m in
      let coords =
        Some (Coords.create (Array.init n float_of_int)
                (Array.init n (fun i -> float_of_int (i * 7 mod 13))))
      in
      List.for_all
        (fun kind ->
          let r = reorder_of kind g coords in
          let vertices_ok = ref true in
          for v = 0 to n - 1 do
            if Reorder.unapply_vertex r (Reorder.apply_vertex r v) <> v then
              vertices_ok := false
          done;
          let values = Array.init n (fun i -> i * 31) in
          let values_ok =
            Reorder.unapply_values r (Reorder.apply_values r values) = values
          in
          let g' = Csr.of_edge_list (Reorder.apply_edge_list r (Csr.to_edge_list g)) in
          let edges_ok = ref (Csr.num_edges g' = Csr.num_edges g) in
          for u = 0 to n - 1 do
            Csr.iter_out g u (fun v w ->
                let u' = Reorder.apply_vertex r u
                and v' = Reorder.apply_vertex r v in
                if not (Csr.mem_edge g' u' v') then edges_ok := false;
                ignore w)
          done;
          !vertices_ok && values_ok && !edges_ok)
        Reorder.all_kinds)

(* Reordering only relabels: SSSP distances mapped back through the
   permutation equal the distances on the original ids. *)
let test_reorder_preserves_sssp () =
  let g = random_graph 2026 ~n:60 ~m:400 in
  let expected = Algorithms.Dijkstra.distances g ~source:0 in
  List.iter
    (fun kind ->
      let r = reorder_of kind g None in
      let g' = Csr.of_edge_list (Reorder.apply_edge_list r (Csr.to_edge_list g)) in
      let dist' =
        Algorithms.Dijkstra.distances g' ~source:(Reorder.apply_vertex r 0)
      in
      Alcotest.(check bool)
        (Reorder.kind_to_string kind ^ " distances survive relabeling")
        true
        (Reorder.unapply_values r dist' = expected))
    [ Reorder.Degree; Reorder.Bfs ]

(* Every CSR accessor agrees with the edge list sorted by (src, dst,
   weight), the order [of_edge_list] stores: per-vertex iteration and
   folds, the flat edge index, membership, the weight maximum and the
   round trip back to an edge list. *)
let qcheck_csr_accessors =
  QCheck.Test.make ~name:"csr accessors agree with the sorted edge list"
    ~count:100
    QCheck.(pair (int_range 1 50) (int_bound 300))
    (fun (n, m) ->
      let rng = Rng.create (n + (m * 7919)) in
      let edges =
        Array.init m (fun _ ->
            edge (Rng.int rng n) (Rng.int rng n) (1 + Rng.int rng 1000))
      in
      let g = Csr.of_edge_list { Edge_list.num_vertices = n; edges } in
      let sorted = Array.copy edges in
      Array.sort compare sorted;
      let out u =
        List.filter_map
          (fun e -> if e.Edge_list.src = u then Some (e.dst, e.weight) else None)
          (Array.to_list sorted)
      in
      let vertex_ok u =
        let iterated = ref [] in
        Csr.iter_out g u (fun v w -> iterated := (v, w) :: !iterated);
        let folded = Csr.fold_out g u (fun acc v w -> (v, w) :: acc) [] in
        let lo, hi = Csr.edge_range g u in
        let indexed =
          List.init (hi - lo) (fun i ->
              (Csr.edge_target g (lo + i), Csr.edge_weight g (lo + i)))
        in
        let expected = out u in
        List.rev !iterated = expected
        && List.rev folded = expected
        && indexed = expected
        && List.for_all
             (fun v -> Csr.mem_edge g u v = List.mem_assoc v expected)
             (List.init n Fun.id)
      in
      Csr.num_edges g = m
      && List.for_all vertex_ok (List.init n Fun.id)
      && Csr.max_weight g
         = Array.fold_left (fun acc e -> max acc e.Edge_list.weight) 0 edges
      && (Csr.to_edge_list g).Edge_list.edges = sorted)

(* [Delta.apply] builds the same graph as rebuilding from the edge list
   edited by the same ops: inserts append, deletes drop every parallel
   copy, reweights rewrite every parallel copy. *)
let qcheck_delta_apply_is_rebuild =
  QCheck.Test.make ~name:"Delta.apply = rebuild from the edited edge list"
    ~count:100
    QCheck.(triple (int_range 1 40) (int_bound 200) (int_bound 30))
    (fun (n, m, ops) ->
      let g = random_graph (n + (m * 31) + (ops * 7)) ~n ~m in
      let rng = Rng.create (n * ops) in
      let batch =
        Array.init ops (fun _ ->
            let src = Rng.int rng n and dst = Rng.int rng n in
            let weight = 1 + Rng.int rng 50 in
            match Rng.int rng 3 with
            | 0 -> Graphs.Delta.Insert { src; dst; weight }
            | 1 -> Graphs.Delta.Delete { src; dst }
            | _ -> Graphs.Delta.Reweight { src; dst; weight })
      in
      let edit edges = function
        | Graphs.Delta.Insert { src; dst; weight } -> edges @ [ edge src dst weight ]
        | Graphs.Delta.Delete { src; dst } ->
            List.filter
              (fun e -> not (e.Edge_list.src = src && e.Edge_list.dst = dst))
              edges
        | Graphs.Delta.Reweight { src; dst; weight } ->
            List.map
              (fun e ->
                if e.Edge_list.src = src && e.Edge_list.dst = dst then
                  { e with Edge_list.weight }
                else e)
              edges
      in
      let edited =
        Array.fold_left edit (Array.to_list (Csr.to_edge_list g).Edge_list.edges) batch
      in
      let rebuilt =
        Csr.of_edge_list
          { Edge_list.num_vertices = n; edges = Array.of_list edited }
      in
      Csr.to_edge_list (Graphs.Delta.apply g batch) = Csr.to_edge_list rebuilt)

let with_temp_bin f =
  let path = Filename.temp_file "graphit_test" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_graph_bin_roundtrip () =
  let g = random_graph 77 ~n:50 ~m:260 in
  List.iter
    (fun kind ->
      with_temp_bin (fun path ->
          Graph_bin.save path ~layout:kind g;
          Alcotest.(check bool) "magic sniff" true (Graph_bin.is_graph_bin path);
          let loaded = Graph_bin.load path in
          Alcotest.(check bool)
            (Layout.kind_to_string kind ^ " layout preserved")
            true
            (Layout.kind loaded = kind);
          Alcotest.(check bool)
            (Layout.kind_to_string kind ^ " round-trip")
            true
            (Csr.to_edge_list (Layout.to_csr loaded) = Csr.to_edge_list g);
          Alcotest.(check bool)
            (Layout.kind_to_string kind ^ " round-trip through load_csr")
            true
            (Csr.to_edge_list (Graph_bin.load_csr path) = Csr.to_edge_list g)))
    Layout.all_kinds

let test_graph_bin_rejects_garbage () =
  with_temp_bin (fun path ->
      let oc = open_out_bin path in
      output_string oc "# 3 2\n0 1 5\n1 2 4\n";
      close_out oc;
      Alcotest.(check bool) "text is not GRAPHBIN" false
        (Graph_bin.is_graph_bin path);
      (match Graph_bin.load path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected load to fail on a text file");
      match Graph_bin.load_csr path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected load_csr to fail on a text file")

let test_graph_bin_rejects_truncation () =
  let g = random_graph 78 ~n:40 ~m:200 in
  with_temp_bin (fun path ->
      Graph_bin.save path g;
      let full = In_channel.with_open_bin path In_channel.input_all in
      let oc = open_out_bin path in
      output_string oc (String.sub full 0 (String.length full / 2));
      close_out oc;
      (* The magic still matches — only the payload is short. *)
      Alcotest.(check bool) "magic intact" true (Graph_bin.is_graph_bin path);
      (match Graph_bin.load path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected load to fail on a truncated file");
      match Graph_bin.load_csr path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected load_csr to fail on a truncated file")

(* A crafted file whose lengths all agree but whose structure is broken
   must fail with the loader's own error (message prefixed by the path),
   not load and then read out of bounds. One flipped word or byte per
   case, each through both loaders: [load] checks the on-disk layout,
   [load_csr] decodes a compressed file once and checks the plain
   arrays. *)
let test_graph_bin_rejects_corrupt_structure () =
  let g = random_graph 79 ~n:40 ~m:200 in
  let n = Csr.num_vertices g in
  let expect_rejected ?(layout = Layout.Plain) what patch =
    List.iter
      (fun (loader, load) ->
        with_temp_bin (fun path ->
            Graph_bin.save path ~layout g;
            let b =
              In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string
            in
            patch b;
            Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
            match load path with
            | exception Failure msg when String.starts_with ~prefix:path msg -> ()
            | exception e ->
                Alcotest.failf "%s via %s: crashed with %s" what loader
                  (Printexc.to_string e)
            | () -> Alcotest.failf "%s via %s: loaded a corrupt file" what loader))
      [
        ("load", fun p -> ignore (Graph_bin.load p));
        ("load_csr", fun p -> ignore (Graph_bin.load_csr p));
      ]
  in
  let word i value b = Bytes.set_int64_le b (64 + (8 * i)) value in
  expect_rejected "offset out of order" (word 10 10_000L);
  expect_rejected "target out of range" (word (n + 1) (Int64.of_int n));
  expect_rejected "vertex count overflows the payload size" (fun b ->
      Bytes.set_int64_le b 32 (Int64.shift_left 1L 60));
  (* Compressed: degrees[n] starts[n+1] words, then the varint bytes. *)
  let compressed = Graphs.Csr_compressed.of_csr g in
  let starts = Graphs.Csr_compressed.starts compressed in
  let u = 5 in
  assert (Csr.out_degree g u > 0);
  let stream_byte i value b =
    Bytes.set_uint8 b (64 + (8 * ((2 * n) + 1)) + i) value
  in
  let expect_rejected = expect_rejected ~layout:Layout.Compressed in
  expect_rejected "degree sum" (word 0 7L);
  expect_rejected "starts out of order" (word (n + 1) 100_000L);
  expect_rejected "compressed vertex count overflows the payload size" (fun b ->
      Bytes.set_int64_le b 32 (Int64.shift_left 1L 60));
  (* First target of vertex [u] decodes to [u + 63], past [n = 40]. *)
  expect_rejected "compressed target out of range" (stream_byte starts.(u) 0x7e);
  (* The last byte of [u]'s stream continues past the end of its range. *)
  expect_rejected "varint runs past its vertex"
    (stream_byte (starts.(u + 1) - 1) 0xff)

let () =
  Alcotest.run "graphs"
    [
      ( "edge_list",
        [
          Alcotest.test_case "validation" `Quick test_edge_list_validation;
          Alcotest.test_case "dedup" `Quick test_edge_list_dedup;
          Alcotest.test_case "symmetrized" `Quick test_edge_list_symmetrized;
          QCheck_alcotest.to_alcotest qcheck_symmetrized_is_symmetric;
        ] );
      ( "csr",
        [
          Alcotest.test_case "structure" `Quick test_csr_structure;
          Alcotest.test_case "roundtrip/transpose" `Quick
            test_csr_roundtrip_and_transpose;
          QCheck_alcotest.to_alcotest qcheck_csr_degree_sum;
          QCheck_alcotest.to_alcotest qcheck_csr_accessors;
          QCheck_alcotest.to_alcotest qcheck_delta_apply_is_rebuild;
        ] );
      ( "generators",
        [
          Alcotest.test_case "rmat" `Quick test_rmat_properties;
          Alcotest.test_case "road grid" `Quick test_road_grid_properties;
          Alcotest.test_case "weights" `Quick test_weight_assignment;
          Alcotest.test_case "fixed shapes" `Quick test_fixed_shapes;
        ] );
      ( "io",
        [
          Alcotest.test_case "edge list roundtrip" `Quick test_io_edge_list_roundtrip;
          Alcotest.test_case "dimacs roundtrip" `Quick test_io_dimacs_roundtrip;
          Alcotest.test_case "coords roundtrip" `Quick test_io_coords_roundtrip;
          Alcotest.test_case "malformed input" `Quick test_io_malformed;
        ] );
      ( "compressed",
        [
          QCheck_alcotest.to_alcotest qcheck_compressed_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_compressed_iter_matches_plain;
        ] );
      ( "reorder",
        [
          QCheck_alcotest.to_alcotest qcheck_reorder_roundtrip;
          Alcotest.test_case "sssp survives relabeling" `Quick
            test_reorder_preserves_sssp;
        ] );
      ( "graph_bin",
        [
          Alcotest.test_case "roundtrip both layouts" `Quick
            test_graph_bin_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_graph_bin_rejects_garbage;
          Alcotest.test_case "rejects truncation" `Quick
            test_graph_bin_rejects_truncation;
          Alcotest.test_case "rejects corrupt structure" `Quick
            test_graph_bin_rejects_corrupt_structure;
        ] );
    ]
