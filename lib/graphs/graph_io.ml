let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let with_in path f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)

let parse_failure path line_no msg =
  failwith (Printf.sprintf "%s:%d: %s" path line_no msg)

let fold_lines path f init =
  with_in path (fun ic ->
      let rec go acc line_no =
        match input_line ic with
        | line -> go (f acc line_no line) (line_no + 1)
        | exception End_of_file -> acc
      in
      go init 1)

let write_edge_list path (el : Edge_list.t) =
  with_out path (fun oc ->
      Printf.fprintf oc "# %d %d\n" el.num_vertices (Array.length el.edges);
      Array.iter
        (fun { Edge_list.src; dst; weight } -> Printf.fprintf oc "%d %d %d\n" src dst weight)
        el.edges)

let read_edge_list path =
  let header = ref None in
  let edges = ref [] in
  let count = ref 0 in
  fold_lines path
    (fun () line_no line ->
      let line = String.trim line in
      if line = "" then ()
      else
        match (!header, String.split_on_char ' ' line |> List.filter (( <> ) "")) with
        | None, [ "#"; n; m ] -> (
            match (int_of_string_opt n, int_of_string_opt m) with
            | Some n, Some m -> header := Some (n, m)
            | _ -> parse_failure path line_no "malformed header")
        | None, _ -> parse_failure path line_no "expected '# num_vertices num_edges' header"
        | Some _, [ s; d; w ] -> (
            match (int_of_string_opt s, int_of_string_opt d, int_of_string_opt w) with
            | Some s, Some d, Some w ->
                edges := { Edge_list.src = s; dst = d; weight = w } :: !edges;
                incr count
            | _ -> parse_failure path line_no "malformed edge line")
        | Some _, _ -> parse_failure path line_no "expected 'src dst weight'")
    ();
  match !header with
  | None -> failwith (Printf.sprintf "%s: empty file" path)
  | Some (n, m) ->
      if m <> !count then
        failwith (Printf.sprintf "%s: header declares %d edges, found %d" path m !count);
      let arr = Array.make !count { Edge_list.src = 0; dst = 0; weight = 1 } in
      List.iteri (fun i e -> arr.(!count - 1 - i) <- e) !edges;
      Edge_list.create ~num_vertices:n arr

let read_dimacs path =
  let n = ref 0 in
  let edges = ref [] in
  let count = ref 0 in
  fold_lines path
    (fun () line_no line ->
      let fields = String.split_on_char ' ' line |> List.filter (( <> ) "") in
      match fields with
      | [] | "c" :: _ -> ()
      | [ "p"; "sp"; nv; _ne ] -> (
          match int_of_string_opt nv with
          | Some v -> n := v
          | None -> parse_failure path line_no "malformed problem line")
      | [ "a"; u; v; w ] -> (
          match (int_of_string_opt u, int_of_string_opt v, int_of_string_opt w) with
          | Some u, Some v, Some w ->
              edges := { Edge_list.src = u - 1; dst = v - 1; weight = w } :: !edges;
              incr count
          | _ -> parse_failure path line_no "malformed arc line")
      | _ -> parse_failure path line_no "unrecognized DIMACS line")
    ();
  if !n = 0 then failwith (Printf.sprintf "%s: missing 'p sp' problem line" path);
  let arr = Array.make !count { Edge_list.src = 0; dst = 0; weight = 1 } in
  List.iteri (fun i e -> arr.(!count - 1 - i) <- e) !edges;
  Edge_list.create ~num_vertices:!n arr

let write_dimacs path (el : Edge_list.t) =
  with_out path (fun oc ->
      Printf.fprintf oc "p sp %d %d\n" el.num_vertices (Array.length el.edges);
      Array.iter
        (fun { Edge_list.src; dst; weight } ->
          Printf.fprintf oc "a %d %d %d\n" (src + 1) (dst + 1) weight)
        el.edges)

let write_coords path coords =
  with_out path (fun oc ->
      let n = Coords.num_vertices coords in
      Printf.fprintf oc "# %d\n" n;
      for v = 0 to n - 1 do
        Printf.fprintf oc "%.6f %.6f\n" (Coords.x coords v) (Coords.y coords v)
      done)

let read_coords path =
  let n = ref (-1) in
  let xs = ref [] and ys = ref [] in
  fold_lines path
    (fun () line_no line ->
      let line = String.trim line in
      if line = "" then ()
      else
        match (!n, String.split_on_char ' ' line |> List.filter (( <> ) "")) with
        | -1, [ "#"; count ] -> (
            match int_of_string_opt count with
            | Some c -> n := c
            | None -> parse_failure path line_no "malformed coords header")
        | -1, _ -> parse_failure path line_no "expected '# n' header"
        | _, [ x; y ] -> (
            match (float_of_string_opt x, float_of_string_opt y) with
            | Some x, Some y ->
                xs := x :: !xs;
                ys := y :: !ys
            | _ -> parse_failure path line_no "malformed coordinate line")
        | _, _ -> parse_failure path line_no "expected 'x y'")
    ();
  let xs = Array.of_list (List.rev !xs) and ys = Array.of_list (List.rev !ys) in
  if !n >= 0 && Array.length xs <> !n then
    failwith (Printf.sprintf "%s: header declares %d vertices, found %d" path !n
                (Array.length xs));
  Coords.create xs ys

let load path =
  if Filename.check_suffix path ".gr" then read_dimacs path else read_edge_list path

let load_any path =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "graph file not found: %s" path)
  else
    try
      Ok
        (if Graph_bin.is_graph_bin path then
           Csr.to_edge_list (Graph_bin.load_csr path)
         else load path)
    with Failure msg | Sys_error msg | Invalid_argument msg -> Error msg
