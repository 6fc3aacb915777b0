(* Writes a GRAPHBIN file that passes every header check but whose one
   edge targets vertex 3 of a three-vertex graph: the loader's structural
   check must reject it. Usage: bad_graphbin.exe OUT *)
let () =
  let path = Sys.argv.(1) in
  let el =
    Graphs.Edge_list.create ~num_vertices:3
      [| { Graphs.Edge_list.src = 0; dst = 1; weight = 1 } |]
  in
  Graphs.Graph_bin.save path (Graphs.Csr.of_edge_list el);
  let b = In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string in
  (* Header (64 bytes), then offsets[4], then targets[1]. *)
  Bytes.set_int64_le b (64 + (8 * 4)) 3L;
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)
