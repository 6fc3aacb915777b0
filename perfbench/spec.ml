(* The metric lists of BENCHMARK.json, the one place that names every
   metric and its unit. The file is read from the working directory,
   the repository root. *)

module J = Support.Json

let file = "BENCHMARK.json"

(* [(name, unit)] of the metrics listed under [key]. *)
let metrics key =
  let text = In_channel.with_open_bin file In_channel.input_all in
  let spec = match J.of_string text with Ok j -> j | Error e -> failwith (file ^ ": " ^ e) in
  match J.member key spec with
  | Some (J.List l) ->
      List.map
        (fun m ->
          match (J.member "name" m, J.member "unit" m) with
          | Some (J.String name), Some (J.String unit) -> (name, unit)
          | _ -> failwith (file ^ ": a metric without a name or a unit"))
        l
  | _ -> failwith (file ^ ": no " ^ key ^ " list")

let with_units key ~default measured =
  let listed = metrics key in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name listed) then
        failwith (Printf.sprintf "%s: %s is not a %s metric" file name key))
    measured;
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name measured with
      | Some v -> (name, unit, v)
      | None -> (name, unit, default name))
    listed

(* Every end-to-end metric, with its unit; each must be measured. *)
let end_to_end measured =
  with_units "end_to_end" measured ~default:(fun name ->
      failwith ("end-to-end metric " ^ name ^ " was not measured"))

(* Every per-layer metric, with its unit. A workload that does not
   exercise a layer reports 0 for it: that layer did no work there. *)
let per_layer measured = with_units "per_layer" measured ~default:(fun _ -> 0.)
