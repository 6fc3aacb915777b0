(* Machine-readable export for the benchmark harness: sections register
   JSON rows as they run, and [write] dumps one object per run. The report
   holds only exact work counters, which are identical from run to run at
   one worker, so bench/dune pins it byte for byte against the committed
   bench/counters*.json; timings appear only in the printed tables. The
   schema is documented in docs/OBSERVABILITY.md §5. *)

module Json = Support.Json

let path : string option ref = ref None
let rows : (string * Json.t) list ref = ref [] (* newest first *)

let set_path p = path := Some p
let enabled () = !path <> None

(* Rows are cheap to build but the drivers behind them are not: guard at
   the call site with [enabled] only when building the row itself is
   expensive. *)
let add section row = if enabled () then rows := (section, row) :: !rows
let row section fields = add section (Json.Obj fields)

(* Group rows by section, preserving both section order and row order of
   first appearance. *)
let sections () =
  let ordered = List.rev !rows in
  let ids =
    List.fold_left
      (fun ids (id, _) -> if List.mem id ids then ids else id :: ids)
      [] ordered
  in
  List.rev_map
    (fun id ->
      ( id,
        Json.List
          (List.filter_map
             (fun (id', r) -> if id' = id then Some r else None)
             ordered) ))
    ids

let write ~meta =
  match !path with
  | None -> ()
  | Some file ->
      let doc = Json.Obj [ ("meta", meta); ("sections", Json.Obj (sections ())) ] in
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          let ppf = Format.formatter_of_out_channel oc in
          Json.pp ppf doc;
          Format.pp_print_newline ppf ());
      Printf.printf "\nwrote JSON report to %s (%d sections)\n" file
        (List.length (sections ()))
