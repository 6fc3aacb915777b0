(* Benchmark harness entry point; perfbench/run.py drives it.

     bench.exe gen         --workload W --seed N --dir D
     bench.exe run         --workload W --seed N --dir D --seconds S --trace 0|1
                           [--server EXE]
     bench.exe fingerprint --workload W --seed N --dir D

   [gen] writes the workload's input files into D; [run] measures and
   prints the result line, and exits 1 if any answer disagreed with the
   oracle; [fingerprint] prints the exact work counters of every
   application run on one worker. Run from the repository root, where
   [run] reads the metric lists of BENCHMARK.json. *)

let () =
  let usage = "bench.exe (gen|run|fingerprint) --workload W --seed N --dir D ..." in
  let workload = ref "" and seed = ref 1 and dir = ref "." and seconds = ref 10.
  and trace = ref 0 and server = ref "" in
  let mode = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W road-apps | social-apps | serve-mixed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--dir", Arg.Set_string dir, "D directory for generated inputs");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ("--server", Arg.Set_string server, "EXE the ordered_serve binary (serve-mixed)");
    ]
    (fun m -> mode := m)
    usage;
  let dir = !dir and seed = !seed in
  let apps kind =
    match !mode with
    | "gen" -> Apps.generate ~dir ~seed kind
    | "run" -> if not (Apps.main ~dir ~seed ~seconds:!seconds ~trace:(!trace = 1) kind) then exit 1
    | "fingerprint" -> Apps.fingerprint ~dir ~seed kind
    | _ -> raise (Arg.Bad usage)
  in
  match !workload with
  | "road-apps" -> apps Apps.Road
  | "social-apps" -> apps Apps.Social
  | "serve-mixed" -> (
      match !mode with
      | "gen" -> Serve.generate ~dir ~seed
      | "run" ->
          if not (Serve.main ~exe:!server ~dir ~seed ~seconds:!seconds ~trace:(!trace = 1)) then
            exit 1
      | _ -> raise (Arg.Bad usage))
  | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
