(* Differential checking for the dynamic-graph path: random delta
   batches replayed against random graphs, with three independent
   answers per step that must all agree —

   - [Sssp_delta.run_incremental] (the ordered engine, seeded from the
     affected set),
   - [Sssp_delta.run] from scratch on the mutated graph (same schedule),
   - [Bellman_ford.run_incremental] (unordered repair sharing no
     bucketing code),

   judged by the sequential oracle on top. A mismatch shrinks the
   batches with Harness.ddmin into a one-line repro for
   [check_runner --dynamic]. *)

module Csr = Graphs.Csr
module Delta = Graphs.Delta
module Handle = Graphs.Handle
module Schedule = Ordered.Schedule
module Rng = Support.Rng
module Json = Support.Json

type config = {
  spec : Graph_case.spec;
  schedule : Schedule.t;
  workers : int;
  batches : Delta.batch array;
}

(* ---------------- batches <-> repro strings ---------------- *)

let batches_to_string batches =
  String.concat ";" (Array.to_list (Array.map Delta.to_string batches))

let ( let* ) = Result.bind

let batches_of_string s =
  if String.trim s = "" then Ok [||]
  else
    String.split_on_char ';' (String.trim s)
    |> List.fold_left
         (fun acc part ->
           let* batches = acc in
           let* b = Delta.of_string part in
           Ok (b :: batches))
         (Ok [])
    |> Result.map (fun batches -> Array.of_list (List.rev batches))

let repro_line ?(chaos = false) ?(race = false) ~seed c =
  Harness.repro_line ~seed ~chaos ~race ~mode:[ "--dynamic" ]
    ~graph:(Graph_case.to_string c.spec) ~workers:c.workers ~schedule:c.schedule
    [ "--batches"; batches_to_string c.batches ]

(* ---------------- random batch generation ---------------- *)

(* Deletes and reweights target edges that exist at generation time, so a
   batch sequence keeps mutating live structure instead of no-oping; the
   tracked graph evolves batch over batch exactly as replay will. *)
let gen_batch rng csr ~ops =
  let n = Csr.num_vertices csr in
  let random_existing () =
    let m = Csr.num_edges csr in
    if m = 0 then None
    else begin
      let i = Rng.int rng m in
      let u = ref 0 in
      let offsets = Csr.offsets csr in
      while offsets.(!u + 1) <= i do
        incr u
      done;
      Some (!u, Csr.edge_target csr i)
    end
  in
  let insert () =
    Delta.Insert { src = Rng.int rng n; dst = Rng.int rng n; weight = 1 + Rng.int rng 9 }
  in
  Array.init ops (fun _ ->
      if n = 0 then invalid_arg "Dynamic.gen_batch: empty vertex universe"
      else
        match Rng.int rng 4 with
        | 0 | 1 -> insert ()
        | 2 -> (
            match random_existing () with
            | Some (src, dst) -> Delta.Delete { src; dst }
            | None -> insert ())
        | _ -> (
            match random_existing () with
            | Some (src, dst) ->
                Delta.Reweight { src; dst; weight = 1 + Rng.int rng 9 }
            | None -> insert ()))

let gen_batches ~seed csr ~num_batches ~ops_per_batch =
  let rng = Rng.create seed in
  let cur = ref csr in
  Array.init num_batches (fun _ ->
      let b = gen_batch rng !cur ~ops:ops_per_batch in
      cur := Delta.apply !cur b;
      b)

(* ---------------- one configuration ---------------- *)

let diff_message what a b =
  if Array.length a <> Array.length b then Some (what ^ ": length mismatch")
  else
    Seq.find (fun i -> a.(i) <> b.(i)) (Seq.init (Array.length a) Fun.id)
    |> Option.map (fun i -> Printf.sprintf "%s: dist[%d] = %d vs %d" what i a.(i) b.(i))

(* Replay [batches] from the initial graph; every step must agree across
   incremental, from-scratch, the unordered incremental counterpart, and
   the sequential oracle. Step 0 is the initial full run; batch [k]
   (0-based) is judged as step [k + 1]. *)
let run_config ~pool config =
  match Schedule.validate config.schedule with
  | Error msg -> Error (0, "invalid schedule: " ^ msg)
  | Ok schedule -> (
      let judge () =
        let case = Graph_case.build config.spec in
        let csr0 = Csr.of_edge_list case.Graph_case.el in
        let source = 0 in
        let handle0 = Handle.create ~version:0 csr0 in
        let r0 =
          Algorithms.Sssp_delta.run ~pool ~graph:csr0 ~handle:handle0 ~schedule
            ~source ()
        in
        let bf0 = Algorithms.Bellman_ford.run ~pool ~graph:csr0 ~source () in
        match Oracle.default.Oracle.sssp csr0 ~source r0.Algorithms.Sssp_delta.dist with
        | Error msg -> Error (0, "initial run: " ^ msg)
        | Ok () ->
            let rec go step cur prev_dist prev_bf =
              if step > Array.length config.batches then Ok ()
              else
                let batch = config.batches.(step - 1) in
                match Delta.validate ~num_vertices:(Csr.num_vertices cur) batch with
                | Error msg -> Error (step, "invalid batch: " ^ msg)
                | Ok () -> (
                    let next = Delta.apply cur batch in
                    let handle = Handle.create ~version:step next in
                    let inc =
                      Algorithms.Sssp_delta.run_incremental ~pool ~old_graph:cur
                        ~graph:next ~handle ~schedule ~source ~batch
                        ~prev:prev_dist ()
                    in
                    let full =
                      Algorithms.Sssp_delta.run ~pool ~graph:next ~handle
                        ~schedule ~source ()
                    in
                    let bf =
                      Algorithms.Bellman_ford.run_incremental ~pool
                        ~old_graph:cur ~graph:next ~source ~batch ~prev:prev_bf ()
                    in
                    let inc_dist =
                      inc.Algorithms.Sssp_delta.result.Algorithms.Sssp_delta.dist
                    in
                    match
                      ( diff_message "incremental vs from-scratch" inc_dist
                          full.Algorithms.Sssp_delta.dist,
                        diff_message "incremental vs unordered-incremental"
                          inc_dist bf.Algorithms.Bellman_ford.dist )
                    with
                    | Some msg, _ | None, Some msg -> Error (step, msg)
                    | None, None -> (
                        match Oracle.default.Oracle.sssp next ~source inc_dist with
                        | Error msg -> Error (step, "oracle: " ^ msg)
                        | Ok () ->
                            go (step + 1) next inc_dist
                              bf.Algorithms.Bellman_ford.dist))
            in
            go 1 csr0 r0.Algorithms.Sssp_delta.dist bf0.Algorithms.Bellman_ford.dist
      in
      match judge () with
      | result -> result
      | exception exn -> Error (0, "exception: " ^ Printexc.to_string exn))

(* ---------------- shrinking ---------------- *)

(* Drop the batches the failure does not need, then ddmin the ops of each
   remaining batch in place. One budget covers both passes; each probe is
   a full replay. *)
let shrink ~pool config =
  let probes = Harness.probes ~max:300 in
  let fails batches = Result.is_error (run_config ~pool { config with batches }) in
  let batches = Array.copy (Harness.ddmin probes fails config.batches) in
  Array.iteri
    (fun i ops ->
      let with_ops ops =
        let candidate = Array.copy batches in
        candidate.(i) <- ops;
        candidate
      in
      batches.(i) <- Harness.ddmin probes (fun ops -> fails (with_ops ops)) ops)
    batches;
  { config with batches }

(* ---------------- the sweep ---------------- *)

type failure = (config, int) Harness.failure
type summary = (config, int) Harness.summary

let default_specs ~seed =
  [
    Graph_case.Random { seed; n = 48; m = 200; max_w = 12 };
    Graph_case.Random { seed = seed + 1; n = 64; m = 120; max_w = 5 };
    Graph_case.Dup_edges { seed = seed + 2; n = 24; m = 60; max_w = 9 };
    Graph_case.Road { seed = seed + 3; rows = 5; cols = 6 };
    Graph_case.Path 13;
    Graph_case.Cycle 9;
    Graph_case.Star 16;
    Graph_case.Self_loops 8;
  ]

(* The dynamic schedule axes: every strategy × direction combination the
   static sweep exercises, crossed with the incremental-threshold knob —
   0 forces the full-recompute fallback (so fallback parity is itself
   swept), 1 never falls back, and the default sits between. *)
let schedules graph =
  Harness.grid
    [
      (fun s ->
        List.map
          (fun (strategy, traversal) -> { s with Schedule.strategy; traversal })
          [
            (Schedule.Eager_with_fusion, Schedule.Sparse_push);
            (Schedule.Eager_no_fusion, Schedule.Sparse_push);
            (Schedule.Lazy, Schedule.Sparse_push);
            (Schedule.Lazy, Schedule.Dense_pull);
            (Schedule.Lazy, Schedule.Hybrid);
          ]);
      (fun s ->
        List.map
          (fun delta -> { s with Schedule.delta })
          (List.sort_uniq compare [ 1; max 1 (Csr.max_weight graph) ]));
      (fun s ->
        List.map
          (fun incremental_threshold -> { s with Schedule.incremental_threshold })
          [ 0.0; Schedule.default.Schedule.incremental_threshold; 1.0 ]);
    ]

let headline step message = Printf.sprintf "step %d: %s" step message

let failure_fields (f : failure) =
  let c = f.shrunk in
  [
    ("graph", Json.String (Graph_case.to_string c.spec));
    ("schedule", Json.String (Schedule.to_string c.schedule));
    ("workers", Json.Int c.workers);
    ("batches", Json.String (batches_to_string c.batches));
    ("step", Json.Int f.lane);
    ("message", Json.String f.message);
    ("repro", Json.String f.repro);
  ]

let summary_json ~seed s = Harness.summary_json ~mode:"dynamic" ~seed failure_fields s

let run ?specs ?(workers = [ 1; 2; 4 ]) ?(budget = 60.) ?(seed = 0)
    ?(max_failures = 5) ?(num_batches = 3) ?(ops_per_batch = 6) ?(chaos = false)
    ?(race = false) ?(log = fun _ -> ()) () =
  let specs = match specs with Some s -> s | None -> default_specs ~seed in
  let sweep =
    {
      Harness.judge = run_config;
      shrink;
      describe = (fun c -> "dynamic on " ^ Graph_case.to_string c.spec);
      headline;
      repro = repro_line ~chaos ~race ~seed;
    }
  in
  Harness.run ~workers ~budget ~seed ~max_failures ~chaos ~race ~log sweep
    (fun ~visit ~report:_ ->
      List.iter
        (fun spec ->
          let csr0 = Csr.of_edge_list (Graph_case.build spec).Graph_case.el in
          let batches =
            gen_batches ~seed:(seed + Hashtbl.hash (Graph_case.to_string spec))
              csr0 ~num_batches ~ops_per_batch
          in
          List.iter
            (fun schedule ->
              visit (fun workers -> { spec; schedule; workers; batches }) run_config)
            (schedules csr0))
        specs)
