module Schedule = Ordered.Schedule
module Pool = Parallel.Pool
module Ast = Dsl.Ast
module Json = Support.Json

(* ---------------- bug injection ---------------- *)

type bug = No_bug | Wrong_weight

let bug_to_string = function No_bug -> "none" | Wrong_weight -> "wrong-weight"

let bug_of_string = function
  | "none" -> Ok No_bug
  | "wrong-weight" -> Ok Wrong_weight
  | s -> Error (Printf.sprintf "unknown bug %S (none|wrong-weight)" s)

(* The deliberately wrong lowering: inside every user function with a
   [weight : int] parameter, read the edge weight as [weight + 1]. The
   reference lane interprets the unmutated program, so any graph with a
   relaxable edge exposes the difference. *)
let rec bug_expr name (e : Ast.expr) =
  let desc =
    match e.Ast.desc with
    | Ast.Var v when v = name ->
        Ast.Binop
          (Ast.Add, e, { Ast.desc = Ast.Int_lit 1; pos = e.Ast.pos })
    | (Ast.Int_lit _ | Ast.Bool_lit _ | Ast.String_lit _ | Ast.Var _) as d -> d
    | Ast.Index (a, b) -> Ast.Index (bug_expr name a, bug_expr name b)
    | Ast.Binop (op, a, b) -> Ast.Binop (op, bug_expr name a, bug_expr name b)
    | Ast.Unop (op, a) -> Ast.Unop (op, bug_expr name a)
    | Ast.Call (f, args) -> Ast.Call (f, List.map (bug_expr name) args)
    | Ast.Method_call (recv, m, args) ->
        Ast.Method_call (bug_expr name recv, m, List.map (bug_expr name) args)
    | Ast.New_priority_queue p ->
        Ast.New_priority_queue
          { p with args = List.map (bug_expr name) p.args }
    | Ast.New_vertexset v -> Ast.New_vertexset { v with size = bug_expr name v.size }
  in
  { e with Ast.desc }

let rec bug_stmt name (s : Ast.stmt) =
  let sdesc =
    match s.Ast.sdesc with
    | Ast.S_var_decl (n, t, init) ->
        Ast.S_var_decl (n, t, Option.map (bug_expr name) init)
    | Ast.S_assign (n, e) -> Ast.S_assign (n, bug_expr name e)
    | Ast.S_index_assign (n, i, e) ->
        Ast.S_index_assign (n, bug_expr name i, bug_expr name e)
    | Ast.S_reduce_assign (rd, n, i, e) ->
        Ast.S_reduce_assign (rd, n, bug_expr name i, bug_expr name e)
    | Ast.S_expr e -> Ast.S_expr (bug_expr name e)
    | Ast.S_while (c, body) ->
        Ast.S_while (bug_expr name c, List.map (bug_stmt name) body)
    | Ast.S_if (c, t, f) ->
        Ast.S_if
          (bug_expr name c, List.map (bug_stmt name) t, List.map (bug_stmt name) f)
    | Ast.S_delete _ as d -> d
  in
  { s with Ast.sdesc }

let apply_bug bug (program : Ast.program) =
  match bug with
  | No_bug -> program
  | Wrong_weight ->
      let funcs =
        List.map
          (fun (f : Ast.func_decl) ->
            match List.assoc_opt "weight" f.Ast.params with
            | Some Ast.T_int ->
                { f with Ast.body = List.map (bug_stmt "weight") f.Ast.body }
            | _ -> f)
          program.Ast.funcs
      in
      { program with Ast.funcs }

(* ---------------- toolchain ---------------- *)

type toolchain = {
  compiler : string;
  cache : (string, (string, string) result) Hashtbl.t;
      (* generated source digest -> binary path (or compile error) *)
}

let detect_toolchain () =
  let probe c = Sys.command (Printf.sprintf "%s --version >/dev/null 2>&1" c) = 0 in
  match List.find_opt probe [ "g++"; "c++"; "clang++" ] with
  | Some compiler -> Some { compiler; cache = Hashtbl.create 16 }
  | None -> None

let toolchain_name t = t.compiler

let compile_cached t source =
  let key = Digest.string source in
  match Hashtbl.find_opt t.cache key with
  | Some r -> r
  | None ->
      let cpp = Filename.temp_file "dsl_case" ".cpp" in
      let bin = Filename.temp_file "dsl_case" ".bin" in
      let r =
        Out_channel.with_open_text cpp (fun oc ->
            Out_channel.output_string oc source);
        let log = cpp ^ ".log" in
        let cmd =
          Printf.sprintf "%s -O1 -std=c++17 -o %s %s > %s 2>&1"
            (Filename.quote t.compiler) (Filename.quote bin) (Filename.quote cpp)
            (Filename.quote log)
        in
        if Sys.command cmd = 0 then Ok bin
        else
          let err =
            try In_channel.with_open_text log In_channel.input_all
            with Sys_error _ -> ""
          in
          Error
            (Printf.sprintf "generated C++ does not compile (%s): %s" t.compiler
               (String.sub err 0 (min 400 (String.length err))))
      in
      Hashtbl.replace t.cache key r;
      r

(* Run a compiled case and parse the out/vec protocol back. Exit status 2
   means "lane unavailable" (unmatched program or unsupported construct)
   and is reported as [Ok None]. *)
let run_binary bin args =
  let cmd =
    String.concat " " (List.map Filename.quote (bin :: args)) ^ " 2>/dev/null"
  in
  let ic = Unix.open_process_in cmd in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let lines = List.rev !lines in
  match status with
  | Unix.WEXITED 0 ->
      let printed = ref [] and vectors = ref [] in
      let bad = ref None in
      List.iter
        (fun line ->
          match String.index_opt line ' ' with
          | Some i when String.sub line 0 i = "out" ->
              printed :=
                String.sub line (i + 1) (String.length line - i - 1) :: !printed
          | Some i when String.sub line 0 i = "vec" -> (
              let rest =
                String.sub line (i + 1) (String.length line - i - 1)
              in
              match String.split_on_char ' ' rest with
              | name :: values -> (
                  match
                    List.map int_of_string values |> Array.of_list
                  with
                  | arr -> vectors := (name, arr) :: !vectors
                  | exception Failure _ ->
                      bad := Some ("unparseable vec line: " ^ line))
              | [] -> bad := Some ("empty vec line: " ^ line))
          | _ -> bad := Some ("unrecognized output line: " ^ line))
        lines;
      (match !bad with
      | Some msg -> Error msg
      | None ->
          Ok (Some (List.rev !printed, List.sort compare (List.rev !vectors))))
  | Unix.WEXITED 2 -> Ok None
  | Unix.WEXITED n -> Error (Printf.sprintf "compiled case exited with %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Error (Printf.sprintf "compiled case killed by signal %d" n)

(* ---------------- lane comparison ---------------- *)

let compare_results ~compare_vectors (ref_printed, ref_vectors)
    (got_printed, got_vectors) =
  if ref_printed <> got_printed then
    Error
      (Printf.sprintf "printed [%s], reference printed [%s]"
         (String.concat "; " got_printed)
         (String.concat "; " ref_printed))
  else if not compare_vectors then Ok ()
  else
    let rec go a b =
      match (a, b) with
      | [], [] -> Ok ()
      | (n, _) :: _, [] | [], (n, _) :: _ ->
          Error (Printf.sprintf "vector %s missing in one lane" n)
      | (n1, v1) :: rest1, (n2, v2) :: rest2 ->
          if n1 <> n2 then
            Error (Printf.sprintf "vector name mismatch %s vs %s" n1 n2)
          else if v1 <> v2 then begin
            let i = ref 0 in
            while !i < Array.length v1 && v1.(!i) = v2.(!i) do
              incr i
            done;
            Error
              (Printf.sprintf
                 "%s[%d] = %d, reference says %d (graph has %d vertices)" n1
                 !i
                 (if !i < Array.length v2 then v2.(!i) else -1)
                 (if !i < Array.length v1 then v1.(!i) else -1)
                 (Array.length v1))
          end
          else go rest1 rest2
    in
    go ref_vectors got_vectors

(* ---------------- one configuration ---------------- *)

type config = {
  spec : Dsl_case.spec;
  graph : Graph_case.spec;
  schedule : Schedule.t;
  workers : int;
  bug : bug;
}

type lane = Lower | Reference | Engine | Compiled

let lane_to_string = function
  | Lower -> "lower"
  | Reference -> "reference"
  | Engine -> "engine"
  | Compiled -> "compiled"

let repro_line ?(chaos = false) ?(race = false) ~seed c =
  Harness.repro_line ~seed ~chaos ~race
    ~mode:[ "--dsl"; "--program"; Dsl_case.to_string c.spec ]
    ~graph:(Graph_case.to_string c.graph) ~workers:c.workers ~schedule:c.schedule
    (if c.bug = No_bug then [] else [ "--bug"; bug_to_string c.bug ])

let with_graph_file (case : Graph_case.t) f =
  let path = Filename.temp_file "dsl_graph" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Graphs.Graph_io.write_edge_list path case.Graph_case.el;
      f path)

let lower_case ?(bug = No_bug) spec schedule =
  let source = Dsl_case.render ~schedule spec in
  match Dsl.Parser.parse_string source with
  | exception Dsl.Parser.Error (pos, msg) ->
      Error (Format.asprintf "%a: parse error: %s" Dsl.Pos.pp pos msg)
  | program -> (
      match Dsl.Lower.lower (apply_bug bug program) with
      | Error e -> Error e
      | Ok lowered -> Dsl.Lower.with_loop_schedule lowered schedule)

let interp_result lowered ~pool ~argv ~transform =
  match Dsl.Interp.run lowered ~pool ~argv ~transform () with
  | r -> Ok (r.Dsl.Interp.printed, r.Dsl.Interp.vectors)
  | exception Dsl.Interp.Runtime_error (pos, msg) ->
      Error (Format.asprintf "runtime error at %a: %s" Dsl.Pos.pp pos msg)
  | exception Invalid_argument msg -> Error ("invalid argument: " ^ msg)

(* The target vertex for the "stop" gene: the last vertex, so stopping
   early is actually observable on path-shaped graphs. *)
let target_of (case : Graph_case.t) =
  max 0 (Graphs.Edge_list.(case.Graph_case.el.num_vertices) - 1)

let run_one ?(bug = No_bug) ?toolchain ~pool ~ref_pool spec
    (case : Graph_case.t) schedule =
  let ( let* ) = Result.bind in
  let in_lane lane = Result.map_error (fun e -> (lane, e)) in
  (* The reference lane interprets the unmutated program; the schedule
     only matters to the engine lane, so lower the reference at the
     default point. *)
  let* reference_lowered = in_lane Lower (lower_case spec Schedule.default) in
  let* lowered = in_lane Lower (lower_case ~bug spec schedule) in
  with_graph_file case (fun path ->
      let argv = Dsl_case.argv ~graph_file:path ~target:(target_of case) spec in
      let* reference =
        in_lane Reference
          (interp_result reference_lowered ~pool:ref_pool ~argv ~transform:false)
      in
      let compare_vectors = Dsl_case.compare_vectors spec in
      let* engine =
        in_lane Engine (interp_result lowered ~pool ~argv ~transform:true)
      in
      let* () = in_lane Engine (compare_results ~compare_vectors reference engine) in
      match toolchain with
      | None -> Ok ()
      | Some t ->
          in_lane Compiled
            (let* bin = compile_cached t (Dsl.Codegen_cpp.generate lowered) in
             let* out = run_binary bin (List.tl (Array.to_list argv)) in
             match out with
             | None -> Ok () (* compiled lane unavailable for this program *)
             | Some got -> compare_results ~compare_vectors reference got))

(* ---------------- shrinking ---------------- *)

(* ddmin over the gene list, then over the graph under the smallest
   program. The skeleton is not shrinkable — it IS the minimal §5.2
   pattern. *)
let shrink ~judge c =
  let with_genes genes = { c with spec = { c.spec with Dsl_case.genes = Array.to_list genes } } in
  let fails c = Result.is_error (judge c (Graph_case.build c.graph)) in
  let c =
    with_genes
      (Harness.ddmin (Harness.probes ~max:max_int)
         (fun genes -> fails (with_genes genes))
         (Array.of_list c.spec.Dsl_case.genes))
  in
  let check case = Result.is_error (judge c case) in
  { c with graph = Graph_case.shrink ~check (Graph_case.build c.graph) }

(* ---------------- the sweep ---------------- *)

type failure = (config, lane) Harness.failure

type summary = {
  checks : (config, lane) Harness.summary;
  programs : int;
  compiled_runs : int;
  toolchain : string option;
}

let default_programs ~seed = List.init 6 (Dsl_case.generate ~seed)

let default_graphs ~seed =
  [
    Graph_case.Random { seed; n = 24; m = 96; max_w = 8 };
    Graph_case.Road { seed = seed + 1; rows = 4; cols = 5 };
    Graph_case.Path 12;
    Graph_case.Star 8;
    Graph_case.Dup_edges { seed = seed + 2; n = 10; m = 30; max_w = 5 };
    Graph_case.Self_loops 6;
    Graph_case.Edgeless 3;
  ]

let deltas = function
  | Dsl_case.Sum_peel -> [ 1 ] (* coarsening is off for the peel queue *)
  | Dsl_case.Min_relax | Dsl_case.Max_relax -> [ 1; 2; 8 ]

let scheds s = List.map (fun sched -> { s with Schedule.sched }) [ None; Some Pool.Dynamic ]

let grid spec =
  Harness.grid
    [
      (fun s ->
        List.map
          (fun strategy -> { s with Schedule.strategy })
          (Dsl_case.strategies spec.Dsl_case.family));
      (fun s ->
        List.map
          (fun traversal -> { s with Schedule.traversal })
          (Dsl_case.traversals s.Schedule.strategy));
      (fun s -> List.map (fun delta -> { s with Schedule.delta }) (deltas spec.Dsl_case.family));
      Harness.open_buckets;
      Harness.fusion_thresholds;
      scheds;
    ]

(* The representative point of each (strategy, traversal, delta) cell: the
   first value of every inner axis. The compiled lane builds only these,
   bounding compile time while still covering every emitted backend
   shape. *)
let representative s =
  List.for_all
    (fun axis -> List.hd (axis s) = s)
    [ Harness.open_buckets; Harness.fusion_thresholds; scheds ]

let headline lane message = lane_to_string lane ^ " lane: " ^ message

let failure_fields (f : failure) =
  let c = f.original in
  let shrunk_to print field =
    if field f.shrunk = field c then Json.Null else Json.String (print (field f.shrunk))
  in
  [
    ("program", Json.String (Dsl_case.to_string c.spec));
    ("graph", Json.String (Graph_case.to_string c.graph));
    ("schedule", Json.String (Schedule.to_string c.schedule));
    ("workers", Json.Int c.workers);
    ("bug", Json.String (bug_to_string c.bug));
    ("lane", Json.String (lane_to_string f.lane));
    ("message", Json.String f.message);
    ("shrunk_program", shrunk_to Dsl_case.to_string (fun c -> c.spec));
    ("shrunk_graph", shrunk_to Graph_case.to_string (fun c -> c.graph));
    ("repro", Json.String f.repro);
  ]

let summary_json ~seed s =
  Harness.summary_json ~mode:"dsl" ~seed
    ~before:[ ("programs", Json.Int s.programs) ]
    ~after:
      [
        ("compiled_runs", Json.Int s.compiled_runs);
        ( "toolchain",
          match s.toolchain with None -> Json.Null | Some name -> Json.String name );
      ]
    failure_fields s.checks

let run ?programs ?graphs ?(workers = [ 1; 2; 4 ]) ?(budget = 60.) ?(seed = 0)
    ?(max_failures = 5) ?(chaos = false) ?(race = false) ?(bug = No_bug)
    ?compiled ?(log = fun _ -> ()) () =
  let programs =
    match programs with Some p -> p | None -> default_programs ~seed
  in
  let graphs = match graphs with Some g -> g | None -> default_graphs ~seed in
  let toolchain =
    match compiled with
    | Some false -> None
    | Some true | None -> detect_toolchain ()
  in
  (match toolchain with
  | Some t -> log (Printf.sprintf "compiled lane: %s" (toolchain_name t))
  | None -> log "compiled lane: no C++ toolchain detected, skipped");
  (* The compiled lane builds one binary per (program, schedule) cell: it
     runs at the representative point on the first worker count. *)
  let first_workers = List.fold_left min max_int workers in
  let toolchain_for c =
    if c.workers = first_workers && representative c.schedule then toolchain else None
  in
  let compiled_runs = ref 0 in
  let checks =
    Pool.with_pool ~num_workers:1 (fun ref_pool ->
        let judge ~pool c case =
          run_one ~bug:c.bug ?toolchain:(toolchain_for c) ~pool ~ref_pool c.spec case
            c.schedule
        in
        let sweep =
          {
            Harness.judge = (fun ~pool c -> judge ~pool c (Graph_case.build c.graph));
            shrink = (fun ~pool c -> shrink ~judge:(judge ~pool) c);
            describe =
              (fun c ->
                Printf.sprintf "%s on %s [%s]" (Dsl_case.to_string c.spec)
                  (Graph_case.to_string c.graph) (Schedule.to_string c.schedule));
            headline;
            repro = repro_line ~chaos ~race ~seed;
          }
        in
        Harness.run ~workers ~budget ~seed ~max_failures ~chaos ~race ~log sweep
          (fun ~visit ~report:_ ->
            List.iter
              (fun spec ->
                List.iter
                  (fun graph ->
                    let case = Graph_case.build graph in
                    List.iter
                      (fun schedule ->
                        visit
                          (fun workers -> { spec; graph; schedule; workers; bug })
                          (fun ~pool c ->
                            if toolchain_for c <> None then incr compiled_runs;
                            judge ~pool c case))
                      (grid spec))
                  graphs)
              programs))
  in
  {
    checks;
    programs = List.length programs;
    compiled_runs = !compiled_runs;
    toolchain = Option.map toolchain_name toolchain;
  }
