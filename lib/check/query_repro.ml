(* One service query as a reproducible command line. The slow-query log
   (lib/service) emits these so an operator can paste an offending
   query straight into check_runner and replay it solo — same graph
   file, same endpoints, same schedule, same worker count — judged
   against the sequential oracles. Where Sweep reproduces a whole
   checker configuration from a printable graph spec, this reproduces
   one production query from the graph *file* the server loaded. *)

module Pool = Parallel.Pool
module Csr = Graphs.Csr
module Handle = Graphs.Handle
module Edge_list = Graphs.Edge_list
module Schedule = Ordered.Schedule

type app = Ppsp | Astar | Widest | Kcore

let app_to_string = function
  | Ppsp -> "ppsp"
  | Astar -> "astar"
  | Widest -> "widest"
  | Kcore -> "kcore"

let app_of_string = function
  | "ppsp" -> Ok Ppsp
  | "astar" -> Ok Astar
  | "widest" -> Ok Widest
  | "kcore" -> Ok Kcore
  | other -> Error (Printf.sprintf "unknown query app %S" other)

type t = {
  app : app;
  graph_file : string;
  symmetric : bool; (* symmetrize after load, as `serve --symmetric` *)
  source : int; (* the vertex, for kcore *)
  target : int; (* ignored by kcore *)
  schedule : Schedule.t;
  workers : int;
}

let to_line r =
  let endpoints =
    match r.app with
    | Kcore -> [ "--vertex"; string_of_int r.source ]
    | Ppsp | Astar | Widest ->
        [ "--source"; string_of_int r.source; "--target"; string_of_int r.target ]
  in
  Harness.command_line
    ([ "--app"; app_to_string r.app; "--graph-file"; r.graph_file ]
    @ endpoints
    @ [ "--schedule"; Schedule.to_string r.schedule ]
    @ [ "--workers"; string_of_int r.workers ]
    @ if r.symmetric then [ "--symmetric" ] else [])

(* ------------------------------------------------------------------ *)
(* Parsing *)

(* Tokenize like a POSIX shell does the words Harness.command_line
   prints: single quotes group, a backslash outside them escapes. *)
let tokenize line =
  let buf = Buffer.create 32 in
  let toks = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      toks := Buffer.contents buf :: !toks;
      Buffer.clear buf
    end
  in
  let in_quote = ref false and escaped = ref false in
  String.iter
    (fun c ->
      if !escaped then begin
        Buffer.add_char buf c;
        escaped := false
      end
      else if c = '\'' then in_quote := not !in_quote
      else if c = '\\' && not !in_quote then escaped := true
      else if (c = ' ' || c = '\t') && not !in_quote then flush ()
      else Buffer.add_char buf c)
    line;
  flush ();
  if !in_quote then Error "unterminated quote" else Ok (List.rev !toks)

let ( let* ) = Result.bind

let of_line line =
  let* toks = tokenize line in
  (* Skip everything up to the first flag so a copied line may carry a
     leading `check_runner`, `dune exec ... --`, or a path. *)
  let rec to_flags = function
    | [] -> []
    | tok :: _ as l when String.length tok > 2 && String.sub tok 0 2 = "--" -> l
    | _ :: rest -> to_flags rest
  in
  let int_of key v =
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "%s: not an integer: %S" key v)
  in
  let rec parse acc = function
    | [] -> Ok acc
    | "--symmetric" :: rest -> parse { acc with symmetric = true } rest
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--"
      -> (
        match flag with
        | "--app" ->
            let* app = app_of_string value in
            parse { acc with app } rest
        | "--graph-file" -> parse { acc with graph_file = value } rest
        | "--source" | "--vertex" ->
            let* source = int_of flag value in
            parse { acc with source } rest
        | "--target" ->
            let* target = int_of flag value in
            parse { acc with target } rest
        | "--schedule" ->
            let* schedule = Schedule.of_string value in
            parse { acc with schedule } rest
        | "--workers" ->
            let* workers = int_of flag value in
            parse { acc with workers } rest
        | _ -> Error (Printf.sprintf "unknown flag %S" flag))
    | tok :: _ -> Error (Printf.sprintf "unexpected token %S" tok)
  in
  let* r =
    parse
      {
        app = Ppsp;
        graph_file = "";
        symmetric = false;
        source = -1;
        target = -1;
        schedule = Schedule.default;
        workers = 1;
      }
      (to_flags toks)
  in
  if r.graph_file = "" then Error "missing --graph-file"
  else if r.source < 0 then Error "missing --source/--vertex"
  else if r.target < 0 && r.app <> Kcore then Error "missing --target"
  else if r.workers < 1 then Error "--workers must be >= 1"
  else Ok r

(* ------------------------------------------------------------------ *)
(* Replay *)

let run ?(oracle = Oracle.default) r =
  let* el = Graphs.Graph_io.load_any r.graph_file in
  let el = if r.symmetric then Edge_list.symmetrized el else el in
  (* The peel needs the undirected closure whatever the server loaded;
     the service builds the same view internally. *)
  let el = if r.app = Kcore then Edge_list.symmetrized el else el in
  let handle = Handle.of_edge_list el in
  let graph = Handle.csr handle in
  let n = Csr.num_vertices graph in
  let range what v =
    if v < 0 || v >= n then
      Error (Printf.sprintf "%s %d out of range [0, %d)" what v n)
    else Ok ()
  in
  let* () = range (if r.app = Kcore then "vertex" else "source") r.source in
  let* () = match r.app with Kcore -> Ok () | _ -> range "target" r.target in
  Pool.with_pool ~num_workers:r.workers (fun pool ->
      let schedule = r.schedule in
      match r.app with
      | Ppsp ->
          let res =
            Algorithms.Ppsp.run ~pool ~graph ~handle ~schedule ~source:r.source
              ~target:r.target ()
          in
          oracle.Oracle.ppsp graph ~source:r.source ~target:r.target
            res.Algorithms.Ppsp.distance
      | Astar ->
          (* Replayed without the server's ALT heuristic: h = 0 is plain
             PPSP, still exact, so the oracle judgement is unchanged. *)
          let res =
            Algorithms.Astar.run ~pool ~graph ~handle ~schedule ~source:r.source
              ~target:r.target ()
          in
          oracle.Oracle.ppsp graph ~source:r.source ~target:r.target
            res.Algorithms.Astar.distance
      | Widest ->
          let res =
            Algorithms.Widest_path.run ~pool ~graph ~handle ~schedule
              ~source:r.source ()
          in
          let got = res.Algorithms.Widest_path.capacity.(r.target) in
          let want = (Algorithms.Widest_path.sequential graph ~source:r.source).(r.target) in
          if got = want then Ok ()
          else
            Error
              (Printf.sprintf "widest capacity %d -> %d: got %d, oracle %d"
                 r.source r.target got want)
      | Kcore ->
          let res = Algorithms.Kcore.run ~pool ~graph ~handle ~schedule () in
          oracle.Oracle.kcore graph res.Algorithms.Kcore.coreness)
