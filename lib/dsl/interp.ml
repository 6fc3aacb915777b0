module Pool = Parallel.Pool
module Atomic_array = Parallel.Atomic_array
module Csr = Graphs.Csr
module Vertex_subset = Frontier.Vertex_subset
module Bucket_order = Bucketing.Bucket_order
module Pq = Ordered.Priority_queue
module Engine = Ordered.Engine
module Schedule = Ordered.Schedule
module Edge_map = Traverse.Edge_map
module Scratch = Traverse.Scratch

type value =
  | V_unit
  | V_int of int
  | V_bool of bool
  | V_string of string
  | V_vector of Atomic_array.t
  | V_edgeset of Csr.t
  | V_vertexset of Vertex_subset.t
  | V_filtered_edges of Csr.t * Vertex_subset.t
  | V_pq of Pq.t

type extern_fn = value list -> value

type run_result = {
  vectors : (string * int array) list;
  stats : Ordered.Stats.t option;
  printed : string list;
}

exception Runtime_error of Pos.t * string

let error pos fmt = Printf.ksprintf (fun msg -> raise (Runtime_error (pos, msg))) fmt

type state = {
  lowered : Lower.t;
  pool : Pool.t;
  argv : string array;
  (* When false, the §5.2 loop replacement is suppressed: matched while
     loops are interpreted statement-by-statement over a lazy backend —
     the engine-free reference semantics the differential sweep compares
     the engine and compiled lanes against. *)
  transform : bool;
  externs : (string, extern_fn) Hashtbl.t;
  globals : (string, value) Hashtbl.t;
  mutable pq : Pq.t option;
  mutable stats : Ordered.Stats.t option;
  (* The ordered loop's graph handle, cached per graph (physical
     equality) so pull schedules build its transpose once. *)
  mutable handle : Graphs.Handle.t option;
  mutable printed : string list;
  (* Traversal scratch, cached per graph (physical equality): the edgeset
     ops of an unordered loop reuse one scratch across all iterations. *)
  mutable scratch : (Csr.t * Scratch.t) option;
}

type frame = {
  mutable locals : (string * value ref) list;
  ctx : Pq.ctx;
}

let sequential_ctx = { Pq.tid = 0; use_atomics = true }

let scratch_for state graph =
  match state.scratch with
  | Some (g, s) when g == graph -> s
  | _ ->
      let s = Scratch.create ~pool:state.pool ~graph in
      state.scratch <- Some (graph, s);
      s

let describe_value = function
  | V_unit -> "unit"
  | V_int _ -> "int"
  | V_bool _ -> "bool"
  | V_string _ -> "string"
  | V_vector _ -> "vector"
  | V_edgeset _ -> "edgeset"
  | V_vertexset _ -> "vertexset"
  | V_filtered_edges _ -> "filtered edgeset"
  | V_pq _ -> "priority_queue"

let as_int pos = function
  | V_int i -> i
  | v -> error pos "expected an int, got %s" (describe_value v)

let as_bool pos = function
  | V_bool b -> b
  | v -> error pos "expected a bool, got %s" (describe_value v)

let as_vector pos = function
  | V_vector a -> a
  | v -> error pos "expected a vector, got %s" (describe_value v)

let as_edgeset pos = function
  | V_edgeset g -> g
  | v -> error pos "expected an edgeset, got %s" (describe_value v)

let the_pq state pos =
  match state.pq with
  | Some pq -> pq
  | None -> error pos "the priority queue has not been constructed yet"

let lookup state frame pos name =
  match List.assoc_opt name frame.locals with
  | Some r -> !r
  | None -> (
      match Hashtbl.find_opt state.globals name with
      | Some v -> v
      | None ->
          if name = "INT_MAX" then V_int Bucket_order.null_priority
          else error pos "unbound identifier %S" name)

let string_of_value = function
  | V_unit -> "()"
  | V_int i -> string_of_int i
  | V_bool b -> string_of_bool b
  | V_string s -> s
  | V_vector a ->
      let n = min 16 (Atomic_array.length a) in
      let cells = List.init n (fun i -> string_of_int (Atomic_array.get a i)) in
      Printf.sprintf "[%s%s]" (String.concat "; " cells)
        (if Atomic_array.length a > n then "; ..." else "")
  | V_edgeset g ->
      Printf.sprintf "<edgeset |V|=%d |E|=%d>" (Csr.num_vertices g) (Csr.num_edges g)
  | V_vertexset s -> Printf.sprintf "<vertexset |%d|>" (Vertex_subset.cardinal s)
  | V_filtered_edges _ -> "<filtered edgeset>"
  | V_pq _ -> "<priority_queue>"

(* The vertex universe: the size of any loaded edgeset (for sizing
   vertexsets and vectors created before the priority queue exists). *)
let universe_size state pos =
  let n = ref (-1) in
  Hashtbl.iter
    (fun _ v -> match v with V_edgeset g -> n := max !n (Csr.num_vertices g) | _ -> ())
    state.globals;
  if !n < 0 then error pos "no edgeset loaded yet, so the vertex universe is unknown";
  !n

(* ---------------- expression evaluation ---------------- *)

let rec eval state frame (e : Ast.expr) : value =
  let pos = e.Ast.pos in
  match e.Ast.desc with
  | Ast.Int_lit i -> V_int i
  | Ast.Bool_lit b -> V_bool b
  | Ast.String_lit s -> V_string s
  | Ast.Var name -> lookup state frame pos name
  | Ast.Index (base, index) -> (
      match base.Ast.desc with
      | Ast.Var "argv" ->
          let i = as_int pos (eval state frame index) in
          if i < 0 || i >= Array.length state.argv then
            error pos "argv[%d] out of range (%d arguments)" i (Array.length state.argv);
          V_string state.argv.(i)
      | _ ->
          let vec = as_vector pos (eval state frame base) in
          let i = as_int pos (eval state frame index) in
          if i < 0 || i >= Atomic_array.length vec then
            error pos "vector index %d out of range" i;
          V_int (Atomic_array.get vec i))
  | Ast.Binop (op, lhs, rhs) -> eval_binop state frame pos op lhs rhs
  | Ast.Unop (Ast.Neg, operand) -> V_int (-as_int pos (eval state frame operand))
  | Ast.Unop (Ast.Not, operand) -> V_bool (not (as_bool pos (eval state frame operand)))
  | Ast.Call (name, args) -> eval_call state frame pos name args
  | Ast.Method_call (receiver, name, args) -> eval_method state frame pos receiver name args
  | Ast.New_vertexset { size; _ } ->
      let n = as_int pos (eval state frame size) in
      let universe = universe_size state pos in
      if n = 0 then V_vertexset (Vertex_subset.empty ~num_vertices:universe)
      else if n = universe then V_vertexset (Vertex_subset.full ~num_vertices:universe)
      else error pos "new vertexset size must be 0 or the vertex count, got %d" n
  | Ast.New_priority_queue _ ->
      error pos "priority queue construction is only allowed in an assignment"

and eval_binop state frame pos op lhs rhs =
  match op with
  | Ast.And ->
      V_bool (as_bool pos (eval state frame lhs) && as_bool pos (eval state frame rhs))
  | Ast.Or ->
      V_bool (as_bool pos (eval state frame lhs) || as_bool pos (eval state frame rhs))
  | _ -> (
      let l = eval state frame lhs and r = eval state frame rhs in
      match op with
      | Ast.Add -> V_int (as_int pos l + as_int pos r)
      | Ast.Sub -> V_int (as_int pos l - as_int pos r)
      | Ast.Mul -> V_int (as_int pos l * as_int pos r)
      | Ast.Div ->
          let d = as_int pos r in
          if d = 0 then error pos "division by zero";
          V_int (as_int pos l / d)
      | Ast.Lt -> V_bool (as_int pos l < as_int pos r)
      | Ast.Le -> V_bool (as_int pos l <= as_int pos r)
      | Ast.Gt -> V_bool (as_int pos l > as_int pos r)
      | Ast.Ge -> V_bool (as_int pos l >= as_int pos r)
      | Ast.Eq -> V_bool (values_equal pos l r)
      | Ast.Neq -> V_bool (not (values_equal pos l r))
      | Ast.And | Ast.Or -> assert false)

and values_equal pos a b =
  match (a, b) with
  | V_int x, V_int y -> x = y
  | V_bool x, V_bool y -> x = y
  | V_string x, V_string y -> x = y
  | _ -> error pos "cannot compare %s with %s" (describe_value a) (describe_value b)

and eval_call state frame pos name args =
  let values () = List.map (eval state frame) args in
  match name with
  | "load" -> (
      match values () with
      | [ V_string path ] -> (
          match Graphs.Graph_io.load path with
          | el -> V_edgeset (Csr.of_edge_list el)
          | exception (Failure msg | Sys_error msg) ->
              error pos "load(%S) failed: %s" path msg)
      | _ -> error pos "load expects a path string")
  | "symmetrize" -> (
      match values () with
      | [ V_edgeset g ] ->
          V_edgeset (Csr.of_edge_list (Graphs.Edge_list.symmetrized (Csr.to_edge_list g)))
      | _ -> error pos "symmetrize expects an edgeset")
  | "atoi" -> (
      match values () with
      | [ V_string s ] -> (
          match int_of_string_opt (String.trim s) with
          | Some i -> V_int i
          | None -> error pos "atoi: %S is not an integer" s)
      | _ -> error pos "atoi expects a string")
  | "print" ->
      let rendered = String.concat " " (List.map string_of_value (values ())) in
      state.printed <- rendered :: state.printed;
      V_unit
  | _ -> (
      match Hashtbl.find_opt state.externs name with
      | Some fn -> fn (values ())
      | None ->
          if Ast.find_func state.lowered.Lower.program name <> None then
            error pos
              "user function %S can only be passed to applyUpdatePriority" name
          else error pos "unknown function %S" name)

and eval_method state frame pos receiver name args =
  let is_pq =
    match (receiver.Ast.desc, state.lowered.Lower.analysis.Analysis.pq) with
    | Ast.Var v, Some info -> v = info.Analysis.pq_name
    | _, _ -> false
  in
  if is_pq then eval_pq_method state frame pos name args
  else begin
    let recv = eval state frame receiver in
    match (recv, name) with
    | V_edgeset g, "from" -> (
        match List.map (eval state frame) args with
        | [ V_vertexset s ] -> V_filtered_edges (g, s)
        | _ -> error pos "from() expects a vertexset")
    | V_edgeset g, "getOutDegrees" ->
        V_vector (Atomic_array.of_array (Csr.out_degrees_cached g))
    | V_edgeset g, "getMaxWeight" -> V_int (max 1 (Csr.max_weight g))
    | V_vertexset set, "getVertexSetSize" -> V_int (Vertex_subset.cardinal set)
    | V_vertexset set, "addVertex" -> (
        let v =
          match List.map (eval state frame) args with
          | [ V_int v ] -> v
          | _ -> error pos "addVertex expects a vertex"
        in
        let updated =
          if Vertex_subset.mem set v then set
          else
            Vertex_subset.of_array
              ~num_vertices:(Vertex_subset.num_vertices set)
              (Array.append (Vertex_subset.sparse_members set) [| v |])
        in
        (* addVertex mutates: rebind the receiver variable. *)
        match receiver.Ast.desc with
        | Ast.Var name -> (
            match List.assoc_opt name frame.locals with
            | Some r ->
                r := V_vertexset updated;
                V_unit
            | None ->
                if Hashtbl.mem state.globals name then begin
                  Hashtbl.replace state.globals name (V_vertexset updated);
                  V_unit
                end
                else error pos "unbound identifier %S" name)
        | _ -> error pos "addVertex requires a named vertexset")
    | (V_filtered_edges _ | V_edgeset _), "applyModified" -> (
        match args with
        | [ { Ast.desc = Ast.Var udf_name; _ }; { Ast.desc = Ast.Var vec_name; _ } ] ->
            apply_modified state frame pos recv udf_name vec_name
        | _ -> error pos "applyModified expects (function_name, tracked_vector)")
    | (V_filtered_edges _ | V_edgeset _), "applyUpdatePriority" -> (
        match args with
        | [ { Ast.desc = Ast.Var udf_name; _ } ] ->
            apply_update_priority state pos recv udf_name;
            V_unit
        | _ -> error pos "applyUpdatePriority expects a function name")
    | recv, _ -> error pos "%s has no method %S" (describe_value recv) name
  end

and eval_pq_method state frame pos name args =
  let pq = the_pq state pos in
  let int_arg i = as_int pos (eval state frame (List.nth args i)) in
  match (name, List.length args) with
  | "finished", 0 -> V_bool (Pq.finished pq)
  | "finishedVertex", 1 -> V_bool (Pq.finished_vertex pq (int_arg 0))
  | ("getCurrentPriority" | "get_current_priority"), 0 -> V_int (Pq.current_priority pq)
  | "dequeueReadySet", 0 ->
      if Pq.finished pq then error pos "dequeueReadySet on a finished queue";
      V_vertexset (Pq.dequeue_ready_set pq)
  | "updatePriorityMin", (2 | 3) ->
      (* (vertex, [old_value,] new_value) — the middle argument of the
         3-ary form (Fig. 3) is informational. *)
      let v = int_arg 0 in
      let new_val = int_arg (List.length args - 1) in
      Pq.update_priority_min pq frame.ctx v new_val;
      V_unit
  | "updatePriorityMax", (2 | 3) ->
      let v = int_arg 0 in
      let new_val = int_arg (List.length args - 1) in
      Pq.update_priority_max pq frame.ctx v new_val;
      V_unit
  | "updatePrioritySum", (2 | 3) ->
      let v = int_arg 0 in
      let diff = int_arg 1 in
      let floor = if List.length args = 3 then int_arg 2 else 0 in
      Pq.update_priority_sum pq frame.ctx v ~diff ~floor;
      V_unit
  | _, _ -> error pos "bad priority-queue call %s/%d" name (List.length args)

(* One parallel push round applying [udf_name] to the out-edges of a vertex
   subset — the generic interpretation of [applyUpdatePriority] used when
   the loop was not replaced by the engine. *)
and apply_update_priority state pos recv udf_name =
  let graph, subset =
    match recv with
    | V_filtered_edges (g, s) -> (g, s)
    | V_edgeset g -> (g, Vertex_subset.full ~num_vertices:(Csr.num_vertices g))
    | _ -> assert false
  in
  let edge_fn = compile_udf state pos udf_name in
  ignore
    (Edge_map.run (scratch_for state graph) ~graph ~direction:Edge_map.Push
       subset ~f:edge_fn)

(* The unordered GraphIt operator: apply the user function to the out-edges
   of a subset and return the set of destinations whose tracked vector
   changed — the frontier of the next unordered iteration. *)
and apply_modified state frame pos recv udf_name vec_name =
  let graph, subset =
    match recv with
    | V_filtered_edges (g, s) -> (g, s)
    | V_edgeset g -> (g, Vertex_subset.full ~num_vertices:(Csr.num_vertices g))
    | _ -> assert false
  in
  let tracked = as_vector pos (lookup state frame pos vec_name) in
  let scratch = scratch_for state graph in
  let buffer = Scratch.buffer scratch in
  let edge_fn = compile_udf state pos udf_name in
  (* Snapshot-free change tracking: compare the tracked cell around the
     user-function application (reductions are atomic, so a change by any
     worker is observed by at least the worker that made it). *)
  let f ctx ~src ~dst ~weight =
    let before = Atomic_array.get tracked dst in
    edge_fn ctx ~src ~dst ~weight;
    if Atomic_array.get tracked dst <> before then
      ignore (Bucketing.Update_buffer.try_add buffer ~tid:ctx.Pq.tid dst)
  in
  ignore (Edge_map.run scratch ~graph ~direction:Edge_map.Push subset ~f);
  V_vertexset (Scratch.drain_frontier scratch)

(* Compile a user function to an engine edge function: a closure that binds
   the parameters and interprets the body. *)
and compile_udf state pos udf_name : Engine.edge_fn =
  match Ast.find_func state.lowered.Lower.program udf_name with
  | None -> error pos "unknown user function %S" udf_name
  | Some f ->
      let param_names = List.map fst f.Ast.params in
      let body = f.Ast.body in
      fun ctx ~src ~dst ~weight ->
        let locals =
          match param_names with
          | [ s; d ] -> [ (s, ref (V_int src)); (d, ref (V_int dst)) ]
          | [ s; d; w ] ->
              [ (s, ref (V_int src)); (d, ref (V_int dst)); (w, ref (V_int weight)) ]
          | _ -> error f.Ast.fpos "user function %s must take 2 or 3 parameters" udf_name
        in
        let frame = { locals; ctx } in
        exec_block state frame body

(* ---------------- statement execution ---------------- *)

and exec_stmt state frame (s : Ast.stmt) =
  let pos = s.Ast.spos in
  match s.Ast.sdesc with
  | Ast.S_var_decl (name, _typ, init) ->
      let v = match init with Some e -> eval state frame e | None -> V_int 0 in
      frame.locals <- (name, ref v) :: frame.locals
  | Ast.S_assign (name, { Ast.desc = Ast.New_priority_queue _; pos = npos }) ->
      construct_pq state frame npos name
  | Ast.S_assign (name, e) -> (
      let v = eval state frame e in
      match List.assoc_opt name frame.locals with
      | Some r -> r := v
      | None ->
          if Hashtbl.mem state.globals name then Hashtbl.replace state.globals name v
          else error pos "unbound identifier %S" name)
  | Ast.S_index_assign (vec_name, idx, e) ->
      let vec = as_vector pos (lookup state frame pos vec_name) in
      let i = as_int pos (eval state frame idx) in
      let v = as_int pos (eval state frame e) in
      if i < 0 || i >= Atomic_array.length vec then
        error pos "vector index %d out of range for %s" i vec_name;
      Atomic_array.set vec i v
  | Ast.S_reduce_assign (rd, vec_name, idx, e) -> (
      let vec = as_vector pos (lookup state frame pos vec_name) in
      let i = as_int pos (eval state frame idx) in
      let v = as_int pos (eval state frame e) in
      if i < 0 || i >= Atomic_array.length vec then
        error pos "vector index %d out of range for %s" i vec_name;
      (* Dependence analysis inserted atomics: reduction assignments into
         shared vectors race across edges under push traversal. *)
      match rd with
      | Ast.Rd_min ->
          if frame.ctx.Pq.use_atomics then ignore (Atomic_array.fetch_min vec i v)
          else if v < Atomic_array.get vec i then Atomic_array.set vec i v
      | Ast.Rd_max ->
          if frame.ctx.Pq.use_atomics then ignore (Atomic_array.fetch_max vec i v)
          else if v > Atomic_array.get vec i then Atomic_array.set vec i v
      | Ast.Rd_plus ->
          if frame.ctx.Pq.use_atomics then ignore (Atomic_array.fetch_add vec i v)
          else Atomic_array.set vec i (Atomic_array.get vec i + v))
  | Ast.S_expr e -> ignore (eval state frame e)
  | Ast.S_while (cond, body) -> exec_while state frame pos cond body
  | Ast.S_if (cond, then_branch, else_branch) ->
      if as_bool pos (eval state frame cond) then exec_block_in_scope state frame then_branch
      else exec_block_in_scope state frame else_branch
  | Ast.S_delete name -> frame.locals <- List.remove_assoc name frame.locals

and exec_block state frame stmts = List.iter (exec_stmt state frame) stmts

and exec_block_in_scope state frame stmts =
  let saved = frame.locals in
  exec_block state frame stmts;
  frame.locals <- saved

and exec_while state frame pos cond body =
  let program = state.lowered.Lower.program in
  let matched =
    match state.lowered.Lower.analysis.Analysis.pq with
    | Some info when state.transform ->
        Analysis.match_while program ~pq_name:info.Analysis.pq_name ~cond ~body
    | Some _ | None -> Ok None
  in
  match matched with
  | Ok (Some loop) -> run_ordered_loop state frame pos loop
  | Ok None | Error _ ->
      (* An ordinary while loop: interpret it. *)
      let continue = ref true in
      while !continue do
        if as_bool pos (eval state frame cond) then exec_block_in_scope state frame body
        else continue := false
      done

(* The §5.2 transformation at execution time: the matched loop runs through
   the ordered processing operator. *)
and run_ordered_loop state frame pos (loop : Analysis.ordered_loop) =
  let pq = the_pq state pos in
  let graph =
    as_edgeset pos (lookup state frame pos loop.Analysis.edgeset_name)
  in
  let schedule = state.lowered.Lower.loop_schedule in
  let handle =
    match state.handle with
    | Some h when Graphs.Handle.csr h == graph -> h
    | _ ->
        let h = Graphs.Handle.create graph in
        state.handle <- Some h;
        h
  in
  let edge_fn = compile_udf state pos loop.Analysis.udf.Analysis.udf_name in
  let stop =
    match loop.Analysis.stop_vertex with
    | None -> None
    | Some e ->
        let v = as_int pos (eval state frame e) in
        Some (fun () -> Pq.finished_vertex pq v)
  in
  let stats = Engine.run ~pool:state.pool ~handle ~schedule ~pq ~edge_fn ?stop () in
  state.stats <- Some stats

and construct_pq state frame pos name =
  let analysis = state.lowered.Lower.analysis in
  let info =
    match analysis.Analysis.pq with
    | Some info -> info
    | None -> error pos "program declares no priority queue"
  in
  if name <> info.Analysis.pq_name then
    error pos "priority queue must be assigned to %S" info.Analysis.pq_name;
  let priorities =
    match Hashtbl.find_opt state.globals info.Analysis.priority_vector with
    | Some (V_vector a) -> a
    | _ -> error pos "priority vector %S is not a vector" info.Analysis.priority_vector
  in
  let initial =
    match info.Analysis.start_vertex with
    | Some e -> Pq.Start_vertex (as_int pos (eval state frame e))
    | None -> Pq.All_vertices
  in
  let schedule =
    match analysis.Analysis.loop with
    | Some _ when state.transform -> state.lowered.Lower.loop_schedule
    | Some _ | None ->
        (* Generic programs (and the transform-disabled reference lane)
           drive the queue directly; only the lazy backend filters
           staleness at extraction, so force it. *)
        { state.lowered.Lower.loop_schedule with Schedule.strategy = Schedule.Lazy }
  in
  let constant_sum_delta =
    match (schedule.Schedule.strategy, analysis.Analysis.loop) with
    | Schedule.Lazy_constant_sum, Some loop ->
        loop.Analysis.udf.Analysis.constant_sum_diff
    | _ -> None
  in
  let pq =
    Pq.create ~schedule ~num_workers:(Pool.num_workers state.pool)
      ~direction:info.Analysis.direction
      ~allow_coarsening:info.Analysis.allow_coarsening ~priorities ~initial
      ?constant_sum_delta ~pool:state.pool ()
  in
  state.pq <- Some pq;
  Hashtbl.replace state.globals name (V_pq pq)

(* ---------------- globals ---------------- *)

let graph_vertices state pos =
  let n = ref (-1) in
  Hashtbl.iter
    (fun _ v ->
      match v with
      | V_edgeset g -> n := max !n (Csr.num_vertices g)
      | _ -> ())
    state.globals;
  if !n < 0 then
    error pos "a vector was declared before any edgeset was loaded, so its size is unknown";
  !n

let init_const state (c : Ast.const_decl) =
  let pos = c.Ast.cpos in
  let frame = { locals = []; ctx = sequential_ctx } in
  let value =
    match (c.Ast.ctyp, c.Ast.cinit) with
    | Ast.T_priority_queue _, _ -> V_unit (* constructed in main *)
    | Ast.T_vector (_, Ast.T_int), init -> (
        match Option.map (eval state frame) init with
        | Some (V_vector a) -> V_vector a
        | Some (V_int fill) -> V_vector (Atomic_array.make (graph_vertices state pos) fill)
        | None -> V_vector (Atomic_array.make (graph_vertices state pos) 0)
        | Some v -> error pos "cannot initialize a vector from %s" (describe_value v))
    | _, Some init -> eval state frame init
    | _, None -> V_int 0
  in
  Hashtbl.replace state.globals c.Ast.cname value

let run lowered ~pool ~argv ?(externs = []) ?(transform = true) () =
  let state =
    {
      lowered;
      pool;
      argv;
      transform;
      externs = Hashtbl.create 8;
      globals = Hashtbl.create 16;
      pq = None;
      stats = None;
      handle = None;
      printed = [];
      scratch = None;
    }
  in
  List.iter (fun (name, fn) -> Hashtbl.replace state.externs name fn) externs;
  List.iter (init_const state) lowered.Lower.program.Ast.consts;
  let main =
    match Ast.find_func lowered.Lower.program "main" with
    | Some f -> f
    | None -> error Pos.dummy "program has no main function"
  in
  let frame = { locals = []; ctx = sequential_ctx } in
  exec_block state frame main.Ast.body;
  let vectors =
    Hashtbl.fold
      (fun name v acc ->
        match v with
        | V_vector a -> (name, Atomic_array.to_array a) :: acc
        | _ -> acc)
      state.globals []
    |> List.sort compare
  in
  { vectors; stats = state.stats; printed = List.rev state.printed }
