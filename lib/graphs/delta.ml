(* Batched edge mutations against an immutable CSR.

   A batch is an ordered list of inserts/deletes/reweights; [apply]
   materializes a fresh CSR (the input is never mutated — snapshot
   pinning in [Versioned] depends on that). Untouched adjacency lists
   are blit-copied; only vertices named as a source by some op pay the
   per-edge merge, so a small batch against a large graph costs one
   O(m) array copy plus work proportional to the touched lists.

   [plan] computes the affected set for incremental recompute: the
   conservative dirty closure (vertices whose previous distance may no
   longer be achievable) plus the seed candidates that re-anchor the
   priority structures at the clean/dirty boundary. It is parameterized
   by [~null] so this library stays independent of the bucketing
   layer's sentinel. *)

type op =
  | Insert of { src : int; dst : int; weight : int }
  | Delete of { src : int; dst : int }
  | Reweight of { src : int; dst : int; weight : int }

type batch = op array

let op_src = function
  | Insert { src; _ } | Delete { src; _ } | Reweight { src; _ } -> src

let op_dst = function
  | Insert { dst; _ } | Delete { dst; _ } | Reweight { dst; _ } -> dst

let validate ~num_vertices (batch : batch) =
  let check_vertex what v =
    if v < 0 || v >= num_vertices then
      Error (Printf.sprintf "%s %d out of range [0, %d)" what v num_vertices)
    else Ok ()
  in
  let rec go i =
    if i >= Array.length batch then Ok ()
    else
      let op = batch.(i) in
      match check_vertex "src" (op_src op) with
      | Error _ as e -> e
      | Ok () -> (
          match check_vertex "dst" (op_dst op) with
          | Error _ as e -> e
          | Ok () -> (
              match op with
              | Insert { weight; _ } | Reweight { weight; _ } ->
                  if weight <= 0 then Error "weight must be positive" else go (i + 1)
              | Delete _ -> go (i + 1)))
  in
  go 0

let size (batch : batch) = Array.length batch

(* Flip every op for transpose-side application. *)
let reverse (batch : batch) : batch =
  Array.map
    (function
      | Insert { src; dst; weight } -> Insert { src = dst; dst = src; weight }
      | Delete { src; dst } -> Delete { src = dst; dst = src }
      | Reweight { src; dst; weight } -> Reweight { src = dst; dst = src; weight })
    batch

let apply (csr : Csr.t) (batch : batch) : Csr.t =
  let n = Csr.num_vertices csr in
  (match validate ~num_vertices:n batch with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Delta.apply: " ^ msg));
  (* Group ops by source, preserving batch order within each list. *)
  let by_src : (int, op list) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun op ->
      let s = op_src op in
      let prev = try Hashtbl.find by_src s with Not_found -> [] in
      Hashtbl.replace by_src s (op :: prev))
    batch;
  (* New adjacency per touched source: replay the ops in order against the
     existing (dst, weight) list, then re-sort by target so the CSR
     invariant (binary-searchable neighbor lists) survives mutation. *)
  let touched : (int, (int * int) array) Hashtbl.t =
    Hashtbl.create (Hashtbl.length by_src)
  in
  Hashtbl.iter
    (fun u ops ->
      let adj =
        ref (List.rev (Csr.fold_out csr u (fun acc dst w -> (dst, w) :: acc) []))
      in
      List.iter
        (fun op ->
          match op with
          | Insert { dst; weight; _ } -> adj := (dst, weight) :: !adj
          | Delete { dst; _ } -> adj := List.filter (fun (d, _) -> d <> dst) !adj
          | Reweight { dst; weight; _ } ->
              adj := List.map (fun (d, w) -> if d = dst then (d, weight) else (d, w)) !adj)
        (List.rev ops);
      let arr = Array.of_list !adj in
      Array.sort compare arr;
      Hashtbl.replace touched u arr)
    by_src;
  let offsets = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let deg =
      match Hashtbl.find_opt touched u with
      | Some arr -> Array.length arr
      | None -> Csr.out_degree csr u
    in
    offsets.(u + 1) <- offsets.(u) + deg
  done;
  let m = offsets.(n) in
  let targets = Csr.create_edges m in
  let weights = Csr.create_edges m in
  let old_offsets = Csr.offsets csr in
  let old_targets = Csr.targets csr in
  let old_weights = Csr.weights csr in
  for u = 0 to n - 1 do
    let lo = offsets.(u) in
    match Hashtbl.find_opt touched u with
    | Some arr ->
        Array.iteri
          (fun i (dst, w) ->
            targets.{lo + i} <- dst;
            weights.{lo + i} <- w)
          arr
    | None ->
        let shift = old_offsets.(u) - lo in
        for i = lo to offsets.(u + 1) - 1 do
          Bigarray.Array1.unsafe_set targets i
            (Bigarray.Array1.unsafe_get old_targets (i + shift));
          Bigarray.Array1.unsafe_set weights i
            (Bigarray.Array1.unsafe_get old_weights (i + shift))
        done
  done;
  Csr.unsafe_of_arrays ~num_vertices:n ~offsets ~targets ~weights

(* ------------------------------------------------------------------ *)
(* Affected-set planning for incremental recompute                     *)

type plan = {
  dirty : int array;
      (* vertices whose previous distance must be discarded (reset to
         [null]) before re-running; sorted ascending *)
  seeds : (int * int) list;
      (* (vertex, candidate distance) pairs re-anchoring the priority
         structures: the clean→dirty boundary of the new graph, plus
         improving-op candidates into clean vertices *)
  affected : int; (* |dirty| + |seeds| — the fallback-threshold measure *)
}

let plan ~old_csr ~new_csr (batch : batch) ~dist ~null =
  let n = Csr.num_vertices old_csr in
  if Array.length dist <> n then invalid_arg "Delta.plan: dist length mismatch";
  let dirty = Array.make n false in
  (* Seeds of the dirty closure: targets of removed or raised edges whose
     previous distance was supported through that edge. Conservative — a
     vertex with another intact tight predecessor is still marked, which
     only costs recomputation, never correctness. *)
  let queue = Queue.create () in
  let mark v =
    if not dirty.(v) then begin
      dirty.(v) <- true;
      Queue.add v queue
    end
  in
  Array.iter
    (fun op ->
      match op with
      | Insert _ -> ()
      | Delete { src = u; dst = v } ->
          if dist.(u) <> null && dist.(v) <> null then
            Csr.iter_out old_csr u (fun d w ->
                if d = v && dist.(v) = dist.(u) + w then mark v)
      | Reweight { src = u; dst = v; weight = w_new } ->
          if dist.(u) <> null && dist.(v) <> null then
            Csr.iter_out old_csr u (fun d w_old ->
                if d = v && w_new > w_old && dist.(v) = dist.(u) + w_old then
                  mark v))
    batch;
  (* Close over the old graph: a vertex supported by a dirty predecessor
     through a tight edge loses its support too. Forward propagation over
     out-edges reaches exactly the tight successors, so no transpose is
     needed. *)
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    Csr.iter_out old_csr u (fun v w ->
        if (not dirty.(v)) && dist.(v) <> null && dist.(u) <> null
           && dist.(v) = dist.(u) + w
        then mark v)
  done;
  (* Boundary seeds: every new-graph edge from a clean, reached vertex
     into a dirty one proposes a candidate distance. Inserted edges are
     part of the new graph, so this scan covers them for dirty targets;
     improving ops into clean targets are proposed explicitly below. *)
  let seeds = ref [] in
  let num_dirty = ref 0 in
  for u = 0 to n - 1 do
    if dirty.(u) then incr num_dirty
    else if dist.(u) <> null then
      Csr.iter_out new_csr u (fun v w ->
          if dirty.(v) then seeds := (v, dist.(u) + w) :: !seeds)
  done;
  (* Each improving op proposes the edge as it stands in the new graph: a
     later op of the same batch may have deleted or reweighted it, and a
     reweight of an edge an earlier op deleted is a no-op. *)
  Array.iter
    (fun op ->
      match op with
      | Delete _ -> ()
      | Insert { src = u; dst = v; _ } | Reweight { src = u; dst = v; _ } ->
          if (not dirty.(u)) && (not dirty.(v)) && dist.(u) <> null then
            Csr.iter_out new_csr u (fun d w ->
                let cand = dist.(u) + w in
                if d = v && (dist.(v) = null || cand < dist.(v)) then
                  seeds := (v, cand) :: !seeds))
    batch;
  let dirty_list = ref [] in
  for v = n - 1 downto 0 do
    if dirty.(v) then dirty_list := v :: !dirty_list
  done;
  let dirty = Array.of_list !dirty_list in
  { dirty; seeds = !seeds; affected = !num_dirty + List.length !seeds }

(* ------------------------------------------------------------------ *)
(* Printable form for repro lines                                      *)

let op_to_string = function
  | Insert { src; dst; weight } -> Printf.sprintf "i:%d-%d-%d" src dst weight
  | Delete { src; dst } -> Printf.sprintf "d:%d-%d" src dst
  | Reweight { src; dst; weight } -> Printf.sprintf "r:%d-%d-%d" src dst weight

let to_string (batch : batch) =
  String.concat "," (Array.to_list (Array.map op_to_string batch))

let op_of_string s =
  match String.split_on_char ':' s with
  | [ tag; rest ] -> (
      match (tag, String.split_on_char '-' rest) with
      | "i", [ a; b; c ] -> (
          match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
          | Some src, Some dst, Some weight -> Ok (Insert { src; dst; weight })
          | _ -> Error (Printf.sprintf "bad insert op %S" s))
      | "d", [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some src, Some dst -> Ok (Delete { src; dst })
          | _ -> Error (Printf.sprintf "bad delete op %S" s))
      | "r", [ a; b; c ] -> (
          match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
          | Some src, Some dst, Some weight -> Ok (Reweight { src; dst; weight })
          | _ -> Error (Printf.sprintf "bad reweight op %S" s))
      | _ -> Error (Printf.sprintf "unknown delta op %S" s))
  | _ -> Error (Printf.sprintf "unknown delta op %S" s)

let of_string s =
  if String.trim s = "" then Ok [||]
  else
    let parts = String.split_on_char ',' (String.trim s) in
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | p :: rest -> (
          match op_of_string p with
          | Ok op -> go (op :: acc) rest
          | Error _ as e -> e)
    in
    go [] parts
