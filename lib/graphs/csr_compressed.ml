(* Ligra+-style delta/varint-compressed adjacency.

   Each vertex's neighbor list (sorted by destination id, as Csr builds it)
   is stored as a byte stream of (gap, weight) varint pairs:

   - the first destination is zigzag-encoded relative to the vertex id
     (neighbors cluster around their source after a locality-preserving
     reordering, so the delta is small and frequently one byte);
   - every later destination is encoded as the non-negative gap from its
     predecessor (0 for parallel edges);
   - each destination is followed by its weight as a plain varint.

   Byte offsets per vertex live in [starts] (n + 1 entries) and degrees in
   their own array: both are needed on hot paths (O(1) out_degree for the
   hybrid heuristic, random access for chunked sweeps) and together cost
   what one plain CSR offsets array did, while the edge payload shrinks
   from 16 bytes per edge to typically 2-4. *)

type t = {
  n : int;
  m : int;
  degrees : int array;
  starts : int array; (* byte offset of each vertex's stream; n + 1 entries *)
  data : Bytes.t;
}

(* ---- varint primitives (LEB128, low 7 bits first) ---- *)

let zigzag v = (v lsl 1) lxor (v asr (Sys.int_size - 1))
let unzigzag v = (v lsr 1) lxor (-(v land 1))

let rec write_varint buf v =
  if v < 0x80 then Buffer.add_char buf (Char.unsafe_chr v)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (v land 0x7f)));
    write_varint buf (v lsr 7)
  end

(* Decode one varint at [!pos], advancing it. The loop carries everything
   in registers; [Bytes.unsafe_get] keeps bounds checks off the per-edge
   path (offsets were validated at construction). *)
let[@inline] read_varint data pos =
  let b = Char.code (Bytes.unsafe_get data !pos) in
  incr pos;
  if b < 0x80 then b
  else begin
    let acc = ref (b land 0x7f) and shift = ref 7 in
    let continue = ref true in
    while !continue do
      let b = Char.code (Bytes.unsafe_get data !pos) in
      incr pos;
      acc := !acc lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      if b < 0x80 then continue := false
    done;
    !acc
  end

(* ---- construction ---- *)

let of_csr csr =
  let n = Csr.num_vertices csr in
  let m = Csr.num_edges csr in
  let degrees = Array.init n (fun u -> Csr.out_degree csr u) in
  let starts = Array.make (n + 1) 0 in
  let buf = Buffer.create (4 * m) in
  for u = 0 to n - 1 do
    starts.(u) <- Buffer.length buf;
    let prev = ref u and first = ref true in
    Csr.iter_out csr u (fun dst weight ->
        if !first then begin
          write_varint buf (zigzag (dst - u));
          first := false
        end
        else write_varint buf (dst - !prev);
        prev := dst;
        write_varint buf weight)
  done;
  starts.(n) <- Buffer.length buf;
  { n; m; degrees; starts; data = Buffer.to_bytes buf }

let unsafe_of_parts ~num_vertices ~num_edges ~degrees ~starts ~data =
  if Array.length degrees <> num_vertices then
    invalid_arg "Csr_compressed.unsafe_of_parts: degrees must have n entries";
  if Array.length starts <> num_vertices + 1 then
    invalid_arg "Csr_compressed.unsafe_of_parts: starts must have n + 1 entries";
  if num_vertices > 0 && starts.(num_vertices) <> Bytes.length data then
    invalid_arg "Csr_compressed.unsafe_of_parts: starts do not cover the data";
  { n = num_vertices; m = num_edges; degrees; starts; data }

(* A bounds-checked [read_varint] for untrusted streams: -1 when the varint
   runs past [stop] or does not fit a non-negative int. *)
let read_varint_within data pos stop =
  let rec go acc shift =
    if !pos >= stop || shift > 56 then -1
    else begin
      let b = Char.code (Bytes.get data !pos) in
      incr pos;
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b >= 0x80 then go acc (shift + 7) else if acc < 0 then -1 else acc
    end
  in
  go 0 0

exception Corrupt of string

let bad msg = raise (Corrupt msg)

(* The checks every walk over untrusted streams relies on: degrees that
   sum to [m], and [starts] monotone within the data, so each vertex's
   byte range [starts.(u), starts.(u + 1)) is a real slice of [data]. *)
let check_frame g =
  let n = g.n in
  let sum = ref 0 in
  Array.iter
    (fun d ->
      sum := !sum + d;
      if d < 0 || !sum > g.m then bad "degrees exceed the edge count")
    g.degrees;
  if !sum <> g.m then bad "degrees do not sum to the edge count";
  if g.starts.(0) < 0 || g.starts.(n) > Bytes.length g.data then
    bad "starts lie outside the data";
  for u = 0 to n - 1 do
    if g.starts.(u + 1) < g.starts.(u) then bad "starts are not monotone"
  done

let corrupt u = bad (Printf.sprintf "vertex %d: edge stream is corrupt" u)

(* Decodes every stream with bounds checks, handing each edge to
   [f u dst weight]; raises [Corrupt] on a malformed frame or stream. *)
let iter_checked g f =
  check_frame g;
  for u = 0 to g.n - 1 do
    let pos = ref g.starts.(u) and stop = g.starts.(u + 1) in
    let dst = ref u in
    for k = 1 to g.degrees.(u) do
      let gap = read_varint_within g.data pos stop in
      let weight = read_varint_within g.data pos stop in
      if gap < 0 || weight < 0 then corrupt u;
      dst := if k = 1 then u + unzigzag gap else !dst + gap;
      f u !dst weight
    done
  done

let validate g =
  match
    iter_checked g (fun u dst _ -> if dst < 0 || dst >= g.n then corrupt u)
  with
  | () -> Ok ()
  | exception Corrupt msg -> Error msg

let to_csr_checked g =
  let targets = Csr.create_edges g.m and weights = Csr.create_edges g.m in
  let k = ref 0 in
  match
    iter_checked g (fun _ dst weight ->
        targets.{!k} <- dst;
        weights.{!k} <- weight;
        incr k)
  with
  | exception Corrupt msg -> Error msg
  | () ->
      let offsets = Array.make (g.n + 1) 0 in
      for u = 0 to g.n - 1 do
        offsets.(u + 1) <- offsets.(u) + g.degrees.(u)
      done;
      let csr =
        Csr.unsafe_of_arrays ~num_vertices:g.n ~offsets ~targets ~weights
      in
      Result.map (fun () -> csr) (Csr.validate csr)

(* ---- accessors ---- *)

let num_vertices g = g.n
let num_edges g = g.m
let out_degree g u = Array.unsafe_get g.degrees u
let out_degrees g = g.degrees
let data_bytes g = Bytes.length g.data
let degrees g = g.degrees
let starts g = g.starts
let data g = g.data

let iter_out g u f =
  let deg = Array.unsafe_get g.degrees u in
  if deg > 0 then begin
    let pos = ref (Array.unsafe_get g.starts u) in
    let data = g.data in
    let dst = ref (u + unzigzag (read_varint data pos)) in
    f !dst (read_varint data pos);
    for _ = 2 to deg do
      dst := !dst + read_varint data pos;
      f !dst (read_varint data pos)
    done
  end

let fold_out g u f acc =
  let acc = ref acc in
  iter_out g u (fun dst weight -> acc := f !acc dst weight);
  !acc

let to_csr g =
  let offsets = Array.make (g.n + 1) 0 in
  for u = 0 to g.n - 1 do
    offsets.(u + 1) <- offsets.(u) + g.degrees.(u)
  done;
  let targets = Csr.create_edges g.m in
  let weights = Csr.create_edges g.m in
  for u = 0 to g.n - 1 do
    let k = ref offsets.(u) in
    iter_out g u (fun dst weight ->
        Bigarray.Array1.unsafe_set targets !k dst;
        Bigarray.Array1.unsafe_set weights !k weight;
        incr k)
  done;
  Csr.unsafe_of_arrays ~num_vertices:g.n ~offsets ~targets ~weights
