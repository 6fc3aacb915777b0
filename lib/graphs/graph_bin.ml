(* Versioned binary graph container, loaded via mmap.

   Multi-million-vertex graphs should load in milliseconds, not re-parse
   an edge-list text file (integer parsing + a counting sort per load).
   The format stores the already-built CSR arrays — plain or compressed —
   so loading is one [Unix.map_file] plus a straight-line copy into the
   graph's arrays, bounded by memory bandwidth rather than parsing.

   Layout (all multi-byte fields little-endian; see docs/INTERNALS.md):

     bytes  0..7   magic "GRAPHBIN"
     bytes  8..15  u64 version (currently 1)
     bytes 16..23  u64 endianness marker 0x0102030405060708
     bytes 24..31  u64 layout: 0 = plain CSR, 1 = compressed CSR
     bytes 32..39  u64 n (vertices)
     bytes 40..47  u64 m (edges)
     bytes 48..55  u64 aux: 0 for plain; compressed-data byte length
     bytes 56..63  u64 reserved (0)

   Plain payload:       offsets[n+1] targets[m] weights[m], each i64 LE.
   Compressed payload:  degrees[n] starts[n+1] (i64 LE), then the varint
                        byte stream ([aux] bytes).

   Endianness rule: the payload is always little-endian on disk. The
   loader byte-swaps on big-endian hosts; the marker field exists so a
   v1 file written by a hypothetical BE writer is rejected loudly instead
   of decoded as garbage. Version rule: readers reject any version they
   do not know; additions must bump the version. *)

let magic = "GRAPHBIN"
let version = 1
let endian_marker = 0x0102030405060708L
let header_bytes = 64
let layout_code = function Layout.Plain -> 0 | Layout.Compressed -> 1

let invalid path msg = failwith (Printf.sprintf "%s: %s" path msg)

(* ---- writing ---- *)

(* Buffered little-endian writer: one [Bytes] chunk reused across the
   whole array so huge graphs do not allocate per element. *)
let write_ints oc len get =
  let chunk_elts = 8192 in
  let buf = Bytes.create (8 * chunk_elts) in
  let pos = ref 0 in
  while !pos < len do
    let count = min chunk_elts (len - !pos) in
    for i = 0 to count - 1 do
      Bytes.set_int64_le buf (8 * i) (Int64.of_int (get (!pos + i)))
    done;
    output oc buf 0 (8 * count);
    pos := !pos + count
  done

let write_int_array oc a = write_ints oc (Array.length a) (Array.unsafe_get a)

let write_edges oc (e : Csr.edges) =
  write_ints oc (Bigarray.Array1.dim e) (fun i -> Bigarray.Array1.unsafe_get e i)

let write_header oc ~layout ~n ~m ~aux =
  let h = Bytes.make header_bytes '\000' in
  Bytes.blit_string magic 0 h 0 8;
  Bytes.set_int64_le h 8 (Int64.of_int version);
  Bytes.set_int64_le h 16 endian_marker;
  Bytes.set_int64_le h 24 (Int64.of_int (layout_code layout));
  Bytes.set_int64_le h 32 (Int64.of_int n);
  Bytes.set_int64_le h 40 (Int64.of_int m);
  Bytes.set_int64_le h 48 (Int64.of_int aux);
  output_bytes oc h

let save path ?(layout = Layout.Plain) csr =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let n = Csr.num_vertices csr and m = Csr.num_edges csr in
      match layout with
      | Layout.Plain ->
          write_header oc ~layout ~n ~m ~aux:0;
          write_int_array oc (Csr.offsets csr);
          write_edges oc (Csr.targets csr);
          write_edges oc (Csr.weights csr)
      | Layout.Compressed ->
          let c = Csr_compressed.of_csr csr in
          let data = Csr_compressed.data c in
          write_header oc ~layout ~n ~m ~aux:(Bytes.length data);
          write_int_array oc (Csr_compressed.degrees c);
          write_int_array oc (Csr_compressed.starts c);
          output_bytes oc data)

(* ---- loading ---- *)

let get_u64_le b off =
  let v = Bytes.get_int64_le b off in
  match Int64.unsigned_to_int v with
  | Some v -> v
  | None -> failwith "field out of int range"

let swap64 v =
  let open Int64 in
  let b k = shift_left (logand (shift_right_logical v (k * 8)) 0xFFL) ((7 - k) * 8) in
  logor (b 0)
    (logor (b 1)
       (logor (b 2) (logor (b 3) (logor (b 4) (logor (b 5) (logor (b 6) (b 7)))))))

(* One i64 Bigarray view over the whole payload region (Unix.map_file
   handles non-page-aligned [pos] internally), copied out with a straight
   swap-free loop on little-endian hosts: per-vertex arrays into int
   arrays, per-edge arrays into {!Csr.edges}. The map itself is not kept. *)
type map = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let[@inline] read_int (map : map) i =
  let v = Bigarray.Array1.unsafe_get map i in
  Int64.to_int (if Sys.big_endian then swap64 v else v)

let copy_ints map ~off ~len = Array.init len (fun i -> read_int map (off + i))

let copy_edges map ~off ~len =
  let e = Csr.create_edges len in
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set e i (read_int map (off + i))
  done;
  e

(* Maps and copies the payload after the header checks; the structural
   check is left to the caller, which knows what it decodes next. *)
let load_unchecked path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      if size < header_bytes then invalid path "not a graph binary (too short)";
      let header = Bytes.create header_bytes in
      let read = Unix.read fd header 0 header_bytes in
      if read <> header_bytes then invalid path "short header read";
      if Bytes.sub_string header 0 8 <> magic then
        invalid path "bad magic (not a GRAPHBIN file)";
      let v = get_u64_le header 8 in
      if v <> version then
        invalid path (Printf.sprintf "unsupported version %d (expected %d)" v version);
      if Bytes.get_int64_le header 16 <> endian_marker then
        invalid path "endianness marker mismatch (payload not little-endian)";
      let layout = get_u64_le header 24 in
      let n = get_u64_le header 32 in
      let m = get_u64_le header 40 in
      let aux = get_u64_le header 48 in
      (* Bound the counts by the file size before any arithmetic on them,
         so [8 * words] below cannot overflow. Every vertex costs at least
         one word and every edge at least one byte in either layout. *)
      if n > size / 8 || m > size || aux > size then
        invalid path "header counts exceed the file size";
      let need_payload words extra =
        let need = header_bytes + (8 * words) + extra in
        if size < need then
          invalid path
            (Printf.sprintf "truncated payload (%d bytes, need %d)" size need)
      in
      let map_words words =
        Bigarray.array1_of_genarray
          (Unix.map_file fd ~pos:(Int64.of_int header_bytes) Bigarray.int64
             Bigarray.c_layout false [| words |])
      in
      match layout with
      | 0 ->
          let words = n + 1 + (2 * m) in
          need_payload words 0;
          let map = map_words words in
          let offsets = copy_ints map ~off:0 ~len:(n + 1) in
          let targets = copy_edges map ~off:(n + 1) ~len:m in
          let weights = copy_edges map ~off:(n + 1 + m) ~len:m in
          Layout.Plain_graph
            (Csr.unsafe_of_arrays ~num_vertices:n ~offsets ~targets ~weights)
      | 1 ->
          let words = n + (n + 1) in
          need_payload words aux;
          let map = map_words words in
          let degrees = copy_ints map ~off:0 ~len:n in
          let starts = copy_ints map ~off:n ~len:(n + 1) in
          let data = Bytes.create aux in
          if aux > 0 then begin
            let bytes_map =
              Bigarray.array1_of_genarray
                (Unix.map_file fd
                   ~pos:(Int64.of_int (header_bytes + (8 * words)))
                   Bigarray.char Bigarray.c_layout false [| aux |])
            in
            for i = 0 to aux - 1 do
              Bytes.unsafe_set data i (Bigarray.Array1.unsafe_get bytes_map i)
            done
          end;
          Layout.Compressed_graph
            (Csr_compressed.unsafe_of_parts ~num_vertices:n ~num_edges:m
               ~degrees ~starts ~data)
      | l -> invalid path (Printf.sprintf "unknown layout code %d" l))

let checked path = function Ok g -> g | Error msg -> invalid path msg

let load path =
  let g = load_unchecked path in
  checked path
    (Result.map
       (fun () -> g)
       (match g with
       | Layout.Plain_graph c -> Csr.validate c
       | Layout.Compressed_graph c -> Csr_compressed.validate c))

(* A compressed file is decoded once, with bounds checks, straight into
   the plain arrays that are then checked: validating the streams first
   and converting afterwards would decode every stream twice. *)
let load_csr path =
  checked path
    (match load_unchecked path with
    | Layout.Plain_graph g -> Result.map (fun () -> g) (Csr.validate g)
    | Layout.Compressed_graph g -> Csr_compressed.to_csr_checked g)

let is_graph_bin path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match really_input_string ic 8 with
          | s -> s = magic
          | exception End_of_file -> false)
