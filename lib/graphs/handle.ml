(* A graph plus every derived form the engines keep re-deriving.

   Before this existed, each run rebuilt the transpose (an O(m log m)
   counting sort) and each compressed sweep would have re-encoded the
   byte streams. The handle owns one lazy cell per derived form, so a
   checker sweeping hundreds of schedules over one graph pays for each
   conversion exactly once. Lazy cells are forced from the orchestrating
   thread (engine setup, never inside a parallel episode), so the
   non-thread-safety of [Lazy] is not a hazard here. *)

type t = {
  csr : Csr.t;
  kind : Layout.kind;
  version : int;
  compressed : Csr_compressed.t Lazy.t;
  transpose_csr : Csr.t Lazy.t;
  transpose_compressed : Csr_compressed.t Lazy.t;
}

let create ?(kind = Layout.Plain) ?(version = 0) csr =
  let transpose_csr = lazy (Csr.transpose csr) in
  {
    csr;
    kind;
    version;
    compressed = lazy (Csr_compressed.of_csr csr);
    transpose_csr;
    transpose_compressed =
      lazy (Csr_compressed.of_csr (Lazy.force transpose_csr));
  }

let of_edge_list ?kind ?version el = create ?kind ?version (Csr.of_edge_list el)
let csr t = t.csr
let kind t = t.kind
let version t = t.version
let num_vertices t = Csr.num_vertices t.csr
let num_edges t = Csr.num_edges t.csr
let with_kind kind t = { t with kind }

(* The reversed view swaps the forward and transpose cells, so both
   directions keep sharing one transpose (plain and compressed) and
   reversing twice gives back the original cells. *)
let reverse t =
  {
    t with
    csr = Lazy.force t.transpose_csr;
    compressed = t.transpose_compressed;
    transpose_csr = Lazy.from_val t.csr;
    transpose_compressed = t.compressed;
  }

let resolve handle graph =
  match handle with
  | None -> create graph
  | Some t when t.csr == graph -> t
  | Some _ -> invalid_arg "Handle.resolve: ~handle does not wrap ~graph"
let compressed t = Lazy.force t.compressed
let transpose_csr t = Lazy.force t.transpose_csr

(* Force every lazy cell plus the CSR degree memo. Called by [Versioned]'s
   compaction on a handle it has not yet published, so the forcing happens
   on one thread and published handles are read-only thereafter. *)
let prewarm t =
  ignore (Lazy.force t.transpose_csr);
  ignore (Csr.out_degrees_cached t.csr);
  if t.kind = Layout.Compressed then begin
    ignore (Lazy.force t.compressed);
    ignore (Lazy.force t.transpose_compressed)
  end

let graph t =
  match t.kind with
  | Layout.Plain -> Layout.Plain_graph t.csr
  | Layout.Compressed -> Layout.Compressed_graph (Lazy.force t.compressed)

let transpose t =
  match t.kind with
  | Layout.Plain -> Layout.Plain_graph (Lazy.force t.transpose_csr)
  | Layout.Compressed ->
      Layout.Compressed_graph (Lazy.force t.transpose_compressed)
