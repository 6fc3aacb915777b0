module Pool = Parallel.Pool
module Json = Support.Json

(* ---------------- shrinking ---------------- *)

type probes = { max : int; mutable used : int }

let probes ~max = { max; used = 0 }

(* Delta debugging over an array: try the empty array, then delete
   complements of [n] balanced chunks, refining [n] until single parts are
   tried. Every probe is one full judgement, so the budget bounds the cost
   of a shrink; a refused probe counts as "passes". *)
let ddmin probes fails parts =
  let fails candidate =
    probes.used <- probes.used + 1;
    probes.used <= probes.max && fails candidate
  in
  let rec go parts n =
    let len = Array.length parts in
    let n = min n len in
    if len < 2 then parts
    else
      let cut i = i * len / n in
      let complement i =
        Array.append (Array.sub parts 0 (cut i))
          (Array.sub parts (cut (i + 1)) (len - cut (i + 1)))
      in
      match Seq.find fails (Seq.init n complement) with
      | Some smaller -> go smaller (max 2 (n - 1))
      | None -> if n >= len then parts else go parts (2 * n)
  in
  if Array.length parts > 0 && fails [||] then [||] else go parts 2

(* ---------------- repro lines ---------------- *)

let shell_word w =
  let plain = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | '/' -> true
    | _ -> false
  in
  if w <> "" && String.for_all plain w then w
  else
    "'" ^ String.concat "'\\''" (String.split_on_char '\'' w) ^ "'"

let command_line words = String.concat " " ("check_runner" :: List.map shell_word words)

let repro_line ~seed ~chaos ~race ~mode ~graph ~workers ~schedule extra =
  command_line
    (mode
    @ [ "--seed"; string_of_int seed; "--graph"; graph ]
    @ [ "--workers"; string_of_int workers ]
    @ [ "--schedule"; Ordered.Schedule.to_string schedule ]
    @ extra
    @ (if chaos then [ "--chaos" ] else [])
    @ if race then [ "--race" ] else [])

(* ---------------- schedule grids ---------------- *)

let grid axes =
  List.fold_left (fun points axis -> List.concat_map axis points) [ Ordered.Schedule.default ] axes

let open_buckets (s : Ordered.Schedule.t) =
  List.map
    (fun num_open_buckets -> { s with num_open_buckets })
    (match s.strategy with Lazy | Lazy_constant_sum -> [ 32; 512 ] | _ -> [ 128 ])

let fusion_thresholds (s : Ordered.Schedule.t) =
  List.map
    (fun fusion_threshold -> { s with fusion_threshold })
    (match s.strategy with Eager_with_fusion -> [ 1; 1000 ] | _ -> [ 1000 ])

(* ---------------- the sweep loop ---------------- *)

type ('config, 'lane) failure = {
  original : 'config;
  shrunk : 'config;
  lane : 'lane;
  message : string;
  repro : string;
}

type ('config, 'lane) summary = {
  configs_run : int;
  failures : ('config, 'lane) failure list;
  elapsed_seconds : float;
  budget_exhausted : bool;
  race_findings : int;
}

type ('config, 'lane) sweep = {
  judge : pool:Pool.t -> 'config -> (unit, 'lane * string) result;
  shrink : pool:Pool.t -> 'config -> 'config;
  describe : 'config -> string;
  headline : 'lane -> string -> string;
  repro : 'config -> string;
}

let with_checks ~seed ~chaos ~race f =
  if chaos then Parallel.Chaos.enable ~seed;
  if race then begin
    Parallel.Race.clear ();
    Parallel.Race.enable ()
  end;
  Fun.protect
    ~finally:(fun () ->
      if chaos then Parallel.Chaos.disable ();
      if race then Parallel.Race.disable ())
    (fun () ->
      let result = f () in
      (result, if race then Parallel.Race.num_findings () else 0))

exception Stop

let run ~workers ~budget ~seed ~max_failures ~chaos ~race ~log sweep enumerate
    =
  let workers = List.sort_uniq compare workers in
  let start = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. start in
  let configs_run = ref 0 in
  let failures = ref [] in
  let budget_exhausted = ref false in
  let fail config lane message =
    log (Printf.sprintf "FAIL %s: %s" (sweep.describe config) (sweep.headline lane message))
  in
  let record (f : (_, _) failure) =
    log ("repro: " ^ f.repro);
    failures := f :: !failures;
    if List.length !failures >= max_failures then raise Stop
  in
  let ((), race_findings) =
    with_checks ~seed ~chaos ~race (fun () ->
        let pools = List.map (fun w -> (w, Pool.create ~num_workers:w ())) workers in
        let visit config judge =
          List.iter
            (fun (w, pool) ->
              if elapsed () > budget then begin
                budget_exhausted := true;
                raise Stop
              end;
              incr configs_run;
              let original = config w in
              match judge ~pool original with
              | Ok () -> ()
              | Error (lane, message) ->
                  fail original lane message;
                  let shrunk = sweep.shrink ~pool original in
                  let shrunk, lane, message =
                    if shrunk = original then (original, lane, message)
                    else
                      match sweep.judge ~pool shrunk with
                      | Error (lane, message) -> (shrunk, lane, message)
                      | Ok () -> (original, lane, message)
                  in
                  record { original; shrunk; lane; message; repro = sweep.repro shrunk })
            pools
        in
        let report config lane message =
          let original = config (fst (List.hd pools)) in
          fail original lane message;
          record
            { original; shrunk = original; lane; message; repro = sweep.repro original }
        in
        Fun.protect
          ~finally:(fun () -> List.iter (fun (_, p) -> Pool.shutdown p) pools)
          (fun () -> try enumerate ~visit ~report with Stop -> ()))
  in
  {
    configs_run = !configs_run;
    failures = List.rev !failures;
    elapsed_seconds = elapsed ();
    budget_exhausted = !budget_exhausted;
    race_findings;
  }

(* ---------------- output ---------------- *)

let summary_json ?mode ~seed ?(before = []) ?(after = []) failure s =
  Json.Obj
    (Option.to_list (Option.map (fun m -> ("mode", Json.String m)) mode)
    @ [ ("seed", Json.Int seed) ]
    @ before
    @ [ ("configs_run", Json.Int s.configs_run) ]
    @ after
    @ [
        ("failures", Json.List (List.map (fun f -> Json.Obj (failure f)) s.failures));
        ("race_findings", Json.Int s.race_findings);
        ("elapsed_seconds", Json.Float s.elapsed_seconds);
        ("budget_exhausted", Json.Bool s.budget_exhausted);
      ])

let emit ?json_path ?failures_path ~headline json s =
  print_endline (Json.to_string json);
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Format.fprintf (Format.formatter_of_out_channel oc) "%a@?" Json.pp json))
    json_path;
  Option.iter
    (fun path ->
      if s.failures <> [] then
        Out_channel.with_open_text path (fun oc ->
            List.iter
              (fun (f : (_, _) failure) ->
                Printf.fprintf oc "%s\n  %s\n" (headline f.lane f.message) f.repro)
              s.failures))
    failures_path;
  if s.failures <> [] || s.race_findings > 0 then 1 else 0

let replay ~seed ~chaos ~race ~workers run =
  let failed, findings =
    with_checks ~seed ~chaos ~race (fun () ->
        List.fold_left
          (fun failed w ->
            match run w with
            | Ok () ->
                Printf.printf "ok: %d workers\n" w;
                failed
            | Error msg ->
                Printf.printf "FAIL: %d workers: %s\n" w msg;
                true)
          false workers)
  in
  if findings > 0 then begin
    Printf.printf "race findings: %d\n" findings;
    List.iter
      (fun f -> Format.printf "  %a@." Parallel.Race.pp_finding f)
      (Parallel.Race.findings ())
  end;
  if failed || findings > 0 then 1 else 0
