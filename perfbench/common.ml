(* Shared plumbing for the benchmark: clocks, percentiles, the result line,
   and the peak-memory probe. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, [q] in (0, 1]. *)
let percentile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

(* [VmHWM] of process [pid] in MiB: the resident-set high-water mark. *)
let peak_mem_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* The last stdout line: every metric by name with its unit, plus the
   operation tally. [metrics] is [(name, unit, value)], as {!Spec} gives
   them; a non-finite value is a harness bug and aborts the run.
   Human-readable lines go to stderr. Returns [correct], which decides
   the exit code. *)
let emit ~correct ~attempted ~failed metrics =
  let module J = Support.Json in
  List.iter
    (fun (name, unit, v) ->
      Printf.eprintf "  %-28s %14.4f %s\n" name v unit;
      if not (Float.is_finite v) then failwith ("metric " ^ name ^ " is not finite"))
    metrics;
  Printf.eprintf "  correct=%b attempted=%d failed=%d\n%!" correct attempted failed;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (name, unit, v) ->
                     (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
                   metrics) );
          ]));
  correct

(* Metrics histograms/counters read from an [Observe.Metrics] snapshot. *)
let counter snap name =
  Option.value ~default:0 (List.assoc_opt name snap.Observe.Metrics.counters)

let hist snap name = List.assoc_opt name snap.Observe.Metrics.histograms

let hist_total_s snap name =
  match hist snap name with
  | Some h -> float_of_int h.Observe.Metrics.total_ns /. 1e9
  | None -> 0.

let ratio a b = if b = 0 then nan else float_of_int a /. float_of_int b
