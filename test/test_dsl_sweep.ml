(* The DSL differential sweep (Check.Dsl_case / Check.Dsl_sweep):

   - spec strings round-trip, so repro lines are self-contained;
   - every generated program renders to text that parses, typechecks,
     and survives the pretty-printer round trip (Parser -> Pretty ->
     Parser is identity under Ast.equal_program);
   - a clean mini-sweep over real programs and graphs finds nothing;
   - a grafted wrong lowering (--bug wrong-weight) is detected, ddmin
     shrinks the program to the bare skeleton (<= 5 statements) and the
     graph to a near-minimal case, and the resulting repro configuration
     still fails when replayed. *)

module Dsl_case = Check.Dsl_case
module Dsl_sweep = Check.Dsl_sweep
module Graph_case = Check.Graph_case
module Schedule = Ordered.Schedule
module Pool = Parallel.Pool

let with_pools f =
  Pool.with_pool ~num_workers:1 (fun ref_pool ->
      Pool.with_pool ~num_workers:2 (fun pool -> f ~pool ~ref_pool))

(* ---------------- spec strings ---------------- *)

let test_spec_roundtrip () =
  for seed = 0 to 3 do
    for i = 0 to 11 do
      let spec = Dsl_case.generate ~seed i in
      let s = Dsl_case.to_string spec in
      match Dsl_case.of_string s with
      | Ok spec' ->
          Alcotest.(check string) ("round trip of " ^ s) s
            (Dsl_case.to_string spec')
      | Error msg -> Alcotest.fail (s ^ ": " ^ msg)
    done
  done;
  (match Dsl_case.of_string "min:reach+guard" with
  | Ok spec ->
      (* genes canonicalize to pool order *)
      Alcotest.(check string) "canonical order" "min:guard+reach"
        (Dsl_case.to_string spec)
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool) "unknown family rejected" true
    (Result.is_error (Dsl_case.of_string "bogus:guard"));
  Alcotest.(check bool) "unknown gene rejected" true
    (Result.is_error (Dsl_case.of_string "peel:tmp"))

let test_bug_string_roundtrip () =
  List.iter
    (fun b ->
      match Dsl_sweep.bug_of_string (Dsl_sweep.bug_to_string b) with
      | Ok b' ->
          Alcotest.(check string) "bug round trip" (Dsl_sweep.bug_to_string b)
            (Dsl_sweep.bug_to_string b')
      | Error msg -> Alcotest.fail msg)
    [ Dsl_sweep.No_bug; Dsl_sweep.Wrong_weight ];
  Alcotest.(check bool) "unknown bug rejected" true
    (Result.is_error (Dsl_sweep.bug_of_string "off-by-one"))

(* ---------------- render / pretty round trip ---------------- *)

let qcheck_render_pretty_roundtrip =
  QCheck.Test.make ~name:"render -> parse -> pretty -> parse is identity"
    ~count:60
    QCheck.(pair (int_bound 20) (int_bound 20))
    (fun (seed, i) ->
      let spec = Dsl_case.generate ~seed i in
      let source = Dsl_case.render spec in
      let ast =
        try Dsl.Parser.parse_string source
        with Dsl.Parser.Error (pos, msg) ->
          QCheck.Test.fail_reportf "%s: %a: parse error: %s"
            (Dsl_case.to_string spec) Dsl.Pos.pp pos msg
      in
      (match Dsl.Typecheck.check ast with
      | Ok () -> ()
      | Error errors ->
          QCheck.Test.fail_reportf "%s: %s" (Dsl_case.to_string spec)
            (String.concat "; "
               (List.map
                  (fun e -> Format.asprintf "%a" Dsl.Typecheck.pp_error e)
                  errors)));
      let printed = Dsl.Pretty.program ast in
      let ast' =
        try Dsl.Parser.parse_string printed
        with Dsl.Parser.Error (pos, msg) ->
          QCheck.Test.fail_reportf
            "%s: pretty output no longer parses at %a: %s\n%s"
            (Dsl_case.to_string spec) Dsl.Pos.pp pos msg printed
      in
      Dsl.Ast.equal_program ast ast')

(* ---------------- single configurations ---------------- *)

let full spec_family =
  { Dsl_case.family = spec_family; genes = Dsl_case.all_genes spec_family }

let bare spec_family = { Dsl_case.family = spec_family; genes = [] }

(* Every family, bare and fully gened, through reference-vs-engine at the
   default schedule. The schedule grid itself is the sweep's job. *)
let test_all_specs_run () =
  let case = Graph_case.build (Graph_case.Random { seed = 2; n = 16; m = 60; max_w = 6 }) in
  with_pools (fun ~pool ~ref_pool ->
      List.iter
        (fun spec ->
          match Dsl_sweep.run_one ~pool ~ref_pool spec case Schedule.default with
          | Ok () -> ()
          | Error (lane, msg) ->
              Alcotest.fail
                (Dsl_case.to_string spec ^ ": " ^ Dsl_sweep.headline lane msg))
        (List.concat_map
           (fun f -> [ bare f; full f ])
           Dsl_case.all_families))

(* When a C++ toolchain is present, one representative configuration
   through all three lanes; skipped silently otherwise (CI installs a
   compiler so the lane runs there). *)
let test_compiled_lane_when_available () =
  match Dsl_sweep.detect_toolchain () with
  | None -> ()
  | Some toolchain ->
      let case = Graph_case.build (Graph_case.Path 10) in
      with_pools (fun ~pool ~ref_pool ->
          List.iter
            (fun spec ->
              match
                Dsl_sweep.run_one ~toolchain ~pool ~ref_pool spec case
                  Schedule.default
              with
              | Ok () -> ()
              | Error (lane, msg) ->
                  Alcotest.fail
                    (Dsl_case.to_string spec ^ ": " ^ Dsl_sweep.headline lane msg))
            [ full Dsl_case.Min_relax; bare Dsl_case.Sum_peel ])

(* ---------------- sweeps ---------------- *)

let test_clean_mini_sweep () =
  let summary =
    Dsl_sweep.run
      ~programs:[ bare Dsl_case.Min_relax; full Dsl_case.Max_relax ]
      ~graphs:[ Graph_case.Path 8; Graph_case.Self_loops 5 ]
      ~workers:[ 2 ] ~budget:60. ~seed:11 ~compiled:false ()
  in
  Alcotest.(check int) "no failures" 0
    (List.length summary.Dsl_sweep.checks.failures);
  Alcotest.(check bool) "ran configurations" true
    (summary.Dsl_sweep.checks.configs_run > 0)

(* The forced-bug loop: graft the wrong lowering, demand detection,
   shrinking to the bare skeleton, and a repro that still fails. *)
let test_forced_bug_detected_and_shrunk () =
  let summary =
    Dsl_sweep.run
      ~programs:[ full Dsl_case.Min_relax ]
      ~graphs:[ Graph_case.Random { seed = 5; n = 20; m = 80; max_w = 7 } ]
      ~workers:[ 1 ] ~budget:120. ~seed:5 ~max_failures:1
      ~bug:Dsl_sweep.Wrong_weight ~compiled:false ()
  in
  match summary.Dsl_sweep.checks.failures with
  | [] -> Alcotest.fail "wrong-weight bug not detected"
  | f :: _ ->
      let shrunk = f.shrunk.Dsl_sweep.spec in
      Alcotest.(check bool) "program shrank" true
        (shrunk <> f.original.Dsl_sweep.spec);
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to <= 5 statements (%s = %d)"
           (Dsl_case.to_string shrunk)
           (Dsl_case.num_statements shrunk))
        true
        (Dsl_case.num_statements shrunk <= 5);
      Alcotest.(check string) "fails in the engine lane" "engine"
        (Dsl_sweep.lane_to_string f.lane);
      let contains sub s =
        let re = Str.regexp_string sub in
        try
          ignore (Str.search_forward re s 0);
          true
        with Not_found -> false
      in
      Alcotest.(check bool) "repro line names the dsl mode" true
        (contains "check_runner --dsl --program" f.repro);
      Alcotest.(check bool) "repro line carries the bug" true
        (contains "--bug wrong-weight" f.repro);
      (* replay the shrunk configuration: it must still fail, with the
         lane and message the record carries *)
      let case = Graph_case.build f.shrunk.Dsl_sweep.graph in
      with_pools (fun ~pool ~ref_pool ->
          match
            Dsl_sweep.run_one ~bug:Dsl_sweep.Wrong_weight ~pool ~ref_pool
              shrunk case f.shrunk.Dsl_sweep.schedule
          with
          | Ok () -> Alcotest.fail ("shrunk repro passes: " ^ f.repro)
          | Error (lane, message) ->
              Alcotest.(check string) "replayed lane" "engine"
                (Dsl_sweep.lane_to_string lane);
              Alcotest.(check string) "message is the shrunk run's" message
                f.message)

(* Sum_peel is unweighted, so the wrong-weight graft is a no-op there —
   the sweep must stay clean rather than report phantom failures. *)
let test_bug_noop_for_unweighted () =
  let summary =
    Dsl_sweep.run
      ~programs:[ full Dsl_case.Sum_peel ]
      ~graphs:[ Graph_case.Path 8 ]
      ~workers:[ 1 ] ~budget:60. ~seed:9 ~max_failures:1
      ~bug:Dsl_sweep.Wrong_weight ~compiled:false ()
  in
  Alcotest.(check int) "no failures" 0
    (List.length summary.Dsl_sweep.checks.failures)

let () =
  Alcotest.run "dsl_sweep"
    [
      ( "specs",
        [
          Alcotest.test_case "spec strings round-trip" `Quick
            test_spec_roundtrip;
          Alcotest.test_case "bug strings round-trip" `Quick
            test_bug_string_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_render_pretty_roundtrip;
        ] );
      ( "lanes",
        [
          Alcotest.test_case "all specs run reference-vs-engine" `Quick
            test_all_specs_run;
          Alcotest.test_case "compiled lane when toolchain present" `Slow
            test_compiled_lane_when_available;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "clean mini-sweep" `Slow test_clean_mini_sweep;
          Alcotest.test_case "forced bug detected and shrunk" `Slow
            test_forced_bug_detected_and_shrunk;
          Alcotest.test_case "wrong-weight is a no-op unweighted" `Quick
            test_bug_noop_for_unweighted;
        ] );
    ]
