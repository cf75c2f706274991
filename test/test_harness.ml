module Measure = R2c_harness.Measure
module Webserver = R2c_workloads.Webserver
module Gate = R2c_harness.Gate
module J = R2c_obs.Json

let tiny_program =
  let open Builder in
  let main = func "main" ~nparams:0 in
  call_void main (Ir.Builtin "print_int") [ Ir.Const 5 ];
  ret main (Some (Ir.Const 0));
  program ~main:"main" [ finish main ] []

let test_measure_steady_below_total () =
  let s = Measure.run (R2c_compiler.Driver.compile tiny_program) in
  Alcotest.(check bool) "steady <= total" true (s.Measure.steady_cycles <= s.Measure.total_cycles);
  Alcotest.(check bool) "positive" true (s.Measure.steady_cycles > 0.0)

let test_measure_startup_excluded () =
  (* Under full R2C the constructor runs before main: total-steady must be
     substantially larger than for the baseline. *)
  let base = Measure.run (R2c_compiler.Driver.compile tiny_program) in
  let r2c =
    Measure.run (R2c_core.Pipeline.compile ~seed:2 (R2c_core.Dconfig.full ()) tiny_program)
  in
  let startup s = s.Measure.total_cycles -. s.Measure.steady_cycles in
  Alcotest.(check bool) "BTDP constructor in startup" true
    (startup r2c > startup base +. 1000.0)

let test_overhead_of_identity () =
  (* The baseline config has ratio ~1.0 against itself. *)
  let oh =
    Measure.overhead ~seeds:[ 1 ] R2c_core.Dconfig.baseline
      (R2c_workloads.Spec.find "xz").R2c_workloads.Spec.program
  in
  Alcotest.(check bool) (Printf.sprintf "ratio %.3f ~ 1" oh) true
    (oh > 0.98 && oh < 1.02)

let test_geomean_max () =
  let mx, geo = Measure.geomean_max [ ("a", 1.0); ("b", 1.21); ("c", 1.1) ] in
  Alcotest.(check (float 1e-9)) "max" 1.21 mx;
  Alcotest.(check bool) "geo between" true (geo > 1.0 && geo < 1.21)

let test_throughput_inverse_cycles () =
  let t1 = Webserver.throughput_of_cycles ~requests:100 1_000_000.0 in
  let t2 = Webserver.throughput_of_cycles ~requests:100 2_000_000.0 in
  Alcotest.(check (float 1e-9)) "halved" (t1 /. 2.0) t2

let test_table3_glyphs () =
  let open R2c_harness.Table3 in
  Alcotest.(check string) "protected" "#"
    (glyph { attack = "x"; trials = 3; successes = 0; detections = 1 });
  Alcotest.(check string) "broken" "o"
    (glyph { attack = "x"; trials = 3; successes = 3; detections = 0 });
  Alcotest.(check string) "partial" "+"
    (glyph { attack = "x"; trials = 3; successes = 1; detections = 0 })

let test_paper_constants_sane () =
  List.iter
    (fun (label, mx, geo) ->
      Alcotest.(check bool) (label ^ " max >= geomean") true (mx >= geo))
    R2c_harness.Paper.table1;
  Alcotest.(check bool) "probability example" true
    (abs_float (R2c_harness.Paper.guess_probability_example -. 0.0000683) < 0.00001)

let test_scale_runs_small () =
  (* First row is the browser-shaped workload, then the requested size. *)
  match R2c_harness.Scale.run ~sizes:[ 60 ] () with
  | [ browser; row ] ->
      Alcotest.(check bool) "browser correct" true browser.R2c_harness.Scale.run_ok;
      Alcotest.(check bool) "correct" true row.R2c_harness.Scale.run_ok;
      Alcotest.(check int) "funcs" 60 row.R2c_harness.Scale.funcs;
      Alcotest.(check bool) "text nonempty" true (row.R2c_harness.Scale.text_kb > 0)
  | _ -> Alcotest.fail "expected two rows"

let test_table1_smoke () =
  (* A single-seed run of the component harness on the suite is the
     expensive integration test of the whole measurement stack. *)
  let rows = R2c_harness.Table1.run ~seeds:[ 3 ] () in
  Alcotest.(check int) "six components" 6 (List.length rows);
  List.iter
    (fun (r : R2c_harness.Table1.row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: max %.3f >= geomean %.3f >= ~1" r.label r.max r.geomean)
        true
        (r.max >= r.geomean && r.geomean > 0.98))
    rows;
  let get l = List.find (fun (r : R2c_harness.Table1.row) -> r.label = l) rows in
  Alcotest.(check bool) "push > avx" true ((get "Push").geomean > (get "AVX").geomean);
  Alcotest.(check bool) "avx > layout" true ((get "AVX").geomean > (get "Layout").geomean)

(* A fake gate whose argument is the list of criteria its [check]
   reports as violated. *)
let fake_gate : (string list, int) Gate.t =
  {
    Gate.name = "fake";
    doc = "A gate that always reports 42.";
    run = (fun _ ~jobs:_ -> 42);
    print = (fun _ _ -> ());
    to_json = (fun r -> J.Obj [ ("answer", J.Int r); ("label", J.Str "x,y") ]);
    volatile = (fun ~wall_ms:_ _ -> [ ("wall_ms", J.Float 1.5) ]);
    check = (fun fails _ -> fails);
  }

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  s

(* [exec_fake ~jobs fails] — the exit code, the written JSON line and
   everything [Gate.exec] printed on stderr. *)
let exec_fake ~jobs fails =
  let json_out = Filename.temp_file "gate" ".json" in
  let err_path = Filename.temp_file "gate" ".err" in
  let err_fd = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stderr in
  flush stderr;
  Unix.dup2 err_fd Unix.stderr;
  let code =
    Fun.protect
      (fun () -> Gate.exec ~json_out ~jobs fake_gate fails)
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved;
        Unix.close err_fd)
  in
  (code, read_file json_out, read_file err_path)

let test_gate_json_order () =
  let _, line, _ = exec_fake ~jobs:(Some 3) [] in
  Alcotest.(check string) "deterministic fields, jobs, volatile fields"
    "{\"answer\":42,\"label\":\"x,y\",\"jobs\":3,\"wall_ms\":1.5}\n" line;
  let _, auto, _ = exec_fake ~jobs:None [] in
  Alcotest.(check bool) "jobs None reports the auto width" true
    (J.member "jobs" (Result.get_ok (J.parse auto))
    = Some (J.Int (R2c_util.Parallel.default_jobs ())))

let test_gate_strip_leaves_to_json () =
  (* What [make determinism] diffs: the line cut at ,"jobs":. *)
  let _, line, _ = exec_fake ~jobs:(Some 8) [] in
  let marker = ",\"jobs\":" in
  let rec find i =
    if String.sub line i (String.length marker) = marker then i else find (i + 1)
  in
  Alcotest.(check string) "stripped line is the to_json rendering"
    (J.to_string (fake_gate.Gate.to_json 42))
    (String.sub line 0 (find 0) ^ "}")

let test_gate_exit_codes () =
  let code, _, err = exec_fake ~jobs:(Some 1) [ "too slow"; "not identical" ] in
  Alcotest.(check int) "failed check exits 1" 1 code;
  Alcotest.(check string) "one stderr line per failure"
    "fake: gate failed: too slow\nfake: gate failed: not identical\n" err;
  let code, _, err = exec_fake ~jobs:(Some 1) [] in
  Alcotest.(check int) "empty check exits 0" 0 code;
  Alcotest.(check string) "nothing on stderr" "" err

let suite =
  [
    ( "harness",
      [
        Alcotest.test_case "steady below total" `Quick test_measure_steady_below_total;
        Alcotest.test_case "startup excluded" `Quick test_measure_startup_excluded;
        Alcotest.test_case "identity overhead" `Quick test_overhead_of_identity;
        Alcotest.test_case "geomean/max" `Quick test_geomean_max;
        Alcotest.test_case "throughput inverse" `Quick test_throughput_inverse_cycles;
        Alcotest.test_case "table3 glyphs" `Quick test_table3_glyphs;
        Alcotest.test_case "paper constants" `Quick test_paper_constants_sane;
        Alcotest.test_case "scale small" `Quick test_scale_runs_small;
        Alcotest.test_case "table1 smoke" `Slow test_table1_smoke;
        Alcotest.test_case "gate json field order" `Quick test_gate_json_order;
        Alcotest.test_case "gate strip leaves to_json" `Quick
          test_gate_strip_leaves_to_json;
        Alcotest.test_case "gate exit codes" `Quick test_gate_exit_codes;
      ] );
  ]
