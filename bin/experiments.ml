(* r2c-experiments: run the paper-reproduction experiments individually with
   tunable trial counts. `bench/main.exe` runs the whole battery; this tool
   is the fine-grained interface. *)

open Cmdliner
module Gate = R2c_harness.Gate

let seeds_term =
  let doc = "Compilation seeds for median-of-N runs (comma separated)." in
  Arg.(value & opt (list int) [ 3; 11; 27 ] & info [ "seeds" ] ~docv:"SEEDS" ~doc)

let table1_cmd =
  let run seeds =
    R2c_harness.Table1.(print (run ~seeds ()));
    0
  in
  Cmd.v (Cmd.info "table1" ~doc:"Component overheads (paper Table 1).")
    Term.(const run $ seeds_term)

let table2_cmd =
  let run () =
    R2c_harness.Table2.(print (run ()));
    0
  in
  Cmd.v (Cmd.info "table2" ~doc:"Call frequencies (paper Table 2).")
    Term.(const run $ const ())

(* Reproduction gate: the R2C row must stop every attack trial and the
   unprotected baseline must fall to at least one, or the reproduction has
   regressed and CI should say so. *)
let table3_gate (rows : R2c_harness.Table3.row list) =
  let row name = List.find_opt (fun (r : R2c_harness.Table3.row) -> r.defense = name) rows in
  let stopped (r : R2c_harness.Table3.row) =
    List.for_all (fun (c : R2c_harness.Table3.cell) -> c.successes = 0) r.cells
  in
  let fell (r : R2c_harness.Table3.row) =
    List.exists (fun (c : R2c_harness.Table3.cell) -> c.successes > 0) r.cells
  in
  match (row "R2C", row "unprotected") with
  | Some r2c, Some unprot when stopped r2c && fell unprot -> 0
  | _ ->
      prerr_endline "table3: reproduction check failed (R2C breached or baseline unbeaten)";
      1

let table3_cmd =
  let trials =
    Arg.(value & opt int 3 & info [ "trials" ] ~docv:"N" ~doc:"Attack trials per cell.")
  in
  let overheads =
    Arg.(value & flag & info [ "no-overhead" ] ~doc:"Skip the measured overhead column.")
  in
  let run trials no_overhead =
    let rows = R2c_harness.Table3.run ~trials ~with_overhead:(not no_overhead) () in
    R2c_harness.Table3.print rows;
    table3_gate rows
  in
  Cmd.v (Cmd.info "table3" ~doc:"Defense comparison (paper Table 3).")
    Term.(const run $ trials $ overheads)

let figure6_cmd =
  let run seeds =
    R2c_harness.Figure6.(print (run ~seeds ()));
    0
  in
  Cmd.v (Cmd.info "figure6" ~doc:"Full R2C overhead on four machines (paper Figure 6).")
    Term.(const run $ seeds_term)

let web_cmd =
  let requests =
    Arg.(value & opt int 400 & info [ "requests" ] ~docv:"N" ~doc:"Requests per run.")
  in
  let run seeds requests =
    R2c_harness.Webbench.(print (run ~seeds ~requests ()));
    0
  in
  Cmd.v (Cmd.info "web" ~doc:"Webserver throughput (Section 6.2.4).")
    Term.(const run $ seeds_term $ requests)

let memory_cmd =
  let run () =
    R2c_harness.Membench.(print (run ()));
    0
  in
  Cmd.v (Cmd.info "memory" ~doc:"Memory overhead (Section 6.2.5).")
    Term.(const run $ const ())

let security_cmd =
  let trials =
    Arg.(value & opt int 8 & info [ "trials" ] ~docv:"N" ~doc:"Monte-Carlo trials.")
  in
  let run trials =
    let r = R2c_harness.Secbench.run ~trials () in
    R2c_harness.Secbench.print r;
    if r.aocr_successes = 0 && r.brop_successes = 0 then 0
    else begin
      prerr_endline "security: reproduction check failed (an attack breached full R2C)";
      1
    end
  in
  Cmd.v (Cmd.info "security" ~doc:"Probabilistic security evaluation (Section 7.2).")
    Term.(const run $ trials)

let scale_cmd =
  let sizes =
    Arg.(
      value
      & opt (list int) [ 500; 2000; 8000 ]
      & info [ "sizes" ] ~docv:"SIZES" ~doc:"Program sizes in functions.")
  in
  let run sizes =
    R2c_harness.Scale.(print (run ~sizes ()));
    0
  in
  Cmd.v (Cmd.info "scale" ~doc:"Compilation at scale (Section 6.3).")
    Term.(const run $ sizes)

let ablation_cmd =
  let run () =
    R2c_harness.Ablation.print_all ();
    0
  in
  Cmd.v (Cmd.info "ablation" ~doc:"Design-choice ablation sweeps.") Term.(const run $ const ())

let chaos_cmd =
  let legit =
    Arg.(
      value & opt int 2000
      & info [ "requests" ] ~docv:"N" ~doc:"Legitimate requests per policy run.")
  in
  let budget =
    Arg.(
      value & opt int 4000
      & info [ "probe-budget" ] ~docv:"N" ~doc:"Attacker probe budget per campaign.")
  in
  let seed =
    Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc:"Pool master seed.")
  in
  let run seed legit budget =
    let attack = { R2c_harness.Chaos.default_attack with probe_budget = budget } in
    let results = R2c_harness.Chaos.run ~seed ~legit_total:legit ~attack () in
    R2c_harness.Chaos.print results;
    R2c_harness.Chaos.(print_sweep (injection_sweep ()));
    let equiv = R2c_harness.Chaos.baseline_equivalence () in
    R2c_harness.Chaos.print_equivalence equiv;
    (* Gate: re-randomizing policies must hold against the campaign the
       same-image policy loses to, and the zero-rate injector must stay a
       bit-exact no-op. *)
    let holds =
      List.for_all
        (fun (r : R2c_harness.Chaos.run_result) ->
          match r.policy with
          | R2c_runtime.Policy.Rerandomize | R2c_runtime.Policy.Reactive _ ->
              not r.compromised
          | R2c_runtime.Policy.Same_image | R2c_runtime.Policy.Backoff _ -> true)
        results
    in
    if equiv && holds then 0
    else begin
      prerr_endline "chaos: reproduction check failed";
      1
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Availability under fault injection and a Blind-ROP campaign, per restart \
          policy.")
    Term.(const run $ seed $ legit $ budget)

let audit_cmd =
  let seeds =
    Arg.(
      value
      & opt (list int) [ 2; 3; 5; 7; 11 ]
      & info [ "seeds" ] ~docv:"SEEDS" ~doc:"Variant seeds (one diversified image each).")
  in
  let run seeds =
    let a = R2c_harness.Audit.run ~seeds () in
    R2c_harness.Audit.print a;
    if R2c_harness.Audit.ok a then 0 else 1
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Static image audit: IR validation, invariant lint, cross-variant gadget \
          survivors, sanitizer wiring self-check.")
    Term.(const run $ seeds)

let profile_cmd =
  let workload =
    Arg.(value & pos 0 string "mcf" & info [] ~docv:"WORKLOAD" ~doc:"Benchmark name.")
  in
  let seed =
    Arg.(value & opt int 3 & info [ "seed" ] ~docv:"SEED" ~doc:"Diversification seed.")
  in
  let config =
    let configs =
      [
        ("full", `Full);
        ("full-checked", `Full_checked);
        ("btra-avx", `Btra_avx);
        ("btra-push", `Btra_push);
        ("btdp", `Btdp);
        ("prolog", `Prolog);
        ("layout", `Layout);
      ]
    in
    Arg.(
      value
      & opt (enum configs) `Full
      & info [ "config" ] ~docv:"CFG" ~doc:"R2C configuration to profile against.")
  in
  let top =
    Arg.(value & opt int 12 & info [ "top" ] ~docv:"N" ~doc:"Functions shown.")
  in
  let requests =
    Arg.(
      value & opt int 60
      & info [ "requests" ] ~docv:"N" ~doc:"Requests in the pool timeline run.")
  in
  let trace =
    Arg.(
      value & opt string ""
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write the pool timeline as Chrome trace_event JSON (and FILE.jsonl).")
  in
  let metrics =
    Arg.(value & flag & info [ "metrics" ] ~doc:"Dump the metrics registry exposition.")
  in
  let run workload seed config top requests trace metrics =
    let cfg_name, cfg =
      match config with
      | `Full -> ("full", R2c_core.Dconfig.full ())
      | `Full_checked -> ("full-checked", R2c_core.Dconfig.full_checked)
      | `Btra_avx -> ("btra-avx", R2c_core.Dconfig.btra_avx_only)
      | `Btra_push -> ("btra-push", R2c_core.Dconfig.btra_push_only)
      | `Btdp -> ("btdp", R2c_core.Dconfig.btdp_only)
      | `Prolog -> ("prolog", R2c_core.Dconfig.prolog_only)
      | `Layout -> ("layout", R2c_core.Dconfig.layout_only)
    in
    let r = R2c_harness.Prof.run ~cfg ~cfg_name ~seed ~workload () in
    R2c_harness.Prof.print ~top r;
    if metrics then print_string (R2c_obs.Metrics.expose r.R2c_harness.Prof.sink.R2c_obs.Sink.metrics);
    let sums = R2c_harness.Prof.sums_ok r in
    if not sums then
      prerr_endline "profile: column sums diverge from the CPU's own counters";
    (* Pool timeline: export, re-parse, and check the span invariant. *)
    let sink, stats = R2c_harness.Prof.pool_timeline ~requests () in
    let events = sink.R2c_obs.Sink.events in
    let doc = R2c_obs.Events.to_chrome events in
    let parsed =
      match R2c_obs.Json.parse doc with
      | Ok _ -> true
      | Error e ->
          prerr_endline ("profile: trace JSON does not parse: " ^ e);
          false
    in
    let spans = R2c_obs.Events.count ~cat:"request" events in
    let expected = stats.R2c_runtime.Pool.served + stats.R2c_runtime.Pool.dropped in
    let spans_ok = spans = expected in
    if not spans_ok then
      Printf.eprintf "profile: %d request spans but served+dropped = %d\n" spans expected;
    Printf.printf
      "pool timeline: %d events (%d request spans = %d served + %d dropped), %d crashes, %d post-mortems\n"
      (R2c_obs.Events.count events) spans stats.R2c_runtime.Pool.served
      stats.R2c_runtime.Pool.dropped stats.R2c_runtime.Pool.crashes
      (R2c_obs.Events.count ~cat:"postmortem" events);
    if trace <> "" then begin
      let write path s =
        let oc = open_out path in
        output_string oc s;
        close_out oc
      in
      write trace doc;
      write (trace ^ ".jsonl") (R2c_obs.Events.to_jsonl events);
      Printf.printf "trace written to %s (+ .jsonl)\n" trace
    end;
    if sums && parsed && spans_ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Per-function cycle/icache profile, baseline vs one R2C configuration, plus an \
          observed worker-pool timeline exported as Chrome trace JSON.")
    Term.(const run $ workload $ seed $ config $ top $ requests $ trace $ metrics)

(* Every JSON gate below is one [Gate.t] over its own arguments; this
   builder adds the shared --jobs/--json-out terms and runs it through
   [Gate.exec]. *)
let gate_cmd (g : ('a, 'r) Gate.t) (args : 'a Term.t) =
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Domain-pool width (0 = auto: \\$R2C_JOBS or the recommended domain count; \
             1 = serial). The report is identical at any width.")
  in
  let json_out =
    Arg.(
      value & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE" ~doc:"Also write the one-line JSON to FILE.")
  in
  let exec args jobs json_out =
    Gate.exec ?json_out ~jobs:(if jobs > 0 then Some jobs else None) g args
  in
  Cmd.v (Cmd.info g.name ~doc:g.doc) Term.(const exec $ args $ jobs $ json_out)

let wall_ms_field ~wall_ms _ = [ ("wall_ms", R2c_obs.Json.Float wall_ms) ]

type fuzz_report = {
  corpus_replayed : int;
  replay_failures : (string * string) list;
  campaign : R2c_fuzz.Campaign.report;
  campaign_ms : float;
  self_check : R2c_fuzz.Campaign.self_check option;
}

let fuzz_cmd =
  let module J = R2c_obs.Json in
  let module C = R2c_fuzz.Campaign in
  let seed =
    Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign master seed.")
  in
  let count =
    Arg.(value & opt int 100 & info [ "count" ] ~docv:"N" ~doc:"Generated programs.")
  in
  let fuel =
    Arg.(
      value & opt int 5_000_000
      & info [ "fuel" ] ~docv:"STEPS"
          ~doc:"Reference-interpreter budget per program (machine budget is 40x).")
  in
  let self_check =
    Arg.(
      value & flag
      & info [ "self-check" ]
          ~doc:
            "Also plant a deliberate miscompile (Sub compiled as Add) and require the \
             oracle to catch it and the shrinker to reduce it to <= 10 IR instructions.")
  in
  let corpus =
    Arg.(
      value & opt string "test/corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Corpus directory: replayed before the campaign; divergences are saved here.")
  in
  let run (seed, count, fuel, self_check, corpus) ~jobs =
    (* Replay the persisted corpus first: known reproducers must stay fixed. *)
    let replay_failures = C.replay ~fuel ~dir:corpus () in
    let t0 = Unix.gettimeofday () in
    let campaign = C.run ~corpus_dir:corpus ~fuel ?jobs ~seed ~count () in
    let campaign_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    {
      corpus_replayed = List.length (R2c_fuzz.Corpus.files ~dir:corpus);
      replay_failures;
      campaign;
      campaign_ms;
      self_check = (if self_check then Some (C.self_check ~fuel ~seed ()) else None);
    }
  in
  let to_json f =
    let rep = f.campaign in
    J.Obj
      ([
         ("seed", J.Int rep.C.seed);
         ("programs", J.Int rep.C.programs);
         ("skipped", J.Int rep.C.skipped);
         ("configs", J.Int (List.length R2c_fuzz.Oracle.matrix));
         ("points_per_program", J.Int rep.C.points);
         ("corpus_replayed", J.Int f.corpus_replayed);
         ("corpus_failures", J.Int (List.length f.replay_failures));
         ("divergences", J.Int rep.C.divergences);
         ( "reproducers",
           J.Arr
             (List.map
                (fun (path, size) ->
                  J.Obj [ ("path", J.Str path); ("shrunk_size", J.Int size) ])
                rep.C.reproducers) );
       ]
      @
      match f.self_check with
      | None -> []
      | Some s ->
          [
            ( "self_check",
              J.Obj
                [
                  ("caught", J.Bool s.C.caught);
                  ("shrunk_size", J.Int s.C.shrunk_size);
                  ("reproducer", J.Str s.C.reproducer);
                  ("roundtrip_ok", J.Bool s.C.roundtrip_ok);
                  ("still_fails", J.Bool s.C.still_fails);
                ] );
          ])
  in
  let check _ f =
    List.map (fun (path, why) -> Printf.sprintf "corpus replay failed: %s: %s" path why)
      f.replay_failures
    @ (if f.campaign.C.divergences = 0 then []
       else [ Printf.sprintf "%d surviving divergence(s)" f.campaign.C.divergences ])
    @
    match f.self_check with
    | Some s
      when not (s.C.caught && s.C.shrunk_size <= 10 && s.C.roundtrip_ok && s.C.still_fails)
      ->
        [ "planted-miscompile self-check failed" ]
    | _ -> []
  in
  gate_cmd
    {
      Gate.name = "fuzz";
      doc =
        "Differential fuzzing: generated programs through the reference interpreter vs \
         the compiled machine under the whole Dconfig matrix (plus rerandomized \
         variants); divergences are delta-debugged to minimal .r2c reproducers.";
      run;
      print = (fun _ _ -> ());
      to_json;
      volatile = (fun ~wall_ms:_ f -> [ ("campaign_wall_ms", J.Float f.campaign_ms) ]);
      check;
    }
    Term.(
      const (fun a b c d e -> (a, b, c, d, e)) $ seed $ count $ fuel $ self_check $ corpus)

let fleet_cmd =
  let module FB = R2c_harness.Fleetbench in
  let seed =
    Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign master seed.")
  in
  let requests =
    Arg.(
      value & opt int 100_000
      & info [ "requests" ] ~docv:"N" ~doc:"Simulated requests in the campaign.")
  in
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N" ~doc:"Serving shards (pools).")
  in
  let epoch_cycles =
    Arg.(
      value
      & opt int R2c_runtime.Fleet.default_config.R2c_runtime.Fleet.epoch_cycles
      & info [ "epoch-cycles" ] ~docv:"CYCLES"
          ~doc:"Live-rerandomization period: rotate every CYCLES fleet cycles.")
  in
  let incremental =
    Arg.(
      value & flag
      & info [ "incremental" ]
          ~doc:
            "Build epoch rotations through the shared per-function codegen cache \
             (body diversification pinned at the campaign seed; rotations relink \
             from cache hits).")
  in
  let max_p99 =
    Arg.(
      value & opt int 0
      & info [ "max-p99" ] ~docv:"CYCLES"
          ~doc:
            "Latency SLO: fail the gate if the fleet-wide or any per-shard p99 \
             request latency exceeds CYCLES (0 = disabled).")
  in
  gate_cmd
    {
      Gate.name = "fleet";
      doc =
        "Sharded serving fleet under chaos: >=100k simulated requests across load-\
         balanced pools with admission control and epoch-based live rerandomization; \
         exits nonzero unless availability >= 99.9% with zero rotation-caused drops \
         (and, with --max-p99, the latency SLO holds fleet-wide and per shard).";
      run =
        (fun (seed, requests, shards, epoch_cycles, incremental, _) ~jobs ->
          FB.run ~seed ~requests ~shards ~epoch_cycles ?jobs ~incremental ());
      print = (fun _ -> FB.print);
      to_json = FB.json;
      volatile = wall_ms_field;
      check =
        (fun (_, _, _, _, _, max_p99) r ->
          FB.gate ?max_p99:(if max_p99 > 0 then Some max_p99 else None) r);
    }
    Term.(
      const (fun a b c d e f -> (a, b, c, d, e, f))
      $ seed $ requests $ shards $ epoch_cycles $ incremental $ max_p99)

let tval_cmd =
  let module TB = R2c_harness.Tvalbench in
  let seed =
    Arg.(
      value & opt int 3
      & info [ "seed" ] ~docv:"SEED" ~doc:"Diversification seed every point compiles under.")
  in
  let corpus =
    Arg.(
      value & opt string "test/corpus"
      & info [ "corpus" ] ~docv:"DIR" ~doc:"Fuzz reproducer corpus replayed through the validator.")
  in
  gate_cmd
    {
      Gate.name = "tval";
      doc =
        "Static translation validation: symbolically execute the emitted code of every \
         workload under the whole Dconfig matrix against its IR semantics, replay the \
         fuzz corpus, and re-catch the planted miscompiles — no execution; exits \
         nonzero on any finding or uncaught plant.";
      run = (fun (seed, corpus) ~jobs -> TB.run ~seed ?jobs ~corpus_dir:corpus ());
      print = (fun _ -> TB.print);
      to_json = TB.json;
      volatile = wall_ms_field;
      check = (fun _ r -> TB.gate r);
    }
    Term.(const (fun a b -> (a, b)) $ seed $ corpus)

let replay_cmd =
  let module RB = R2c_harness.Replaybench in
  let tolerance =
    Arg.(
      value & opt float 0.01
      & info [ "tolerance" ] ~docv:"FRAC"
          ~doc:"Relative profile-fidelity tolerance for cycles/insns/icache.")
  in
  let max_checks =
    Arg.(
      value & opt int 200
      & info [ "max-checks" ] ~docv:"N"
          ~doc:"Fidelity-oracle budget per trace reduction (each check re-runs the trace).")
  in
  let corpus_out =
    Arg.(
      value & opt (some string) None
      & info [ "corpus-out" ] ~docv:"DIR"
          ~doc:"Write the reduced .r2cr traces to DIR (the bench/replays corpus).")
  in
  let run (tolerance, max_checks, _) ~jobs =
    match RB.run ~tolerance ~max_checks ?jobs () with
    | Ok r -> r
    | Error e ->
        Printf.eprintf "replay: %s\n" e;
        exit 1
  in
  let print (_, _, corpus_out) r =
    RB.print r;
    Option.iter
      (fun dir -> List.iter (Printf.printf "  wrote %s\n") (RB.save_corpus ~dir r))
      corpus_out
  in
  gate_cmd
    {
      Gate.name = "replay";
      doc =
        "Record-reduce-replay: capture every builtin-boundary crossing of the fleet \
         and compute workloads, delta-debug the traces (>=30% smaller), and replay \
         them as standalone benchmarks; exits nonzero unless every replay reproduces \
         the recorded cycles/insns/icache profile within 1%.";
      run;
      print;
      to_json = RB.json;
      volatile = wall_ms_field;
      check = (fun _ r -> RB.gate r);
    }
    Term.(const (fun a b c -> (a, b, c)) $ tolerance $ max_checks $ corpus_out)

let config_term =
  Arg.(
    value & opt string "full"
    & info [ "config" ] ~docv:"CFG"
        ~doc:"Diversity configuration (baseline, full, full-checked, layout).")

let rerand_cmd =
  let module RR = R2c_harness.Rerandbench in
  let funcs =
    Arg.(
      value & opt int 10_000
      & info [ "funcs" ] ~docv:"N" ~doc:"Generated program size in functions.")
  in
  let rotations =
    Arg.(
      value & opt int 4
      & info [ "rotations" ] ~docv:"N" ~doc:"Link-seed rotations through the cache.")
  in
  let checked =
    Arg.(
      value & opt int 2
      & info [ "checked" ] ~docv:"N"
          ~doc:"Rotations differentially fingerprinted against a cold compile.")
  in
  let min_speedup =
    Arg.(
      value & opt float 10.0
      & info [ "min-speedup" ] ~docv:"X"
          ~doc:"Gate floor: incremental rebuild must beat cold compile by this factor \
                (0 disables the timing gate).")
  in
  gate_cmd
    {
      Gate.name = "rerand";
      doc =
        "Incremental rerandomization: warm the per-function codegen cache on a \
         Genprog-scale image, rotate the link seed, and exit nonzero unless every \
         rebuild is byte-identical to a cold compile, rotations recompile nothing, a \
         one-function edit recompiles exactly one function, and the rebuild beats the \
         cold compile by the speedup floor.";
      run =
        (fun (funcs, config, rotations, checked, _) ~jobs ->
          RR.run ~funcs ~config ~rotations ~checked ?jobs ());
      print = (fun _ -> RR.print);
      to_json = (fun (r, _) -> RR.json r);
      volatile = (fun ~wall_ms:_ (_, t) -> RR.timing_json t);
      check = (fun (_, _, _, _, min_speedup) -> RR.gate ~min_speedup);
    }
    Term.(
      const (fun a b c d e -> (a, b, c, d, e))
      $ funcs $ config_term $ rotations $ checked $ min_speedup)

let jit_cmd =
  let module JB = R2c_harness.Jitbench in
  let seed =
    Arg.(value & opt int 3 & info [ "seed" ] ~docv:"N" ~doc:"Diversification seed.")
  in
  let fuel =
    Arg.(
      value & opt int 50_000_000
      & info [ "fuel" ] ~docv:"N" ~doc:"Per-run instruction budget.")
  in
  let min_speedup =
    Arg.(
      value & opt float 5.0
      & info [ "min-speedup" ] ~docv:"X"
          ~doc:"Gate floor: tier 3 must beat the reference tier by this factor (0 \
                disables the timing gate).")
  in
  gate_cmd
    {
      Gate.name = "jit";
      doc =
        "Three-tier comparison on the SPEC-like suite: reference dispatch vs \
         predecoded interpreter vs tier-3 template JIT (steady-state, warm shared \
         code cache). Exits nonzero unless all three tiers are bit-identical on \
         every workload and tier 3 clears the speedup floor over the reference \
         tier. --jobs fans out the image compiles only; the measured runs are \
         always serial.";
      run = (fun (config, seed, fuel, _) ~jobs -> JB.run ~config ~seed ~fuel ?jobs ());
      print = (fun _ -> JB.print);
      to_json = (fun (r, _) -> JB.json r);
      volatile = (fun ~wall_ms:_ (_, t) -> JB.timing_json t);
      check = (fun (_, _, _, min_speedup) -> JB.gate ~min_speedup);
    }
    Term.(
      const (fun a b c d -> (a, b, c, d)) $ config_term $ seed $ fuel $ min_speedup)

let all_cmd =
  let run seeds =
    R2c_harness.Table1.(print (run ~seeds ()));
    R2c_harness.Table2.(print (run ()));
    R2c_harness.Table3.(print (run ()));
    R2c_harness.Figure6.(print (run ~seeds ()));
    R2c_harness.Webbench.(print (run ()));
    R2c_harness.Membench.(print (run ()));
    R2c_harness.Secbench.(print (run ()));
    R2c_harness.Scale.(print (run ()));
    0
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment.") Term.(const run $ seeds_term)

let () =
  let doc = "Reproduce the R2C paper's evaluation tables and figures." in
  let info = Cmd.info "r2c-experiments" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            table1_cmd; table2_cmd; table3_cmd; figure6_cmd; web_cmd; memory_cmd;
            security_cmd; scale_cmd; ablation_cmd; chaos_cmd; audit_cmd; profile_cmd;
            fuzz_cmd; fleet_cmd; tval_cmd; replay_cmd; rerand_cmd; jit_cmd; all_cmd;
          ]))
