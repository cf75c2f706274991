(* The repository benchmark: one process, one workload, one seed.

     bench.exe --workload serve|spec|wide --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing off.
   --trace 1 spends half the time untraced and half traced, then reports
   per-layer host times from spans the benchmark records around its calls
   into each layer (span file under perfbench/out/), plus the tiers rerun
   and, on serve, the serving loop replayed outside the fleet.
   The last line of standard output is the JSON result. *)

open R2c_machine

let profile = Cost.epyc_rome

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  domains : int;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload serve|spec|wide --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload [ "serve"; "spec"; "wide" ]) then usage ();
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  {
    workload;
    seed = int "seed";
    seconds = float_of_int (int "seconds");
    trace;
    domains = min (R2c_util.Parallel.default_jobs ()) (max 1 (Domain.recommended_domain_count ()));
  }

(* ---- metric output ---- *)

(* Every metric a run prints, by mode, with its unit; BENCHMARK.json
   lists the same names. A per-layer metric whose layer is not on the
   workload's path reads 0. *)
let end_to_end_names =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("op_p50_ms", "ms");
    ("op_tail_ms", "ms");
    ("sim_minsns_per_s", "Minsn/s");
    ("ok_share", "share");
    ("peak_rss_mb", "MB");
  ]

let per_layer_names =
  List.map (fun n -> (n ^ ".ms", "ms")) [ "instrument"; "validate"; "emit"; "link" ]
  @ [
      ("build.count", "count/setup");
      ("rebuild.ms", "ms");
      ("rebuild.hits", "count");
      ("rebuild.misses", "count");
      ("load.ms", "ms");
      ("load.count", "count/op");
      ("exec.ms", "ms");
      ("exec.insns", "count");
      ("exec.ns_per_insn", "ns");
      ("tier.ref_ns_per_insn", "ns");
      ("tier.fast_ns_per_insn", "ns");
      ("tier.t3_ns_per_insn", "ns");
      ("jit.compiled", "count/op");
      ("jit.tier3_share", "share");
      ("jit.osr_enters", "count/op");
      ("jit.deopts", "count/op");
      ("run_until.ns_per_insn", "ns");
      ("run_until.inject_ns_per_insn", "ns");
      ("run_until.share", "share");
      ("fleet.submit_ms", "ms");
    ]
  @ List.map
      (fun n -> (n, "count/round"))
      [
        "pool.recycles";
        "pool.restarts";
        "pool.crashes";
        "pool.retried";
        "pool.rerandomizations";
        "fleet.hedges";
        "fleet.shed";
        "fleet.rotations";
        "fleet.quarantines";
      ]
  @ [ ("gc.alloc_mb", "MB/op"); ("gc.major", "count/kop") ]
  @ List.map
      (fun n -> (n ^ ".self_share", "share"))
      [ "fleet.submit"; "build"; "instrument"; "validate"; "emit"; "link"; "rebuild"; "load"; "exec" ]
  @ [ ("trace.coverage", "share"); ("trace.ops_ratio", "ratio") ]

let values : (string, float) Hashtbl.t = Hashtbl.create 64
let metric name v = Hashtbl.replace values name v
let value name = Option.value (Hashtbl.find_opt values name) ~default:0.0

let json_result names ~correct ~attempted ~failed =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (n, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num (value n)) u)
          names))

let ratio a b = if b = 0.0 then 0.0 else a /. b
let per a b = ratio (float_of_int a) (float_of_int b)

(* ---- tiers: the same run on the reference tier, the fast tier (JIT
   detached) and tier 3 ---- *)

type tiers = {
  mutable ref_s : float;
  mutable fast_s : float;
  mutable t3_s : float;
  mutable tier_insns : int;
  mutable mismatches : int;
}

let tier_acc () = { ref_s = 0.0; fast_s = 0.0; t3_s = 0.0; tier_insns = 0; mismatches = 0 }

let run_tiers acc ?(input = []) ?jit_cache ~fuel img =
  let leg ~jit run =
    let c = Loader.load ~jit ?jit_cache:(if jit then jit_cache else None) ~profile img in
    List.iter (Cpu.push_input c) input;
    let t0 = Span.now_ns () in
    let r = run c in
    (Span.secs_between t0 (Span.now_ns ()), Spec_wl.fingerprint c r, c.Cpu.insns)
  in
  let s_ref, f_ref, insns = leg ~jit:false (fun c -> Cpu.run_reference c ~fuel) in
  let s_fast, f_fast, _ =
    leg ~jit:true (fun c ->
        Jit.detach c;
        Cpu.run c ~fuel)
  in
  let s_t3, f_t3, _ = leg ~jit:true (fun c -> Cpu.run c ~fuel) in
  acc.ref_s <- acc.ref_s +. s_ref;
  acc.fast_s <- acc.fast_s +. s_fast;
  acc.t3_s <- acc.t3_s +. s_t3;
  acc.tier_insns <- acc.tier_insns + insns;
  if not (String.equal f_ref f_fast && String.equal f_ref f_t3) then
    acc.mismatches <- acc.mismatches + 1

let report_tiers acc =
  let ns s = ratio (s *. 1e9) (float_of_int acc.tier_insns) in
  metric "tier.ref_ns_per_insn" (ns acc.ref_s);
  metric "tier.fast_ns_per_insn" (ns acc.fast_s);
  metric "tier.t3_ns_per_insn" (ns acc.t3_s);
  acc.mismatches

(* ---- per-workload set-up, op loop and traced extras ---- *)

type 'i plan = {
  wl : 'i Runner.workload;
  extras : 'i -> submit_s:float -> int;
      (* traced run only, untimed: report the workload's extra per-layer
         metrics; returns the number of wrong results found *)
}

let serve_plan a =
  let round_ops = Serve_wl.round_ops in
  let _, traffic = Serve_wl.traffic ~seed:a.seed round_ops in
  let wl = Serve_wl.workload ~seed:a.seed ~domains:a.domains in
  let extras fleet ~submit_s =
    let s = R2c_runtime.Fleet.stats fleet and p = R2c_runtime.Fleet.pool_totals fleet in
    let module F = R2c_runtime.Fleet in
    let module P = R2c_runtime.Pool in
    let count name v = metric name (float_of_int v) in
    count "pool.recycles" p.P.recycles;
    count "pool.restarts" p.P.restarts;
    count "pool.crashes" p.P.crashes;
    count "pool.retried" p.P.retried;
    count "pool.rerandomizations" p.P.rerandomizations;
    count "fleet.hedges" s.F.hedges;
    count "fleet.shed" s.F.shed;
    count "fleet.rotations" s.F.rotations;
    count "fleet.quarantines" s.F.quarantines;
    (* The serving loop outside the fleet, without and with the chaos
       injector a shard worker runs under. *)
    let img = Serve_wl.shard_image ~seed:a.seed in
    let plain = Serve_wl.replay img traffic in
    let inject =
      Inject.create ~rates:R2c_harness.Fleetbench.light_rates ~seed:(a.seed * 1009) ()
    in
    let chaos = Serve_wl.replay ~inject img traffic in
    let ns r = ratio (r.Serve_wl.run_until_s *. 1e9) (float_of_int r.Serve_wl.insns) in
    metric "run_until.ns_per_insn" (ns plain);
    metric "run_until.inject_ns_per_insn" (ns chaos);
    metric "run_until.share"
      (ratio (chaos.Serve_wl.run_until_s /. float_of_int round_ops) submit_s);
    metric "load.ms" (ratio (plain.Serve_wl.restart_s *. 1e3) (float_of_int plain.Serve_wl.restarts));
    metric "load.count" (per plain.Serve_wl.restarts round_ops);
    (* The whole serving loop as one run on each tier. *)
    let acc = tier_acc () in
    let input = Array.to_list (Array.sub traffic 0 (min (Array.length traffic) 4000)) in
    run_tiers acc ~input ~fuel:200_000_000 img;
    report_tiers acc
  in
  { wl; extras }

let spec_plan a =
  let programs = Spec_wl.prepare () in
  let wl = Spec_wl.workload ~seed:a.seed programs in
  let extras (inst : Spec_wl.inst) ~submit_s:_ =
    let acc = tier_acc () in
    Array.iteri
      (fun k img -> run_tiers acc ~jit_cache:inst.Spec_wl.caches.(k) ~fuel:Spec_wl.fuel img)
      inst.Spec_wl.imgs;
    report_tiers acc
  in
  { wl; extras }

let wide_plan a =
  let w = Wide_wl.prepare ~seed:a.seed in
  let wl = Wide_wl.workload ~domains:a.domains w in
  let extras (inst : Wide_wl.inst) ~submit_s:_ =
    let acc = tier_acc () in
    Array.iter
      (fun ls ->
        let img, _ =
          R2c_core.Pipeline.compile_incremental ~jobs:a.domains inst.Wide_wl.rerand
            (Wide_wl.coords ls) w.Wide_wl.program
        in
        run_tiers acc ~fuel:Wide_wl.fuel img)
      (Array.sub w.Wide_wl.link_seeds 0 (min 2 (Array.length w.Wide_wl.link_seeds)));
    report_tiers acc
  in
  { wl; extras }

(* ---- the run ---- *)

(* op_tail_ms is the highest percentile with at least ten samples
   beyond it. Where a round holds enough ops for that to be deep (serve's
   25,000 requests), it is taken over each request's median replay
   across the rounds: it then names the requests that are slow by their
   own work (recycles, respawns, the rotation) rather than those the
   host happened to stall once. Otherwise (spec's 12 programs, wide's 8
   rotations) it is taken over every op of the run. The same percentile
   over every op of the run is printed beside it, so that stalls the
   median replay filters out still show. *)
let op_tail rounds =
  let typical = Runner.typical rounds and all = Runner.sorted (Runner.all_lat rounds) in
  let lat, what =
    if Array.length typical >= 1000 then (Runner.sorted typical, "the median replays of each round's")
    else (all, "the run's")
  in
  let p, beyond, v = Runner.tail lat in
  Printf.printf "op_tail_ms is p%g of %s %d ops (%d beyond it)\n" p what (Array.length lat) beyond;
  Printf.printf "op_tail_raw_ms p%g of all %d ops = %.6f\n" p (Array.length all)
    (Runner.pct all p *. 1e3);
  v

let end_to_end st rounds =
  metric "setup_s" (Runner.median st.Runner.setup_s);
  metric "ops_per_s" (Runner.ops_per_s rounds);
  metric "op_p50_ms" (Runner.pct (Runner.sorted (Runner.all_lat rounds)) 50.0 *. 1e3);
  metric "op_tail_ms" (op_tail rounds *. 1e3);
  (* Derived on serve: served requests times one per-request count (see
     Serve_wl.insns_per_request), so it moves with ops_per_s there. *)
  metric "sim_minsns_per_s" (Runner.insns_per_s rounds /. 1e6);
  metric "ok_share" (per st.Runner.ok st.Runner.attempted);
  metric "peak_rss_mb" (Runner.peak_rss_mb ())

let per_layer a ~untraced ~traced ~gc0 ~gc1 ~t_traced =
  let spans = Span.all () in
  let agg = Span.aggregate spans in
  let get name = Hashtbl.find_opt agg name in
  let mean_ms name =
    match get name with Some g -> ratio (g.Span.total *. 1e3) (float_of_int g.Span.count) | None -> 0.0
  in
  let count name = match get name with Some g -> g.Span.count | None -> 0 in
  let ops = Runner.ops traced in
  List.iter (fun n -> metric (n ^ ".ms") (mean_ms n)) [ "instrument"; "validate"; "emit"; "link" ];
  metric "build.count" (per (count "build") (count "setup"));
  let c = Layers.c in
  metric "rebuild.ms" (mean_ms "rebuild");
  metric "rebuild.hits" (per c.Layers.hits c.Layers.rebuilds);
  metric "rebuild.misses" (per c.Layers.misses c.Layers.rebuilds);
  if a.workload <> "serve" then begin
    metric "load.ms" (mean_ms "load");
    metric "load.count" (per (count "load") ops)
  end;
  metric "exec.ms" (mean_ms "exec");
  metric "exec.insns" (per c.Layers.exec_insns c.Layers.execs);
  metric "exec.ns_per_insn"
    (match get "exec" with
    | Some g -> ratio (g.Span.total *. 1e9) (float_of_int c.Layers.exec_insns)
    | None -> 0.0);
  metric "jit.compiled" (per c.Layers.jit_compiled ops);
  metric "jit.tier3_share" (per c.Layers.tier3_insns (c.Layers.tier3_insns + c.Layers.interp_insns));
  metric "jit.osr_enters" (per c.Layers.osr_enters ops);
  metric "jit.deopts" (per c.Layers.deopts ops);
  metric "fleet.submit_ms" (mean_ms "fleet.submit");
  let words (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
  metric "gc.alloc_mb" (ratio ((words gc1 -. words gc0) *. 8.0 /. 1e6) (float_of_int ops));
  metric "gc.major"
    (ratio (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) *. 1e3) (float_of_int ops));
  (* Self time of each layer inside the traced ops, as a share of the
     traced op time; [trace.coverage] is the share the layer spans
     account for at all. *)
  let by_id = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace by_id s.Span.id s) spans;
  let rec root (s : Span.t) =
    if s.Span.parent < 0 then s else match Hashtbl.find_opt by_id s.Span.parent with Some p -> root p | None -> s
  in
  let in_ops = List.filter (fun s -> Int64.compare s.Span.start t_traced >= 0 && (root s).Span.name = "op") spans in
  let ops_agg = Span.aggregate in_ops in
  let op_time = match Hashtbl.find_opt ops_agg "op" with Some g -> g.Span.total | None -> 0.0 in
  let self name = match Hashtbl.find_opt ops_agg name with Some g -> ratio g.Span.self op_time | None -> 0.0 in
  List.iter
    (fun n -> metric (n ^ ".self_share") (self n))
    [ "fleet.submit"; "build"; "instrument"; "validate"; "emit"; "link"; "rebuild"; "load"; "exec" ];
  metric "trace.coverage" (1.0 -. self "op");
  metric "trace.ops_ratio"
    (ratio (Runner.ops_per_s traced) (Runner.ops_per_s untraced));
  mean_ms "fleet.submit" /. 1e3

let execute a plan =
  let st = Runner.create () in
  if not a.trace then begin
    let inst = Runner.timed_setup st plan.wl in
    let _, rounds = Runner.timed st plan.wl inst ~seconds:a.seconds in
    end_to_end st rounds;
    (st, 0)
  end
  else begin
    Span.enabled := true;
    let inst = Runner.timed_setup st plan.wl in
    Span.enabled := false;
    let inst, untraced = Runner.timed st plan.wl inst ~seconds:(a.seconds /. 2.0) in
    Layers.reset ();
    Gc.compact ();
    let gc0 = Gc.quick_stat () in
    let t_traced = Span.now_ns () in
    Span.enabled := true;
    let inst, traced = Runner.timed st plan.wl inst ~seconds:(a.seconds /. 2.0) in
    Span.enabled := false;
    let gc1 = Gc.quick_stat () in
    let submit_s = per_layer a ~untraced ~traced ~gc0 ~gc1 ~t_traced in
    let extra_wrong = plan.extras inst ~submit_s in
    (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf "perfbench/out/spans-%s-%d.jsonl" a.workload a.seed in
    Span.write_jsonl ~origin:t_traced path (Span.all ());
    Printf.printf "spans written to %s\n" path;
    List.iter
      (fun (n, u) -> Printf.printf "layer %s.%s = %g %s\n" n a.workload (value n) u)
      per_layer_names;
    (st, extra_wrong)
  end

let () =
  let a = parse Sys.argv in
  let env k = Option.value (Sys.getenv_opt k) ~default:"unset" in
  Printf.printf
    "perfbench workload=%s seed=%d seconds=%g trace=%d R2C_JIT=%s R2C_JOBS=%s domains=%d\n%!"
    a.workload a.seed a.seconds (Bool.to_int a.trace) (env "R2C_JIT") (env "R2C_JOBS") a.domains;
  (* A run without tier 3 must not pass as a baseline. *)
  if not (Jit.enabled ()) then begin
    prerr_endline "perfbench: R2C_JIT disables tier 3; refusing to run";
    exit 2
  end;
  let st, extra_wrong =
    match a.workload with
    | "serve" -> execute a (serve_plan a)
    | "spec" -> execute a (spec_plan a)
    | _ -> execute a (wide_plan a)
  in
  Printf.printf "digest %s %s\n" a.workload (Runner.digest st);
  let failed = st.Runner.wrong + extra_wrong in
  print_endline
    (json_result
       (if a.trace then per_layer_names else end_to_end_names)
       ~correct:(failed = 0) ~attempted:(max 1 st.Runner.attempted) ~failed)
