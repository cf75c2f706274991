(* E-JIT: the three-tier comparison. Every SPEC-like workload under full
   R2C runs through the reference dispatch, the fast interpreter, and
   tier 3 (template JIT, steady-state: the timed run reuses the code
   cache a warm-up run populated, exactly as a respawned fleet worker
   does), asserting bit-identical counters across all three and gating
   the tier-3 wall-clock win over the reference tier. *)

module Pipeline = R2c_core.Pipeline
module Dconfig = R2c_core.Dconfig
module Spec = R2c_workloads.Spec
module Parallel = R2c_util.Parallel
open R2c_machine
module J = R2c_obs.Json

type row = {
  name : string;
  insns : int;
  cycles_bits : int64;  (* exact: Int64.bits_of_float of the cycle total *)
  icache_misses : int;
  identical : bool;  (* all three tiers bit-identical on this workload *)
  compiled : int;  (* functions compiled by the warm + timed runs *)
  entry_enters : int;
  osr_enters : int;
  deopts : int;
  tier3_insns : int;
  interp_insns : int;
}

type report = {
  seed : int;
  config : string;
  fuel : int;
  rows : row list;
  identical : bool;
  compiled_total : int;
  osr_total : int;
  tier3_share : float;  (* fraction of JIT-run instructions retired in tier 3 *)
}

type timing = {
  ref_ms : float;
  fast_ms : float;
  jit_ms : float;
  speedup_fast : float;  (* reference / fast *)
  speedup_jit : float;  (* reference / tier-3 *)
}

(* Everything the contract pins down: counters, architectural effects,
   and the run result. Cycles compared as IEEE bits — "close" is a bug. *)
type fingerprint = {
  fp_result : Cpu.run_result;
  fp_cycles : int64;
  fp_insns : int;
  fp_misses : int;
  fp_accesses : int;
  fp_max_depth : int;
  fp_exit : int;
  fp_out : string;
}

let fingerprint (c : Cpu.t) (r : Cpu.run_result) =
  {
    fp_result = r;
    fp_cycles = Int64.bits_of_float c.Cpu.cycles;
    fp_insns = c.Cpu.insns;
    fp_misses = Icache.misses c.Cpu.icache;
    fp_accesses = Icache.accesses c.Cpu.icache;
    fp_max_depth = c.Cpu.max_depth;
    fp_exit = c.Cpu.exit_code;
    fp_out = Cpu.output c;
  }

let now () = Unix.gettimeofday ()

let run ?(seed = 3) ?(config = "full") ?(fuel = 50_000_000) ?jobs () =
  let cfg =
    match config with
    | "baseline" -> Dconfig.baseline
    | "full" -> Dconfig.full ()
    | "full-checked" -> Dconfig.full_checked
    | "layout" -> Dconfig.layout_only
    | name -> invalid_arg ("jitbench: unknown config " ^ name)
  in
  let benches = Spec.all () in
  (* Image compilation fans out over the Domain pool; the measured runs
     below stay serial so the timings mean something. *)
  let images =
    Parallel.map ?jobs
      (fun (b : Spec.benchmark) -> (b, Pipeline.compile ~seed cfg b.Spec.program))
      benches
  in
  let settle () = Gc.full_major () in
  let profile = Cost.epyc_rome in
  let t_ref = ref 0.0 and t_fast = ref 0.0 and t_jit = ref 0.0 in
  let rows =
    List.map
      (fun ((b : Spec.benchmark), img) ->
        let cache = Jit.create_cache ~profile img in
        (* Warm-up: populates the code cache (and the host's). The timed
           tier-3 leg below is the steady state a fleet worker respawning
           onto a shared cache sees. *)
        ignore (Cpu.run (Loader.load ~jit:true ~jit_cache:cache ~profile img) ~fuel);
        settle ();
        let c_ref = Loader.load ~jit:false ~profile img in
        let t0 = now () in
        let r_ref = Cpu.run_reference c_ref ~fuel in
        t_ref := !t_ref +. (now () -. t0);
        let fp_ref = fingerprint c_ref r_ref in
        settle ();
        let c_fast = Loader.load ~jit:false ~profile img in
        let t0 = now () in
        let r_fast = Cpu.run c_fast ~fuel in
        t_fast := !t_fast +. (now () -. t0);
        let fp_fast = fingerprint c_fast r_fast in
        settle ();
        let c_jit = Loader.load ~jit:true ~jit_cache:cache ~profile img in
        let t0 = now () in
        let r_jit = Cpu.run c_jit ~fuel in
        t_jit := !t_jit +. (now () -. t0);
        let fp_jit = fingerprint c_jit r_jit in
        let st = Jit.cache_stats cache in
        {
          name = b.Spec.name;
          insns = fp_jit.fp_insns;
          cycles_bits = fp_jit.fp_cycles;
          icache_misses = fp_jit.fp_misses;
          identical = fp_ref = fp_fast && fp_ref = fp_jit;
          compiled = st.Jit.compiled;
          entry_enters = st.Jit.entry_enters;
          osr_enters = st.Jit.osr_enters;
          deopts = st.Jit.deopts;
          tier3_insns = st.Jit.tier3_insns;
          interp_insns = st.Jit.interp_insns;
        })
      images
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rows in
  let t3 = sum (fun r -> r.tier3_insns) and cold = sum (fun r -> r.interp_insns) in
  let report =
    {
      seed;
      config;
      fuel;
      rows;
      identical = List.for_all (fun (r : row) -> r.identical) rows;
      compiled_total = sum (fun r -> r.compiled);
      osr_total = sum (fun r -> r.osr_enters);
      tier3_share =
        (if t3 + cold = 0 then 0.0
         else float_of_int t3 /. float_of_int (t3 + cold));
    }
  in
  let ref_ms = !t_ref *. 1000.0
  and fast_ms = !t_fast *. 1000.0
  and jit_ms = !t_jit *. 1000.0 in
  let timing =
    {
      ref_ms;
      fast_ms;
      jit_ms;
      speedup_fast = (if fast_ms > 0.0 then ref_ms /. fast_ms else 0.0);
      speedup_jit = (if jit_ms > 0.0 then ref_ms /. jit_ms else 0.0);
    }
  in
  (report, timing)

let gate ~min_speedup (r, t) =
  let checks =
    [
      ("all three tiers bit-identical on every workload", r.identical);
      ( "every workload compiled at least one hot function",
        List.for_all (fun row -> row.compiled > 0) r.rows );
      ("compiled code entered via OSR at least once", r.osr_total > 0);
      ( Printf.sprintf "tier 3 retired >= 50%% of JIT-run instructions (got %.1f%%)"
          (100.0 *. r.tier3_share),
        r.tier3_share >= 0.5 );
    ]
    @
    if min_speedup <= 0.0 then []
    else
      let floor = max min_speedup 1.0 in
      [
        ( Printf.sprintf "tier 3 >= %.0fx over the reference tier (got %.2fx)" floor
            t.speedup_jit,
          t.speedup_jit >= floor );
      ]
  in
  List.filter_map (fun (what, ok) -> if ok then None else Some what) checks

let json r =
  let row_json row =
    J.Obj
      [
        ("name", J.Str row.name);
        ("insns", J.Int row.insns);
        ("cycles_bits", J.Str (Printf.sprintf "%016Lx" row.cycles_bits));
        ("icache_misses", J.Int row.icache_misses);
        ("identical", J.Bool row.identical);
        ("compiled", J.Int row.compiled);
        ("entry_enters", J.Int row.entry_enters);
        ("osr_enters", J.Int row.osr_enters);
        ("deopts", J.Int row.deopts);
        ("tier3_insns", J.Int row.tier3_insns);
        ("interp_insns", J.Int row.interp_insns);
      ]
  in
  J.Obj
    [
      ("seed", J.Int r.seed);
      ("config", J.Str r.config);
      ("fuel", J.Int r.fuel);
      ("identical", J.Bool r.identical);
      ("compiled_total", J.Int r.compiled_total);
      ("osr_total", J.Int r.osr_total);
      ("tier3_share", J.Float r.tier3_share);
      ("workloads", J.Arr (List.map row_json r.rows));
    ]

let timing_json t =
  [
    ("ref_ms", J.Float t.ref_ms);
    ("fast_ms", J.Float t.fast_ms);
    ("jit_ms", J.Float t.jit_ms);
    ("speedup_fast", J.Float t.speedup_fast);
    ("speedup_jit", J.Float t.speedup_jit);
  ]

let print (r, t) =
  List.iter
    (fun row ->
      Printf.printf
        "%-12s %9d insns  compiled %3d  entries %7d (osr %5d, deopts %3d)  tier3 \
         %5.1f%%  identical=%b\n"
        row.name row.insns row.compiled
        (row.entry_enters + row.osr_enters)
        row.osr_enters row.deopts
        (let tot = row.tier3_insns + row.interp_insns in
         if tot = 0 then 0.0
         else 100.0 *. float_of_int row.tier3_insns /. float_of_int tot)
        row.identical)
    r.rows;
  Printf.printf
    "TOTAL ref %.1fms fast %.1fms (%.2fx) jit %.1fms (%.2fx)  tier3 share %.1f%%  \
     identical=%b\n"
    t.ref_ms t.fast_ms t.speedup_fast t.jit_ms t.speedup_jit
    (100.0 *. r.tier3_share) r.identical
