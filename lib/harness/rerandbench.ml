module Genprog = R2c_workloads.Genprog
module Pipeline = R2c_core.Pipeline
module Dconfig = R2c_core.Dconfig
module Incremental = R2c_compiler.Incremental
module Image = R2c_machine.Image
module J = R2c_obs.Json

type report = {
  funcs : int;
  config : string;
  body_seed : int;
  base_link_seed : int;
  rotations : int;
  checked : int;
  identical : bool;
  warm_misses : int;
  rotation_hits : int;
  rotation_misses : int;
  edit_misses : int;
  edit_missed : string list;
  edit_identical : bool;
  cache_entries : int;
}

type timing = { cold_ms : float; incr_ms : float; speedup : float }

let config_of_name = function
  | "baseline" -> Dconfig.baseline
  | "full" -> Dconfig.full ()
  | "full-checked" -> Dconfig.full_checked
  | "layout" -> Dconfig.layout_only
  | name -> invalid_arg ("rerandbench: unknown config " ^ name)

(* The single-function IR edit of the edit-step: one more local variable.
   It grows the function's frame, so the recompiled body genuinely
   differs, and it perturbs no other function's diversification slice —
   the rebuild must miss exactly this function. *)
let edit_one (p : Ir.program) =
  let victim = List.nth p.funcs (List.length p.funcs / 2) in
  let funcs =
    List.map
      (fun (f : Ir.func) ->
        if f == victim then { f with Ir.nvars = f.nvars + 1 } else f)
      p.funcs
  in
  ({ p with Ir.funcs }, victim.Ir.name)

let now () = Unix.gettimeofday ()

let run ?(funcs = 10_000) ?(config = "full") ?(body_seed = 3) ?(base_link_seed = 100)
    ?(rotations = 4) ?(checked = 2) ?jobs () =
  let cfg = config_of_name config in
  let p = Genprog.generate ~seed:body_seed ~funcs in
  let coords ls = { Pipeline.cfg; body_seed; link_seed = Some ls } in
  (* Each timed region starts from a collected heap: the untimed
     reference compiles and fingerprint forcings between them leave tens
     of megabytes of garbage, and without the barrier the next timed
     build pays the previous phase's collection debt. *)
  let settle () = Gc.full_major () in
  (* Cold reference at the base coordinates. *)
  settle ();
  let t0 = now () in
  let cold = Pipeline.compile_cold (coords base_link_seed) p in
  let cold_ms = (now () -. t0) *. 1000.0 in
  let cold_fp = Image.fingerprint cold in
  (* Warm build: populates the cache (every function misses once). *)
  let r = Pipeline.rerand_create () in
  let warm, warm_stats = Pipeline.compile_incremental ?jobs r (coords base_link_seed) p in
  let warm_fp = Image.fingerprint warm in
  (* Steady-state rotations: only the link seed moves. *)
  let rot_hits = ref 0 and rot_misses = ref 0 and incr_total = ref 0.0 in
  let identical = ref (String.equal warm_fp cold_fp) in
  for i = 1 to rotations do
    let c = coords (base_link_seed + i) in
    settle ();
    let t0 = now () in
    let img, stats = Pipeline.compile_incremental ?jobs r c p in
    incr_total := !incr_total +. ((now () -. t0) *. 1000.0);
    rot_hits := !rot_hits + stats.Incremental.hits;
    rot_misses := !rot_misses + stats.Incremental.misses;
    (* Differential spot checks: a cold compile at sampled rotation
       coordinates must fingerprint-match the incremental rebuild. *)
    if i <= checked then begin
      let cold_i = Pipeline.compile_cold c p in
      if not (String.equal (Image.fingerprint cold_i) (Image.fingerprint img)) then
        identical := false
    end
  done;
  let incr_ms = !incr_total /. float_of_int (max 1 rotations) in
  (* Edit step: one function's IR changes; the rebuild recompiles it and
     nothing else, and still matches a cold compile of the edited
     program. *)
  let p2, _victim = edit_one p in
  let c2 = coords (base_link_seed + rotations + 1) in
  let img2, stats2 = Pipeline.compile_incremental ?jobs r c2 p2 in
  let edit_identical =
    String.equal (Image.fingerprint (Pipeline.compile_cold c2 p2)) (Image.fingerprint img2)
  in
  let report =
    {
      funcs;
      config;
      body_seed;
      base_link_seed;
      rotations;
      checked;
      identical = !identical;
      warm_misses = warm_stats.Incremental.misses;
      rotation_hits = !rot_hits;
      rotation_misses = !rot_misses;
      edit_misses = stats2.Incremental.misses;
      edit_missed = stats2.Incremental.missed;
      edit_identical;
      cache_entries = Incremental.size (Pipeline.rerand_cache r);
    }
  in
  let timing =
    { cold_ms; incr_ms; speedup = (if incr_ms > 0.0 then cold_ms /. incr_ms else 0.0) }
  in
  (report, timing)

let gate ~min_speedup (r, t) =
  let checks =
    [
      ("byte-identical to cold compile at every checked rotation", r.identical);
      ("edit rebuild byte-identical to cold compile", r.edit_identical);
      ("warm build compiles every function once", r.warm_misses >= r.funcs);
      ("rotations hit the cache for every function", r.rotation_misses = 0);
      ( "edit rebuild recompiles exactly one function",
        r.edit_misses = 1 && List.length r.edit_missed = 1 );
    ]
    @
    if min_speedup <= 0.0 then []
    else
      let floor = max min_speedup 1.0 in
      [
        ( Printf.sprintf "incremental rebuild >= %.0fx faster than cold (got %.1fx)" floor
            t.speedup,
          t.speedup >= floor );
      ]
  in
  List.filter_map (fun (what, ok) -> if ok then None else Some what) checks

let json r =
  J.Obj
    [
      ("funcs", J.Int r.funcs);
      ("config", J.Str r.config);
      ("body_seed", J.Int r.body_seed);
      ("base_link_seed", J.Int r.base_link_seed);
      ("rotations", J.Int r.rotations);
      ("checked", J.Int r.checked);
      ("identical", J.Bool r.identical);
      ("warm_misses", J.Int r.warm_misses);
      ("rotation_hits", J.Int r.rotation_hits);
      ("rotation_misses", J.Int r.rotation_misses);
      ("edit_misses", J.Int r.edit_misses);
      ("edit_missed", J.Arr (List.map (fun s -> J.Str s) r.edit_missed));
      ("edit_identical", J.Bool r.edit_identical);
      ("cache_entries", J.Int r.cache_entries);
    ]

let timing_json t =
  [
    ("cold_ms", J.Float t.cold_ms);
    ("incr_ms", J.Float t.incr_ms);
    ("speedup", J.Float t.speedup);
  ]

let print (r, t) =
  Printf.printf
    "rerand: %d funcs (%s), %d rotations: cold %.0f ms, incremental %.1f ms (%.1fx), \
     %d/%d rotation hits, edit recompiled %d, identical=%b\n"
    r.funcs r.config r.rotations t.cold_ms t.incr_ms t.speedup r.rotation_hits
    (r.rotation_hits + r.rotation_misses) r.edit_misses
    (r.identical && r.edit_identical)
