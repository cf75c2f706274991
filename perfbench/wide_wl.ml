(* wide: a wide, flat profile where tiering loses. One op is one
   link-seed rotation of a 2,000-function Genprog (seed 3, full R2C)
   through a shared [Pipeline.compile_incremental] handle (a cache-hit
   relink), then [Loader.load] with a fresh JIT cache and [Cpu.run] to
   exit. A round walks the link seeds drawn from the benchmark seed.
   Set-up is the cold build: the phase-by-phase build at the first
   coordinates plus the incremental build that fills the cache. *)

module Pipeline = R2c_core.Pipeline
module Dconfig = R2c_core.Dconfig
module Genprog = R2c_workloads.Genprog
module Rng = R2c_util.Rng
open R2c_machine

let funcs = 2000
let round_ops = 8
let body_seed = 3
let fuel = 200_000_000
let profile = Cost.epyc_rome
let cfg = Dconfig.full ()
let coords ls = { Pipeline.cfg; body_seed; link_seed = Some ls }

type prepared = {
  program : Ir.program;
  expected : string;  (* Interp's exit code and output *)
  link_seeds : int array;
  cold_fp : string;  (* Pipeline.compile_cold at the first coordinates *)
}

let observable ~exit_code out = Printf.sprintf "exit:%d\n%s" exit_code out

(* References, outside every timed region. *)
let prepare ~seed =
  let program = Genprog.generate ~seed:body_seed ~funcs in
  let expected =
    match Interp.run ~fuel program with
    | Ok o -> observable ~exit_code:o.Interp.exit_code o.Interp.output
    | Error e -> "interp: " ^ Interp.error_to_string e
  in
  let rng = Rng.create seed in
  let link_seeds = Array.init round_ops (fun _ -> Rng.int rng 1_000_000_000) in
  let cold_fp = Image.fingerprint (Pipeline.compile_cold (coords link_seeds.(0)) program) in
  { program; expected; link_seeds; cold_fp }

type inst = {
  rerand : Pipeline.rerand;
  mutable fresh : (Image.t * Image.t) option;  (* set-up's two builds, until checked *)
}

let workload ~domains w =
  let setup () =
    let c0 = coords w.link_seeds.(0) in
    let cold = Build.phased ?link_seed:c0.Pipeline.link_seed ~seed:body_seed cfg w.program in
    let rerand = Pipeline.rerand_create () in
    let filled, _ =
      Span.with_span "rebuild" (fun () ->
          Pipeline.compile_incremental ~jobs:domains rerand c0 w.program)
    in
    { rerand; fresh = Some (cold, filled) }
  in
  (* The phased build must be the real build, and the cache fill must
     be byte-identical to it. *)
  let check_setup inst =
    match inst.fresh with
    | Some (cold, filled) ->
        inst.fresh <- None;
        String.equal (Image.fingerprint cold) w.cold_fp
        && String.equal (Image.fingerprint filled) w.cold_fp
    | None -> false
  in
  let op inst i =
    let img, st =
      Span.with_span "rebuild" (fun () ->
          Pipeline.compile_incremental ~jobs:domains inst.rerand (coords w.link_seeds.(i))
            w.program)
    in
    Layers.rebuild st;
    let cache = Jit.create_cache ~profile img in
    let cpu = Span.with_span "load" (fun () -> Loader.load ~jit:true ~jit_cache:cache ~profile img) in
    let r = Layers.exec cache cpu (fun () -> Span.with_span "exec" (fun () -> Cpu.run cpu ~fuel)) in
    let right =
      r = Cpu.Halted && cpu.Cpu.exit_code = 0
      && String.equal (observable ~exit_code:cpu.Cpu.exit_code (Cpu.output cpu)) w.expected
    in
    {
      Runner.ok = right;
      wrong = not right;
      insns = cpu.Cpu.insns;
      record = Spec_wl.fingerprint cpu r;
    }
  in
  {
    Runner.round_ops = Array.length w.link_seeds;
    fresh_per_round = false;
    setup;
    check_setup;
    op;
    round_summary = (fun _ -> ("", true));
  }
