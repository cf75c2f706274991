(* spec: narrow, hot programs on the Cpu/Jit fast path. One op is one
   steady-state run of one of the 12 SPEC-likes (full R2C, seed 3, as
   [experiments jit] builds them): [Loader.load ~jit_cache] on the
   program's warm code cache, then [Cpu.run] to exit. A round runs each
   program once, in an order drawn from the benchmark seed. Set-up
   compiles all 12 phase by phase and runs each once to warm its cache. *)

module Pipeline = R2c_core.Pipeline
module Dconfig = R2c_core.Dconfig
module Spec = R2c_workloads.Spec
module Rng = R2c_util.Rng
open R2c_machine

let build_seed = 3
let fuel = 50_000_000
let profile = Cost.epyc_rome

(* Everything the three-way tier contract pins down, cycles as IEEE
   bits. *)
let fingerprint (c : Cpu.t) (r : Cpu.run_result) =
  Printf.sprintf "%s cycles=%Lx insns=%d misses=%d accesses=%d depth=%d exit=%d out=%s"
    (match r with
    | Cpu.Halted -> "halted"
    | Cpu.Fuel_exhausted -> "fuel"
    | Cpu.Faulted f -> Fault.to_string f)
    (Int64.bits_of_float c.Cpu.cycles) c.Cpu.insns (Icache.misses c.Cpu.icache)
    (Icache.accesses c.Cpu.icache) c.Cpu.max_depth c.Cpu.exit_code
    (Digest.to_hex (Digest.string (Cpu.output c)))

type program = {
  bench : Spec.benchmark;
  reference : string;  (* Cpu.run_reference's fingerprint *)
  sound : bool;  (* phased build = Pipeline.compile, and output = Interp's *)
}

type inst = { imgs : Image.t array; caches : Jit.cache array }

let cfg = Dconfig.full ()
let build (b : Spec.benchmark) = Build.phased ~seed:build_seed cfg b.Spec.program

(* References, outside every timed region. *)
let prepare () =
  Array.of_list
    (List.map
       (fun (b : Spec.benchmark) ->
         let img = build b in
         let c = Loader.load ~jit:false ~profile img in
         let r = Cpu.run_reference c ~fuel in
         let interp_ok =
           match Interp.run b.Spec.program with
           | Ok o -> o.Interp.exit_code = c.Cpu.exit_code && String.equal o.Interp.output (Cpu.output c)
           | Error _ -> false
         in
         {
           bench = b;
           reference = fingerprint c r;
           sound =
             interp_ok && r = Cpu.Halted
             && String.equal (Image.fingerprint img)
                  (Image.fingerprint (Pipeline.compile ~seed:build_seed cfg b.Spec.program));
         })
       (Spec.all ()))

let order ~seed n =
  let a = Array.init n Fun.id in
  Rng.shuffle (Rng.create seed) a;
  a

let run_op inst (p : program) k =
  let cpu = Span.with_span "load" (fun () -> Loader.load ~jit:true ~jit_cache:inst.caches.(k) ~profile inst.imgs.(k)) in
  let r = Layers.exec inst.caches.(k) cpu (fun () -> Span.with_span "exec" (fun () -> Cpu.run cpu ~fuel)) in
  let fp = fingerprint cpu r in
  let right = p.sound && String.equal fp p.reference in
  { Runner.ok = right; wrong = not right; insns = cpu.Cpu.insns; record = p.bench.Spec.name ^ " " ^ fp }

let workload ~seed programs =
  let n = Array.length programs in
  let order = order ~seed n in
  let setup () =
    let imgs = Array.map (fun p -> build p.bench) programs in
    let caches = Array.map (fun img -> Jit.create_cache ~profile img) imgs in
    Array.iteri
      (fun k img -> ignore (Cpu.run (Loader.load ~jit:true ~jit_cache:caches.(k) ~profile img) ~fuel))
      imgs;
    { imgs; caches }
  in
  let op inst i = run_op inst programs.(order.(i)) order.(i) in
  {
    Runner.round_ops = n;
    fresh_per_round = false;
    setup;
    check_setup = (fun _ -> Array.for_all (fun p -> p.sound) programs);
    op;
    round_summary = (fun _ -> ("", true));
  }
