(* Per-layer counters the workloads add to on every op; the traced run
   reads them over its traced region. *)

open R2c_machine

type t = {
  mutable execs : int;
  mutable exec_insns : int;
  mutable rebuilds : int;
  mutable hits : int;
  mutable misses : int;
  mutable jit_compiled : int;
  mutable osr_enters : int;
  mutable deopts : int;
  mutable tier3_insns : int;
  mutable interp_insns : int;
}

let c =
  {
    execs = 0;
    exec_insns = 0;
    rebuilds = 0;
    hits = 0;
    misses = 0;
    jit_compiled = 0;
    osr_enters = 0;
    deopts = 0;
    tier3_insns = 0;
    interp_insns = 0;
  }

let reset () =
  c.execs <- 0;
  c.exec_insns <- 0;
  c.rebuilds <- 0;
  c.hits <- 0;
  c.misses <- 0;
  c.jit_compiled <- 0;
  c.osr_enters <- 0;
  c.deopts <- 0;
  c.tier3_insns <- 0;
  c.interp_insns <- 0

(* [exec cache f] — run [f], a [Cpu.run] on a CPU attached to [cache],
   counting its instructions and the cache's tier-3 traffic. *)
let exec cache (cpu : Cpu.t) f =
  let s = Jit.cache_stats cache in
  let compiled = s.Jit.compiled and osr = s.Jit.osr_enters and deopts = s.Jit.deopts in
  let t3 = s.Jit.tier3_insns and interp = s.Jit.interp_insns and i0 = cpu.Cpu.insns in
  let r = f () in
  c.execs <- c.execs + 1;
  c.exec_insns <- c.exec_insns + (cpu.Cpu.insns - i0);
  c.jit_compiled <- c.jit_compiled + (s.Jit.compiled - compiled);
  c.osr_enters <- c.osr_enters + (s.Jit.osr_enters - osr);
  c.deopts <- c.deopts + (s.Jit.deopts - deopts);
  c.tier3_insns <- c.tier3_insns + (s.Jit.tier3_insns - t3);
  c.interp_insns <- c.interp_insns + (s.Jit.interp_insns - interp);
  r

let rebuild (st : R2c_compiler.Incremental.stats) =
  c.rebuilds <- c.rebuilds + 1;
  c.hits <- c.hits + st.R2c_compiler.Incremental.hits;
  c.misses <- c.misses + st.R2c_compiler.Incremental.misses
