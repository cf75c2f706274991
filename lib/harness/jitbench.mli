(** E-JIT: three-tier comparison on the SPEC-like workload set.

    Each workload is compiled once under a diversity config, then run
    through all three execution tiers:

    - {b reference}: {!R2c_machine.Cpu.run_reference}, the plain decoded
      interpreter the validator trusts;
    - {b fast}: {!R2c_machine.Cpu.run} with the JIT disabled — the
      predecoded interpreter;
    - {b tier 3}: {!R2c_machine.Cpu.run} with the template JIT attached,
      timed in steady state: the timed run shares the code cache a
      warm-up run populated, the regime a respawning fleet worker is in
      (see {!R2c_machine.Process.restart}).

    The three-way bit-identicality contract is asserted per workload
    (cycles as IEEE-754 bits, instruction and icache counters, call
    depth, output, exit code, run result), and the gate additionally
    demands a wall-clock floor for tier 3 over the reference tier. *)

type row = {
  name : string;
  insns : int;
  cycles_bits : int64;  (** [Int64.bits_of_float] of the cycle total *)
  icache_misses : int;
  identical : bool;  (** all three tiers bit-identical on this workload *)
  compiled : int;  (** functions compiled (warm + timed runs) *)
  entry_enters : int;  (** tier-3 entries at function entry *)
  osr_enters : int;  (** tier-3 entries at loop backedges (OSR) *)
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
  tier3_share : float;
      (** fraction of instructions the JIT-attached runs retired in
          compiled code (warm-up included) *)
}

type timing = {
  ref_ms : float;
  fast_ms : float;
  jit_ms : float;
  speedup_fast : float;  (** reference / fast *)
  speedup_jit : float;  (** reference / tier 3 *)
}

(** [run ?seed ?config ?fuel ?jobs ()] — compile the 12 workloads
    ([?jobs] fans the compilations over the domain pool; the measured
    runs are always serial) and produce the report plus wall-clock
    timings. Defaults: seed 3, config ["full"], fuel 50M. *)
val run :
  ?seed:int -> ?config:string -> ?fuel:int -> ?jobs:int -> unit -> report * timing

(** [gate ~min_speedup (r, t)] — failure strings, empty when the run
    passes. Deterministic checks (three-way identity everywhere, every
    workload compiled something, OSR actually exercised, tier-3
    instruction share >= 50%) always apply; with [min_speedup > 0]
    tier 3 must also beat the reference tier by [max min_speedup 1]
    times. *)
val gate : min_speedup:float -> report * timing -> string list

(** [json r] — the one-line summary (deterministic fields). *)
val json : report -> R2c_obs.Json.t

(** The timing fields, for the JSON line's volatile tail. *)
val timing_json : timing -> (string * R2c_obs.Json.t) list

val print : report * timing -> unit
