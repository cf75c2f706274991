(** The M64 interpreter.

    Executes a loaded image with full permission checking, the x86-64
    call/ret stack semantics the BTRA scheme builds on (Section 5.1), a
    16-byte stack-alignment check at calls, cycle accounting against a
    {!Cost.profile} (base cost + fetch bandwidth + icache misses), and the
    call-frequency counter used for Table 2 (tail jumps are not counted,
    matching the paper's instrumentation).

    Library calls are intercepted at dedicated text addresses
    ({!Image.builtin_names}); they model the unprotected glibc of
    Section 7.4.1. *)

(** Per-step observation hook, fired after each retired instruction with
    the instruction's address ([rip], pre-step), the cycle and icache-miss
    deltas it charged, and whether it transferred control via call. On a
    faulting step the hook fires once (with [called:false]) before the
    fault propagates, so post-mortem rings capture the detonating
    instruction. When [None] — the default — stepping takes the bare
    interpreter path and cycle totals are bit-identical to an unobserved
    run. *)
type observer = rip:int -> cycles:float -> misses:int -> called:bool -> unit

type run_result = Halted | Fuel_exhausted | Faulted of Fault.t

type t = {
  mem : Mem.t;
  heap : Heap.t;
  image : Image.t;
  regs : int array;  (** 16 GPRs, indexed by [Insn.reg_index] *)
  ymm : int array;  (** 16 vector registers x 8 words (zmm width) *)
  mutable rip : int;
  mutable cmp_l : int;
  mutable cmp_r : int;
  mutable cycles : float;
  mutable insns : int;
  mutable calls : int;
  mutable depth : int;  (** current call depth (calls minus returns) *)
  mutable max_depth : int;  (** peak call depth over the run *)
  mutable halted : bool;
  mutable exit_code : int;
  profile : Cost.profile;
  icache : Icache.t;
  out : Buffer.t;  (** output of print_int / print_str *)
  input : string Queue.t;  (** bytes consumed by read_input *)
  mutable sensitive_log : (int * int) list;
      (** (rdi, rsi) of every [sensitive] builtin call — the
          attacker-success detector *)
  mutable strict_align : bool;
      (** check 16-byte stack alignment at every call (off by default:
          real hardware only faults on aligned vector accesses; test
          suites enable it to catch frame-layout bugs) *)
  shadow : int list ref;
      (** the backward-edge-CFI shadow stack, active when the image was
          deployed with [shadow_stack] (Section 8.2) *)
  inject : Inject.t option;
      (** chaos fault injector; [None] (the default) leaves execution
          untouched *)
  mutable observer : observer option;
      (** per-step hook ({!set_observer}); [None] (the default) costs
          nothing *)
  mutable btap : (t -> string -> unit) option;
      (** builtin-boundary tap ({!set_builtin_tap}); [None] (the default)
          costs nothing *)
  mutable tier3 : (t -> fuel:int -> run_result) option;
      (** the tier-3 JIT runner, installed by [Jit.attach] ({!set_tier3});
          [None] (the default) makes {!run} fall back to the fast
          interpreter tier *)
}

(** [create ?strict_align ?inject ?icache ~profile ~mem ~heap image ~rip
    ~rsp] — registers zeroed except RSP. [?icache] reuses an instruction
    cache (reset here, so it reads as a fresh one) built for the same
    [profile]; by default a new one is made. *)
val create :
  ?strict_align:bool ->
  ?inject:Inject.t ->
  ?icache:Icache.t ->
  profile:Cost.profile -> mem:Mem.t -> heap:Heap.t -> Image.t -> rip:int -> rsp:int -> t

val reg_get : t -> Insn.reg -> int
val reg_set : t -> Insn.reg -> int -> unit

(** [step t] executes one instruction on the reference (hash-probing)
    dispatch, firing the observer if one is attached. Raises
    {!Fault.Fault}. *)
val step : t -> unit

(** [step_fast t] — {!step} on the predecoded fetch of the fast tier,
    calling the injector's hooks in the same order; the serving path uses
    it to step off a break address without building [Image.code]. With an
    observer attached it is {!step}. Raises {!Fault.Fault}. *)
val step_fast : t -> unit

(** [set_observer t obs] attaches (or, with [None], detaches) the per-step
    hook. At most one observer slot exists; attaching replaces the previous
    one. Callers that need several hooks compose them into one with
    {!R2c_obs.Sink.tee} (or by hand) before attaching — {!Trace.attach} and
    [R2c_obs.Profile.attach] do that for you under [~tee:true]. *)
val set_observer : t -> observer option -> unit

(** Builtin-boundary tap: fired once per intercepted library call
    ([print_int], [read_input], [malloc], [sensitive], ... —
    {!Image.builtin_names}), on both interpreter tiers, immediately after
    the builtin's effect. At tap time the machine state still shows the
    call: arguments in RDI/RSI, the result in RAX, and any bytes a
    [read_input] delivered sitting in memory at RDI — everything a
    workload-capture recorder needs to snapshot the environment boundary.
    The tap charges nothing and never perturbs execution; a builtin whose
    dispatch faulted does not reach it. *)
type builtin_tap = t -> string -> unit

(** [set_builtin_tap t tap] attaches (or, with [None], detaches) the
    builtin-boundary tap. [None] (the default) costs nothing; unlike the
    per-step observer, an attached tap does not force {!run} off the
    predecoded fast path. *)
val set_builtin_tap : t -> builtin_tap option -> unit

(** [run t ~fuel] steps until halt, fault, or [fuel] instructions. Tier
    dispatch: an attached observer forces {!run_reference}, since it must
    see every step. Otherwise tier 3 (the template JIT, when [Jit.attach]
    installed one) runs when no injector is attached, and the predecoded
    fast path runs in every other case, calling the injector's hooks
    inline. All tiers are contractually bit-identical to {!run_reference}
    in cycles, insns, icache misses, faults, output and injector
    decisions. *)
val run : t -> fuel:int -> run_result

(** [set_tier3 t f] installs (or, with [None], removes) the tier-3 runner
    {!run} dispatches to. Use [Jit.attach]/[Jit.detach] rather than
    calling this directly. *)
val set_tier3 : t -> (t -> fuel:int -> run_result) option -> unit

(** [run_reference t ~fuel] — the slow tier of the two-version contract:
    steps via the reference (hash-probing) dispatch regardless of
    attachments. The differential tests run every program through both
    tiers and require identical architectural state and counters. *)
val run_reference : t -> fuel:int -> run_result

(** [run_until t ~fuel ~break] like {!run} but also stops (returning
    [Ok ()]) just before executing the instruction at an address in
    [break]. With no observer it runs on the predecoded fast path, with
    the injector's hooks inline, whether or not an injector is attached;
    a single break address costs one int compare per step and a list of
    several one hash probe. With an observer it steps through {!step}.
    It never enters tier 3. *)
val run_until : t -> fuel:int -> break:int list -> (unit, run_result) result

(** [output t] — program output so far. *)
val output : t -> string

(** Shared interpreter internals for the tier-3 compiler
    ([lib/machine/jit.ml]) only. The JIT's deopt/cold path funnels through
    the exact [execute]/[step_builtin] the interpreter tiers use, so the
    three-way bit-identicality contract rests on one set of semantics. *)
module Internal : sig
  (** [execute t rip insn size] — decode-free core step: icache charge,
      cycle/insn accounting, dispatch. Raises {!Fault.Fault}. *)
  val execute : t -> int -> Insn.t -> int -> unit

  (** [step_builtin t name] — one intercepted library call, including the
      builtin tap and the implicit return. *)
  val step_builtin : t -> string -> unit
end

(** [push_input t s] queues bytes for [read_input]. *)
val push_input : t -> string -> unit
