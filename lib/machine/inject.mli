(** Deterministic fault injection (the chaos half of the supervision
    layer).

    An injector is attached to a process at load time and threads through
    the machine as a set of hooks: per-instruction it may flip a bit in
    writable memory (heap, stack, data — the soft-error / rowhammer model)
    or synthesize a spurious crash; per 64-bit data load it may corrupt the
    value read; per run segment it may cut the fuel budget so the request
    times out mid-flight.

    All decisions draw from a private {!R2c_util.Rng} stream, so a chaos
    campaign is reproducible from its seed. A rate of exactly 0 consumes no
    randomness and perturbs nothing: attaching a zero-rate injector is
    observationally identical to attaching none, which the availability
    harness relies on for its baseline runs. *)

type rates = {
  bitflip : float;  (** per-instruction probability of a memory bit flip *)
  load_corrupt : float;  (** per-load probability of corrupting the value *)
  spurious_fault : float;  (** per-instruction probability of a fake crash *)
  fuel_cut : float;  (** per-run-segment probability of a fuel exhaustion *)
}

(** All rates 0: injection disabled. *)
val zero : rates

val rates_active : rates -> bool

type counters = {
  bitflips : int;
  load_corruptions : int;
  spurious_faults : int;
  fuel_cuts : int;
}

type t

(** [create ?rates ~seed ()] — default rates {!zero}. *)
val create : ?rates:rates -> seed:int -> unit -> t

val rates : t -> rates

(** [counters t] — how many of each injection actually fired so far. *)
val counters : t -> counters

(** [rng t] — a copy of the injector's stream at the position drawing
    every decision one by one would have left it in; the next raw draw
    of the copy is the next one a hook would see. For tests. *)
val rng : t -> R2c_util.Rng.t

(** Hooks, called by the machine. Each decision is a Bernoulli draw from
    the stream, but a run of draws a look-ahead scan has found to miss
    costs one subtraction per hook instead of a draw: results, counters
    and the stream position equal those of drawing every time. *)

(** [on_step t ~mem ~rip] — before instruction dispatch: may flip a random
    bit in a random writable mapped page, and may raise
    {!Fault.constructor-Injected}. *)
val on_step : t -> mem:Mem.t -> rip:int -> unit

(** [on_load t v] — the (possibly corrupted) value of a 64-bit data load. *)
val on_load : t -> int -> int

(** [cut_fuel t budget] — the (possibly truncated) fuel budget for a run
    segment. *)
val cut_fuel : t -> int -> int
