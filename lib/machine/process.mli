(** A running process: image + CPU + crash/restart bookkeeping.

    Restart keeps the same image (and therefore the same randomized layout),
    modelling the worker-respawn behaviour of nginx/Apache/OpenSSH that
    Blind ROP exploits (Section 4, [11]); detection events (booby traps,
    guard pages) are accumulated across restarts — they are what a
    monitoring system would see.

    Fuel is a per-lifetime budget: it is consumed across [run]/[run_until]
    segments and refilled only by [restart] (or a fresh [start]). The
    supervision layer ({!R2c_runtime.Pool}) caps individual segments with
    the [?fuel] argument to implement per-request timeouts. *)

type outcome = Exited of int | Crashed of Fault.t | Timeout

type t = {
  image : Image.t;
  profile : Cost.profile;
  fuel : int;
  strict_align : bool;
  inject : Inject.t option;  (** chaos injector, re-attached on restart *)
  jit : bool;  (** tier-3 JIT attached to each incarnation's CPU *)
  jit_cache : Jit.cache option;
      (** the process's code cache, shared across {!restart}s so respawned
          workers start with their predecessor's hot code already
          compiled *)
  mutable cpu : Cpu.t;
  mutable fuel_left : int;  (** remaining lifetime budget, in instructions *)
  mutable detections : Fault.t list;
  mutable crashes : int;
  mutable restarts : int;
}

(** [start ?profile ?fuel ?strict_align ?inject ?jit image] loads the
    image; nothing runs yet. Default profile {!Cost.epyc_rome}, default
    fuel 50M instructions, strict alignment off, no injection. [?jit]
    (default {!Jit.enabled}) attaches the tier-3 JIT with a per-process
    code cache; an injector disables it (compiled code calls no injector
    hooks, so an injected process runs on the fast interpreter). *)
val start :
  ?profile:Cost.profile -> ?fuel:int -> ?strict_align:bool -> ?inject:Inject.t ->
  ?jit:bool -> Image.t -> t

(** [run ?fuel t] — run to halt/fault/fuel, recording crashes and
    detections. [?fuel] caps this segment below the remaining lifetime
    budget (per-request timeout); exceeding either yields [Timeout]. *)
val run : ?fuel:int -> t -> outcome

(** [run_until ?fuel t ~break] — run up to an address in [break]; [`Hit]
    means the process is stopped there (e.g. a blocked victim thread whose
    stack the attacker inspects). *)
val run_until : ?fuel:int -> t -> break:int list -> [ `Hit | `Done of outcome ]

(** [restart t] — fresh CPU and memory from the same image, and a full
    fuel budget (consistent with [start]). Input queue and output start
    empty; detection history is preserved. The restart is in place: the
    old CPU's memory and icache are recycled into the new one
    ([Loader.load ~reuse]), so a [Cpu.t] read from [t.cpu] before the
    restart must not be used after it. *)
val restart : t -> unit

val outcome_to_string : outcome -> string

(** Accessors. *)

val cycles : t -> float

val insns : t -> int
val calls : t -> int

(** [max_depth t] — peak call depth of the current child (resets with the
    CPU on {!restart}). *)
val max_depth : t -> int

(** Cumulative icache counters of the current child. *)

val icache_misses : t -> int

val icache_accesses : t -> int

(** [fuel_left t] — remaining lifetime fuel. *)
val fuel_left : t -> int

(** [maxrss_bytes t] — peak resident set, the Section 6.2.5 metric. *)
val maxrss_bytes : t -> int

val output : t -> string
val sensitive_log : t -> (int * int) list

(** [detected t] — true if any booby trap or guard page fired so far. *)
val detected : t -> bool
