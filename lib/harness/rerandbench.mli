(** Incremental rerandomization benchmark and gate (E-RERAND).

    Compiles a Genprog-scale program cold at one coordinate, warms the
    per-function codegen cache, then rotates the link seed
    [rotations] times through {!R2c_core.Pipeline.compile_incremental},
    differentially fingerprinting sampled rotations against cold
    compiles at the same coordinates. A final edit step changes one
    function's IR and asserts the rebuild recompiles exactly that
    function and still matches a cold compile of the edited program.

    The {!report} is deterministic at any Domain-pool width; wall-clock
    lives in {!timing}, which {!Gate.exec} renders after ["jobs"] in the
    volatile tail. *)

type report = {
  funcs : int;
  config : string;
  body_seed : int;
  base_link_seed : int;
  rotations : int;
  checked : int;  (** rotations differentially checked against cold *)
  identical : bool;  (** warm build and every checked rotation match cold *)
  warm_misses : int;  (** cache misses of the warm (first) build *)
  rotation_hits : int;
  rotation_misses : int;  (** must be 0: rotations recompile nothing *)
  edit_misses : int;  (** must be 1: the edited function only *)
  edit_missed : string list;
  edit_identical : bool;
  cache_entries : int;
}

type timing = { cold_ms : float; incr_ms : float; speedup : float }

val run :
  ?funcs:int ->
  ?config:string ->
  ?body_seed:int ->
  ?base_link_seed:int ->
  ?rotations:int ->
  ?checked:int ->
  ?jobs:int ->
  unit ->
  report * timing

(** Violated criteria (empty = pass): identity with cold compiles and
    the cache traffic always bind; with [min_speedup > 0] the
    incremental rebuild must also beat the cold compile by
    [max min_speedup 1] times. *)
val gate : min_speedup:float -> report * timing -> string list

(** The one-line summary (deterministic fields). *)
val json : report -> R2c_obs.Json.t

(** The timing fields, for the JSON line's volatile tail. *)
val timing_json : timing -> (string * R2c_obs.Json.t) list

val print : report * timing -> unit
