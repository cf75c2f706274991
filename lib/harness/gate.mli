(** One gated experiment: a run, its report rendered two ways, and the
    criteria it must meet.

    Every JSON gate of [experiments] (fuzz, fleet, tval, replay, rerand,
    jit) is one value of {!t}, executed by {!exec}: print the report,
    write it as one JSON line, list the failed criteria on stderr and turn
    them into the exit code. The JSON line keeps a fixed field order —
    the deterministic fields of [to_json], then ["jobs"], then the
    [volatile] timing fields — so a serial-vs-parallel comparison strips
    everything from [,"jobs":] on and diffs the rest ([make
    determinism]).

    ['a] is the gate's own parsed arguments, ['r] its report. *)

type ('a, 'r) t = {
  name : string;  (** subcommand name and stderr prefix *)
  doc : string;  (** one-paragraph description for [--help] *)
  run : 'a -> jobs:int option -> 'r;
      (** [jobs]: domain-pool width, [None] = auto ([$R2C_JOBS] or the
          recommended domain count); the report must not depend on it *)
  print : 'a -> 'r -> unit;  (** human-readable rendering on stdout *)
  to_json : 'r -> R2c_obs.Json.t;
      (** deterministic fields only; must be an [Obj] *)
  volatile : wall_ms:float -> 'r -> (string * R2c_obs.Json.t) list;
      (** timing fields, given the wall-clock time of [run] *)
  check : 'a -> 'r -> string list;  (** violated criteria; empty = pass *)
}

(** [exec ?json_out ~jobs g args] — run [g], print the report and its
    JSON line on stdout (also written to [json_out] when given), print
    [<name>: gate failed: <msg>] on stderr per violated criterion, and
    return the exit code: 0 when [check] is empty, 1 otherwise. *)
val exec : ?json_out:string -> jobs:int option -> ('a, 'r) t -> 'a -> int
