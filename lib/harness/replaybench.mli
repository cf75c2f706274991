(** Record-reduce-replay campaign (E-REPLAY).

    For each capture case — the {!Fleetapp} server under a deterministic
    periodic request stream, and a generated {!Genprog} compute program —
    the campaign records a full builtin-boundary trace
    ({!R2c_replay.Record}), delta-debugs it down to the semantic core
    ({!R2c_replay.Reduce}), and replays the reduced trace as a standalone
    benchmark ({!R2c_replay.Replayer}), asserting the replay reproduces
    the recorded cycles, instructions and icache traffic within 1%.

    Cases fan out over {!R2c_util.Parallel}; each case is internally
    sequential and fully deterministic (simulated time only), so the
    {!report} is bit-identical at any Domain-pool width. Wall-clock and
    job count are never stored in the report; {!Gate.exec} appends them
    after {!json}'s fields. *)

type case = {
  c_name : string;
  c_meta : R2c_replay.Trace.meta;
  c_program : Ir.program;
  c_inputs : string list;
}

(** The standard corpus: [fleetapp] (periodic request traffic, the
    reduction-ratio workhorse) and [genprog] (no input, pure compute). *)
val cases : unit -> case list

type case_report = {
  cr_name : string;
  cr_trace : R2c_replay.Trace.t;  (** the reduced trace *)
  cr_reduce : R2c_replay.Reduce.report;
  cr_replay : R2c_replay.Replayer.run;  (** final replay of the reduced trace *)
  cr_failures : string list;  (** fidelity failures of that final replay *)
}

type report = { case_reports : case_report list }

(** [run ?tolerance ?max_checks ?jobs ()] — record, reduce and replay
    every case. [Error] if any case fails to record or replay outright
    (fault, fuel); fidelity mismatches are reported per-case, not
    errors. *)
val run :
  ?tolerance:float -> ?max_checks:int -> ?jobs:int -> unit -> (report, string) result

(** [gate r] — violated criteria (empty = pass): every replay within
    tolerance, and every input-driven case reduced by at least 30% of
    its event/dictionary bytes. *)
val gate : report -> string list

(** [save_corpus ~dir r] — write each reduced trace to
    [dir/<name>.r2cr]; returns the paths written. *)
val save_corpus : dir:string -> report -> string list

(** The one-line summary (deterministic fields). *)
val json : report -> R2c_obs.Json.t

val print : report -> unit
