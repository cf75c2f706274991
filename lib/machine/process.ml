type outcome = Exited of int | Crashed of Fault.t | Timeout

type t = {
  image : Image.t;
  profile : Cost.profile;
  fuel : int;
  strict_align : bool;
  inject : Inject.t option;
  jit : bool;
  jit_cache : Jit.cache option;
  mutable cpu : Cpu.t;
  mutable fuel_left : int;
  mutable detections : Fault.t list;
  mutable crashes : int;
  mutable restarts : int;
}

let start ?(profile = Cost.epyc_rome) ?(fuel = 50_000_000) ?(strict_align = false) ?inject
    ?jit image =
  (* One code cache per process, shared across respawns: a restarted
     worker reuses the hot code its predecessor compiled. *)
  let jit = (match jit with Some b -> b | None -> Jit.enabled ()) && Option.is_none inject in
  let jit_cache = if jit then Some (Jit.create_cache ~profile image) else None in
  {
    image;
    profile;
    fuel;
    strict_align;
    inject;
    jit;
    jit_cache;
    cpu = Loader.load ~strict_align ?inject ~jit ?jit_cache ~profile image;
    fuel_left = fuel;
    detections = [];
    crashes = 0;
    restarts = 0;
  }

let record_fault t f =
  t.crashes <- t.crashes + 1;
  if Fault.is_detection f then t.detections <- f :: t.detections

(* Fuel is a per-lifetime budget consumed across run segments: a process
   stopped at a breakpoint and resumed does not get a fresh allowance. An
   optional per-segment cap on top of the remaining budget is the
   supervisor's request-timeout primitive. The injector may cut the budget
   further (the mid-request fuel-exhaustion chaos). *)
let segment_budget t cap =
  let b = match cap with Some f -> min f t.fuel_left | None -> t.fuel_left in
  match t.inject with Some inj -> Inject.cut_fuel inj b | None -> b

let consume t ~insns_before =
  t.fuel_left <- max 0 (t.fuel_left - (t.cpu.Cpu.insns - insns_before))

let run ?fuel t =
  let budget = segment_budget t fuel in
  let insns_before = t.cpu.Cpu.insns in
  let r = Cpu.run t.cpu ~fuel:budget in
  consume t ~insns_before;
  match r with
  | Cpu.Halted -> Exited t.cpu.Cpu.exit_code
  | Cpu.Fuel_exhausted -> Timeout
  | Cpu.Faulted f ->
      record_fault t f;
      Crashed f

let run_until ?fuel t ~break =
  let budget = segment_budget t fuel in
  let insns_before = t.cpu.Cpu.insns in
  let r = Cpu.run_until t.cpu ~fuel:budget ~break in
  consume t ~insns_before;
  match r with
  | Ok () -> `Hit
  | Error Cpu.Halted -> `Done (Exited t.cpu.Cpu.exit_code)
  | Error Cpu.Fuel_exhausted -> `Done Timeout
  | Error (Cpu.Faulted f) ->
      record_fault t f;
      `Done (Crashed f)

(* In place: the dead incarnation's memory and icache are recycled into
   the new one, so the old [Cpu.t] must not be used again; callers read
   [t.cpu] afresh after a restart. *)
let restart t =
  t.cpu <-
    Loader.load ~strict_align:t.strict_align ?inject:t.inject ~jit:t.jit
      ?jit_cache:t.jit_cache ~reuse:t.cpu ~profile:t.profile t.image;
  (* A respawned worker gets the full fuel budget again, exactly as a
     [start]ed one does. *)
  t.fuel_left <- t.fuel;
  t.restarts <- t.restarts + 1

let outcome_to_string = function
  | Exited n -> Printf.sprintf "exited(%d)" n
  | Crashed f -> Printf.sprintf "crashed(%s)" (Fault.to_string f)
  | Timeout -> "timeout"

let cycles t = t.cpu.Cpu.cycles
let insns t = t.cpu.Cpu.insns
let calls t = t.cpu.Cpu.calls
let max_depth t = t.cpu.Cpu.max_depth
let icache_misses t = Icache.misses t.cpu.Cpu.icache
let icache_accesses t = Icache.accesses t.cpu.Cpu.icache
let fuel_left t = t.fuel_left
let maxrss_bytes t = Mem.max_mapped_pages t.cpu.Cpu.mem * Addr.page_size
let output t = Cpu.output t.cpu
let sensitive_log t = t.cpu.Cpu.sensitive_log
let detected t = t.detections <> []
