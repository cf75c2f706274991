(* serve: the production-shaped path. One op is one [Fleet.submit] of a
   seeded "GET /item/N" payload into the fleet [make fleet] runs: 4
   shards of Fleetapp under the light chaos mix, epoch rotation on, the
   fleet seeded with the benchmark seed (seed 11 is [make fleet]'s own
   fleet and request stream). One client in a closed loop on the host; a fixed
   arrival gap on the simulated fleet clock. Each round is a fresh fleet
   (its set-up: [Fleet.create] plus a warm-up) serving the same payloads,
   so every round is a deterministic replay of the first. *)

module Fleet = R2c_runtime.Fleet
module Pool = R2c_runtime.Pool
module Fleetapp = R2c_workloads.Fleetapp
module Fleetbench = R2c_harness.Fleetbench
module Rng = R2c_util.Rng
open R2c_machine

let warmup_requests = 256
let round_ops = 25_000

let fleet_cfg ~seed ~domains =
  {
    Fleet.default_config with
    Fleet.shards = 4;
    seed;
    jobs = domains;
    shard = { Fleet.default_config.Fleet.shard with Pool.inject = Fleetbench.light_rates };
  }

let shard_cfg = (fleet_cfg ~seed:0 ~domains:1).Fleet.shard

(* The fleet's build closure: the phase-by-phase build, with every
   seed it was asked for remembered for the fingerprint check. *)
let built_seeds = ref []
let built_lock = Mutex.create ()

let build ~seed =
  Mutex.protect built_lock (fun () -> built_seeds := seed :: !built_seeds);
  Build.phased ~seed Fleetbench.fleet_dconfig (Fleetapp.program ())

(* Fingerprint every build seed not yet checked against Pipeline.compile. *)
let checked = Hashtbl.create 64

let builds_match () =
  let seeds = Mutex.protect built_lock (fun () -> List.sort_uniq compare !built_seeds) in
  List.for_all
    (fun seed ->
      Hashtbl.mem checked seed
      ||
      let phased = Image.fingerprint (Build.phased ~seed Fleetbench.fleet_dconfig (Fleetapp.program ())) in
      let real = Image.fingerprint (Fleetapp.build ~seed Fleetbench.fleet_dconfig) in
      Hashtbl.replace checked seed ();
      String.equal phased real)
    seeds

(* The [make fleet] request stream at fleet seed [seed]: its first
   [warmup_requests] warm the fleet up, the next [n] are the round. *)
let traffic ~seed n =
  let rng = Rng.create (seed + 0x5eed) in
  let all = Array.init (warmup_requests + n) (fun _ -> Printf.sprintf "GET /item/%d" (Rng.int rng 100_000)) in
  (Array.sub all 0 warmup_requests, Array.sub all warmup_requests n)

(* ---- serving-loop replay: one worker process outside the fleet ---- *)

type replay = {
  mutable run_until_s : float;  (* host time inside run_until / step *)
  mutable insns : int;  (* simulated instructions retired there *)
  mutable restarts : int;
  mutable restart_s : float;  (* host time inside Process.restart *)
  mutable served : int;
}

(* Serve [payloads] on one [Process.start] of [img] through
   [Process.run_until] at the break symbol, the way a pool worker does:
   two break-to-break advances per request, a recycle every
   [requests_per_child] requests, a restart after any crash. *)
let replay ?inject img payloads =
  let r = { run_until_s = 0.0; insns = 0; restarts = 0; restart_s = 0.0; served = 0 } in
  let brk = Hashtbl.find img.Image.symbols Fleetapp.break_symbol in
  let p = Process.start ?inject ~fuel:shard_cfg.Pool.worker_fuel img in
  let timed f =
    let i0 = p.Process.cpu.Cpu.insns and t0 = Span.now_ns () in
    let v = f () in
    r.run_until_s <- r.run_until_s +. Span.secs_between t0 (Span.now_ns ());
    r.insns <- r.insns + (p.Process.cpu.Cpu.insns - i0);
    v
  in
  let restart () =
    let t0 = Span.now_ns () in
    Process.restart p;
    r.restart_s <- r.restart_s +. Span.secs_between t0 (Span.now_ns ());
    r.restarts <- r.restarts + 1
  in
  let advance () =
    timed (fun () ->
        match if p.Process.cpu.Cpu.rip = brk then Cpu.step p.Process.cpu with
        | exception Fault.Fault _ -> false
        | () -> Process.run_until ~fuel:shard_cfg.Pool.request_fuel p ~break:[ brk ] = `Hit)
  in
  let at_break = ref false and this_child = ref 0 in
  let down () =
    restart ();
    at_break := false;
    this_child := 0
  in
  Array.iter
    (fun payload ->
      if not !at_break then
        at_break :=
          timed (fun () ->
              Process.run_until ~fuel:shard_cfg.Pool.request_fuel p ~break:[ brk ] = `Hit);
      if not !at_break then down ()
      else begin
        Cpu.push_input p.Process.cpu payload;
        if advance () && advance () then begin
          r.served <- r.served + 1;
          incr this_child;
          if !this_child >= shard_cfg.Pool.requests_per_child then down ()
        end
        else down ()
      end)
    payloads;
  r

let shard_image ~seed = Build.phased ~seed Fleetbench.fleet_dconfig (Fleetapp.program ())

(* Simulated instructions per served request on the serving path. The
   fleet does not expose its workers' counters, so the first requests
   are replayed on each of the fleet's epoch-0 shard images (the seeds
   its build closure is asked for while the fleet is created) and the
   counts averaged. *)
let insns_per_request ~seed ~domains payloads =
  let built () = Mutex.protect built_lock (fun () -> !built_seeds) in
  let before = List.length (built ()) in
  ignore (Fleet.create ~cfg:(fleet_cfg ~seed ~domains) ~build ~break_sym:Fleetapp.break_symbol ());
  let shard_seeds = List.filteri (fun i _ -> i < List.length (built ()) - before) (built ()) in
  let sample = Array.sub payloads 0 (min 256 (Array.length payloads)) in
  let insns, served =
    List.fold_left
      (fun (i, s) seed ->
        let r = replay (shard_image ~seed) sample in
        (i + r.insns, s + r.served))
      (0, 0) shard_seeds
  in
  insns / max 1 served

let response_record = function
  | Pool.Served { cycles; lines } -> Printf.sprintf "S %d %d" cycles lines
  | Pool.Rejected { reason; lines } -> Printf.sprintf "R %d %s" lines reason
  | Pool.Dropped -> "D"

let summary fleet =
  let s = Fleet.stats fleet and p = Fleet.pool_totals fleet in
  Printf.sprintf
    "fleet submitted=%d served=%d dropped=%d shed=%d rejected=%d hedges=%d quarantines=%d \
     rotations=%d rotation_drops=%d clock=%d pool crashes=%d restarts=%d recycles=%d \
     retried=%d rerandomizations=%d detections=%d"
    s.Fleet.submitted s.Fleet.served s.Fleet.dropped s.Fleet.shed s.Fleet.rejected
    s.Fleet.hedges s.Fleet.quarantines s.Fleet.rotations s.Fleet.rotation_drops
    (Fleet.clock fleet) p.Pool.crashes p.Pool.restarts p.Pool.recycles p.Pool.retried
    p.Pool.rerandomizations p.Pool.detections

let workload ~seed ~domains =
  let warm, traffic = traffic ~seed round_ops in
  let insns_per_request = insns_per_request ~seed ~domains traffic in
  let setup () =
    let fleet =
      Fleet.create ~cfg:(fleet_cfg ~seed ~domains) ~build ~break_sym:Fleetapp.break_symbol ()
    in
    Array.iter (fun p -> ignore (Fleet.submit fleet p)) warm;
    fleet
  in
  let op fleet i =
    let resp = Span.with_span "fleet.submit" (fun () -> Fleet.submit fleet traffic.(i)) in
    let served = match resp with Pool.Served _ -> true | _ -> false in
    {
      Runner.ok = served;
      wrong = false;
      insns = (if served then insns_per_request else 0);
      record = response_record resp;
    }
  in
  let round_summary fleet =
    let s = Fleet.stats fleet in
    (* Accounting invariants, and builds equal to Pipeline.compile's. *)
    ( summary fleet,
      s.Fleet.submitted = s.Fleet.served + s.Fleet.dropped
      && s.Fleet.rotation_drops = 0 && builds_match () )
  in
  {
    Runner.round_ops;
    fresh_per_round = true;
    setup;
    check_setup = (fun _ -> true);
    op;
    round_summary;
  }
