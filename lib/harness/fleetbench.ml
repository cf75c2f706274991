module Fleet = R2c_runtime.Fleet
module Pool = R2c_runtime.Pool
module Inject = R2c_machine.Inject
module Rng = R2c_util.Rng
module J = R2c_obs.Json

(* Sustained low-grade chaos: bit flips, corrupted loads and spurious
   faults at half the injection sweep's "light" mix. The sweep's rates
   are sized for 120-request bursts; over a 100k-request campaign they
   keep roughly half the fleet's workers inside a crash-recovery window
   at any instant — a saturation study, not an SLO. This mix still
   crashes workers continuously (hundreds of rerandomizing respawns per
   campaign) while leaving the 99.9% floor reachable by a correct
   balancer. *)
let light_rates =
  {
    Inject.bitflip = 0.00001;
    load_corrupt = 0.00001;
    spurious_fault = 0.000005;
    fuel_cut = 0.0;
  }

let fleet_dconfig = R2c_core.Dconfig.full_checked

let fleet_cfg ~seed ~shards ~epoch_cycles ~jobs =
  {
    Fleet.default_config with
    Fleet.shards;
    seed;
    epoch_cycles;
    jobs;
    shard = { Fleet.default_config.Fleet.shard with Pool.inject = light_rates };
  }

type report = {
  seed : int;
  requests : int;
  shards : int;
  epoch_cycles : int;
  incremental : bool;
  fleet : Fleet.stats;
  pool : Pool.stats;  (** shard-pool totals incl. retired epochs *)
  clock : int;
  epochs : int;
  p50 : int;
  p99 : int;
  shard_p50 : int list;  (** per-shard latency medians, shard order *)
  shard_p99 : int list;  (** per-shard latency tails, shard order *)
  availability : float;
}

(* Deterministic traffic: short GET lines whose item ids come from a
   payload RNG derived from the master seed. Payloads stay well under the
   handler's 64-byte buffer — fleet campaigns measure chaos resilience,
   not attack response (that is [Chaos]'s job). *)
let payload rng = Printf.sprintf "GET /item/%d" (Rng.int rng 100_000)

let run ?(seed = 11) ?(requests = 100_000) ?(shards = 4)
    ?(epoch_cycles = Fleet.default_config.Fleet.epoch_cycles) ?(jobs = 0)
    ?(incremental = false) () =
  let cfg = fleet_cfg ~seed ~shards ~epoch_cycles ~jobs in
  (* Incremental mode: epoch and shard seeds rotate only the layout
     coordinates through one shared per-function codegen cache — every
     rotation after the fleet's first build is a cache-hit relink. The
     body diversification is pinned at the campaign seed. *)
  let build =
    if incremental then
      R2c_workloads.Fleetapp.incremental_builder ~body_seed:seed
        ?jobs:(if jobs > 0 then Some jobs else None)
        fleet_dconfig
    else fun ~seed -> R2c_workloads.Fleetapp.build ~seed fleet_dconfig
  in
  let fleet =
    Fleet.create ~cfg ~build ~break_sym:R2c_workloads.Fleetapp.break_symbol ()
  in
  let rng = Rng.create (seed + 0x5eed) in
  for _ = 1 to requests do
    ignore (Fleet.submit fleet (payload rng))
  done;
  let stats = Fleet.stats fleet in
  {
    seed;
    requests;
    shards;
    epoch_cycles;
    incremental;
    fleet = stats;
    pool = Fleet.pool_totals fleet;
    clock = Fleet.clock fleet;
    epochs = Fleet.epoch fleet;
    p50 = Fleet.percentile fleet 50.0;
    p99 = Fleet.percentile fleet 99.0;
    shard_p50 = List.init shards (fun i -> Fleet.shard_percentile fleet i 50.0);
    shard_p99 = List.init shards (fun i -> Fleet.shard_percentile fleet i 99.0);
    availability = Fleet.availability stats;
  }

(* The SLO gate (E-FLEET acceptance): empty list = pass. *)
let gate ?max_p99 r =
  let min_requests = 100_000 and min_shards = 4 and min_rotations = 3 in
  let min_availability = 0.999 in
  let fails = ref [] in
  let check cond msg = if not cond then fails := msg :: !fails in
  check
    (r.fleet.Fleet.submitted >= min_requests)
    (Printf.sprintf "requests %d < %d" r.fleet.Fleet.submitted min_requests);
  check (r.shards >= min_shards) (Printf.sprintf "shards %d < %d" r.shards min_shards);
  check
    (r.fleet.Fleet.rotations >= min_rotations)
    (Printf.sprintf "rotations %d < %d" r.fleet.Fleet.rotations min_rotations);
  check
    (r.fleet.Fleet.rotation_drops = 0)
    (Printf.sprintf "rotation_drops %d <> 0" r.fleet.Fleet.rotation_drops);
  check
    (r.availability >= min_availability)
    (Printf.sprintf "availability %.5f < %.3f" r.availability min_availability);
  (* Latency SLO (ROADMAP item 3): opt-in ceiling on the tail, checked
     fleet-wide and per shard so one degraded shard cannot hide behind a
     healthy aggregate. *)
  (match max_p99 with
  | None -> ()
  | Some ceiling ->
      check (r.p99 <= ceiling) (Printf.sprintf "p99 %d > %d cycles" r.p99 ceiling);
      List.iteri
        (fun i p ->
          check (p <= ceiling)
            (Printf.sprintf "shard %d p99 %d > %d cycles" i p ceiling))
        r.shard_p99);
  List.rev !fails

let json r =
  let f = r.fleet and p = r.pool in
  J.Obj
    [
      ("seed", J.Int r.seed);
      ("requests", J.Int f.Fleet.submitted);
      ("shards", J.Int r.shards);
      ("epoch_cycles", J.Int r.epoch_cycles);
      ("incremental", J.Bool r.incremental);
      ("served", J.Int f.Fleet.served);
      ("dropped", J.Int f.Fleet.dropped);
      ("shed", J.Int f.Fleet.shed);
      ("rejected", J.Int f.Fleet.rejected);
      ("hedges", J.Int f.Fleet.hedges);
      ("availability", J.Float r.availability);
      ("p50_cycles", J.Int r.p50);
      ("p99_cycles", J.Int r.p99);
      ("shard_p50_cycles", J.Arr (List.map (fun p -> J.Int p) r.shard_p50));
      ("shard_p99_cycles", J.Arr (List.map (fun p -> J.Int p) r.shard_p99));
      ("clock_cycles", J.Int r.clock);
      ("epochs", J.Int r.epochs);
      ("rotations", J.Int f.Fleet.rotations);
      ("rotation_drops", J.Int f.Fleet.rotation_drops);
      ("drops_during_rotation", J.Int f.Fleet.drops_during_rotation);
      ("canary_failures", J.Int f.Fleet.canary_failures);
      ("quarantines", J.Int f.Fleet.quarantines);
      ("max_queue_depth", J.Int f.Fleet.max_queue_depth);
      ("pool_crashes", J.Int p.Pool.crashes);
      ("pool_detections", J.Int p.Pool.detections);
      ("pool_restarts", J.Int p.Pool.restarts);
      ("pool_rerandomizations", J.Int p.Pool.rerandomizations);
      ("gate_failures", J.Arr (List.map (fun m -> J.Str m) (gate r)));
    ]

let print r =
  let f = r.fleet in
  Printf.printf "Fleet campaign (seed %d): %d requests over %d shards\n" r.seed
    f.Fleet.submitted r.shards;
  Printf.printf
    "  served %d  dropped %d (shed %d, rejected %d)  availability %.5f\n"
    f.Fleet.served f.Fleet.dropped f.Fleet.shed f.Fleet.rejected r.availability;
  Printf.printf "  latency p50 %d cycles  p99 %d cycles  fleet clock %d\n" r.p50 r.p99
    r.clock;
  Printf.printf "  per-shard p50/p99:%s\n"
    (String.concat ""
       (List.map2
          (fun a b -> Printf.sprintf "  %d/%d" a b)
          r.shard_p50 r.shard_p99));
  Printf.printf
    "  rotations %d (epoch %d, rotation drops %d, drops during rotation %d, canary \
     failures %d)\n"
    f.Fleet.rotations r.epochs f.Fleet.rotation_drops f.Fleet.drops_during_rotation
    f.Fleet.canary_failures;
  Printf.printf "  hedges %d  quarantines %d  max queue depth %d\n" f.Fleet.hedges
    f.Fleet.quarantines f.Fleet.max_queue_depth;
  Printf.printf "  shard pools: crashes %d  detections %d  restarts %d  rerandomizations %d\n"
    r.pool.Pool.crashes r.pool.Pool.detections r.pool.Pool.restarts
    r.pool.Pool.rerandomizations;
  (match gate r with
  | [] -> Printf.printf "  SLO gate: PASS\n"
  | fails ->
      Printf.printf "  SLO gate: FAIL\n";
      List.iter (fun m -> Printf.printf "    - %s\n" m) fails);
  flush stdout
