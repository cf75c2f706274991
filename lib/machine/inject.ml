module Rng = R2c_util.Rng

type rates = {
  bitflip : float;
  load_corrupt : float;
  spurious_fault : float;
  fuel_cut : float;
}

let zero = { bitflip = 0.0; load_corrupt = 0.0; spurious_fault = 0.0; fuel_cut = 0.0 }

let rates_active r =
  r.bitflip > 0.0 || r.load_corrupt > 0.0 || r.spurious_fault > 0.0 || r.fuel_cut > 0.0

type counters = {
  bitflips : int;
  load_corruptions : int;
  spurious_faults : int;
  fuel_cuts : int;
}

(* Skip-ahead draws. Every hook decides by [Rng.float rng 1.0 < rate], and
   a draw at or above [top], the largest non-zero rate, misses whichever
   hook takes it. [safe] counts the upcoming draws a scan of the stream
   found to be such misses; while it covers a hook's draws, the hook only
   subtracts them from it. Of the [scanned] draws the last scan covered,
   [scanned - safe] are spent but not yet taken from [rng]: [sync] skips
   them in one step before a hook whose draw could hit draws exactly as
   [hit] always has, and the stream is rescanned after it. Results,
   counters and the stream position are those of drawing every time. *)
type t = {
  rng : Rng.t;
  rates : rates;
  step_draws : int;  (* draws per [on_step]: its non-zero rates *)
  top : float;  (* largest non-zero rate; 0 when none *)
  mutable safe : int;
  mutable scanned : int;
  mutable bitflips : int;
  mutable load_corruptions : int;
  mutable spurious_faults : int;
  mutable fuel_cuts : int;
}

(* How far one scan looks ahead: bounds the scan work a run that ends
   early leaves unused. *)
let scan_cap = 1 lsl 14

let create ?(rates = zero) ~seed () =
  let nonzero r = if r > 0.0 then 1 else 0 in
  {
    rng = Rng.create seed;
    rates;
    step_draws = nonzero rates.bitflip + nonzero rates.spurious_fault;
    top =
      List.fold_left
        (fun m r -> if r > m then r else m)
        0.0
        [ rates.bitflip; rates.load_corrupt; rates.spurious_fault; rates.fuel_cut ];
    safe = 0;
    scanned = 0;
    bitflips = 0;
    load_corruptions = 0;
    spurious_faults = 0;
    fuel_cuts = 0;
  }

let rates t = t.rates

let counters t =
  {
    bitflips = t.bitflips;
    load_corruptions = t.load_corruptions;
    spurious_faults = t.spurious_faults;
    fuel_cuts = t.fuel_cuts;
  }

let sync t =
  Rng.advance t.rng (t.scanned - t.safe);
  t.scanned <- 0;
  t.safe <- 0

let rescan t =
  let n = Rng.float_run_at_least t.rng t.top ~cap:scan_cap in
  t.scanned <- n;
  t.safe <- n

let rng t =
  let r = Rng.copy t.rng in
  Rng.advance r (t.scanned - t.safe);
  r

(* A rate of exactly 0 must not even consume randomness: a rate-0 injector
   is bitwise-indistinguishable from no injector (the chaos harness's
   baseline-equivalence guarantee). *)
let hit t rate = rate > 0.0 && Rng.float t.rng 1.0 < rate

let flip_random_bit t mem =
  match Mem.writable_page_addrs mem with
  | [] -> ()
  | pages ->
      let page = List.nth pages (Rng.int t.rng (List.length pages)) in
      let addr = page + Rng.int t.rng Addr.page_size in
      Mem.flip_bit mem ~addr ~bit:(Rng.int t.rng 8);
      t.bitflips <- t.bitflips + 1

(* The slow path of every hook: take the spent draws off the stream, make
   the decision one draw at a time, then scan ahead again. A decision
   that raises leaves [safe] at 0, so the next hook comes here too. *)
let exact t decide =
  sync t;
  let v = decide () in
  rescan t;
  v

(* The fast path of a one-draw hook: a draw known to miss. *)
let skip_one t =
  t.safe > 0
  && begin
       t.safe <- t.safe - 1;
       true
     end

let on_step t ~mem ~rip =
  let s = t.safe - t.step_draws in
  if s >= 0 then t.safe <- s
  else
    exact t (fun () ->
        if hit t t.rates.bitflip then flip_random_bit t mem;
        if hit t t.rates.spurious_fault then begin
          t.spurious_faults <- t.spurious_faults + 1;
          Fault.raise_fault (Injected { rip; kind = "spurious-segv" })
        end)

let on_load t v =
  if not (t.rates.load_corrupt > 0.0) || skip_one t then v
  else
    exact t (fun () ->
        if hit t t.rates.load_corrupt then begin
          t.load_corruptions <- t.load_corruptions + 1;
          v lxor (1 lsl Rng.int t.rng 63)
        end
        else v)

let cut_fuel t budget =
  if budget <= 0 || not (t.rates.fuel_cut > 0.0) || skip_one t then budget
  else
    exact t (fun () ->
        if hit t t.rates.fuel_cut then begin
          t.fuel_cuts <- t.fuel_cuts + 1;
          Rng.int t.rng (max 1 (budget / 4))
        end
        else budget)
