(* The chaos injector on the fast tier.

   - Exact draws: the skip-ahead injector must make every decision a
     naive one-draw-per-decision injector makes, leave the same counters
     and leave its stream at the same position.
   - Differential contract: [Cpu.run_until] and [Cpu.run] with an injector
     run on the predecoded fast path; the same runs forced onto the
     reference tier by a no-op observer must agree bit for bit, memory
     and injector state included.
   - In-place restart: [Process.restart] recycles the dead CPU's memory
     and icache; the result must equal a fresh [Loader.load]. *)

open R2c_machine
module Rng = R2c_util.Rng
module Q = QCheck
module Vulnapp = R2c_workloads.Vulnapp
module Fleetapp = R2c_workloads.Fleetapp

(* --- a naive injector: one draw per decision, as the hooks were first
   written --- *)

module Naive = struct
  type t = {
    rng : Rng.t;
    rates : Inject.rates;
    mutable bitflips : int;
    mutable load_corruptions : int;
    mutable spurious_faults : int;
    mutable fuel_cuts : int;
  }

  let create ~rates ~seed =
    {
      rng = Rng.create seed;
      rates;
      bitflips = 0;
      load_corruptions = 0;
      spurious_faults = 0;
      fuel_cuts = 0;
    }

  let hit t rate = rate > 0.0 && Rng.float t.rng 1.0 < rate

  let on_step t ~mem ~rip =
    if hit t t.rates.Inject.bitflip then begin
      match Mem.writable_page_addrs mem with
      | [] -> ()
      | pages ->
          let page = List.nth pages (Rng.int t.rng (List.length pages)) in
          let addr = page + Rng.int t.rng Addr.page_size in
          Mem.flip_bit mem ~addr ~bit:(Rng.int t.rng 8);
          t.bitflips <- t.bitflips + 1
    end;
    if hit t t.rates.Inject.spurious_fault then begin
      t.spurious_faults <- t.spurious_faults + 1;
      Fault.raise_fault (Injected { rip; kind = "spurious-segv" })
    end

  let on_load t v =
    if hit t t.rates.Inject.load_corrupt then begin
      t.load_corruptions <- t.load_corruptions + 1;
      v lxor (1 lsl Rng.int t.rng 63)
    end
    else v

  let cut_fuel t budget =
    if budget > 0 && hit t t.rates.Inject.fuel_cut then begin
      t.fuel_cuts <- t.fuel_cuts + 1;
      Rng.int t.rng (max 1 (budget / 4))
    end
    else budget

  let counters t =
    {
      Inject.bitflips = t.bitflips;
      load_corruptions = t.load_corruptions;
      spurious_faults = t.spurious_faults;
      fuel_cuts = t.fuel_cuts;
    }
end

(* Every byte of every mapped page, with its permissions and guard tag. *)
let mem_digest mem =
  let b = Buffer.create 4096 in
  List.iter
    (fun (base, (p : Perm.t), guard) ->
      Buffer.add_string b
        (Printf.sprintf "%x:%b%b%b%b;" base p.Perm.read p.Perm.write p.Perm.exec guard);
      for w = 0 to (Addr.page_size / 8) - 1 do
        match Mem.peek_u64 mem (base + (8 * w)) with
        | Some v -> Buffer.add_string b (string_of_int v)
        | None -> Buffer.add_char b '?'
      done)
    (Mem.page_perms mem);
  Digest.to_hex (Digest.string (Buffer.contents b))

let small_mem () =
  let m = Mem.create () in
  Mem.map m 0x10000 (3 * Addr.page_size) Perm.rw;
  Mem.map m 0x20000 Addr.page_size Perm.ro;
  Mem.write_u64 m 0x10008 0x1234;
  m

type op = Steps of int | Load of int | Cut of int

let pp_op = function
  | Steps n -> Printf.sprintf "steps %d" n
  | Load v -> Printf.sprintf "load %d" v
  | Cut b -> Printf.sprintf "cut %d" b

(* Rates from a menu that covers rate 0 (no draw at all), rate 1 (every
   draw hits) and the light/heavy regimes in between. *)
let rate_gen = Q.Gen.oneofl [ 0.0; 0.0; 1e-5; 1e-3; 0.02; 0.3; 1.0 ]

let rates_gen =
  Q.Gen.(
    map
      (fun (bitflip, load_corrupt, spurious_fault, fuel_cut) ->
        { Inject.bitflip; load_corrupt; spurious_fault; fuel_cut })
      (quad rate_gen rate_gen rate_gen rate_gen))

let op_gen =
  Q.Gen.(
    frequency
      [
        (4, map (fun n -> Steps n) (oneof [ int_range 1 8; int_range 1 3000 ]));
        (3, map (fun v -> Load v) (int_bound 0xffff_ffff));
        (1, map (fun b -> Cut b) (int_range (-2) 100_000));
      ])

let draws_arb =
  Q.make
    ~print:(fun (seed, (r : Inject.rates), ops) ->
      Printf.sprintf "seed %d rates %g/%g/%g/%g ops [%s]" seed r.Inject.bitflip
        r.Inject.load_corrupt r.Inject.spurious_fault r.Inject.fuel_cut
        (String.concat "; " (List.map pp_op ops)))
    Q.Gen.(triple (int_bound 1_000_000) rates_gen (list_size (int_range 1 40) op_gen))

let prop_exact_draws (seed, rates, ops) =
  let inj = Inject.create ~rates ~seed () and naive = Naive.create ~rates ~seed in
  let m_inj = small_mem () and m_naive = small_mem () in
  let step f = match f () with () -> "ok" | exception Fault.Fault f -> Fault.to_string f in
  List.iter
    (fun op ->
      match op with
      | Steps n ->
          for i = 1 to n do
            let rip = 0x400000 + i in
            let a = step (fun () -> Inject.on_step inj ~mem:m_inj ~rip) in
            let b = step (fun () -> Naive.on_step naive ~mem:m_naive ~rip) in
            if a <> b then Q.Test.fail_reportf "on_step: %s vs naive %s" a b
          done
      | Load v ->
          let a = Inject.on_load inj v and b = Naive.on_load naive v in
          if a <> b then Q.Test.fail_reportf "on_load %d: %d vs naive %d" v a b
      | Cut budget ->
          let a = Inject.cut_fuel inj budget and b = Naive.cut_fuel naive budget in
          if a <> b then Q.Test.fail_reportf "cut_fuel %d: %d vs naive %d" budget a b)
    ops;
  Inject.counters inj = Naive.counters naive
  && Int64.equal (Rng.int64 (Inject.rng inj)) (Rng.int64 naive.Naive.rng)
  && String.equal (mem_digest m_inj) (mem_digest m_naive)

(* A rate-0 injector consumes nothing, however long it runs. *)
let test_rate_zero_draws_nothing () =
  let inj = Inject.create ~rates:Inject.zero ~seed:42 () in
  let m = small_mem () in
  for i = 1 to 10_000 do
    Inject.on_step inj ~mem:m ~rip:i;
    ignore (Inject.on_load inj i);
    ignore (Inject.cut_fuel inj 1000)
  done;
  Alcotest.(check int64) "stream untouched"
    (Rng.int64 (Rng.create 42))
    (Rng.int64 (Inject.rng inj))

(* --- differential contract: fast tier vs reference tier, injected --- *)

let profile = Cost.epyc_rome

let vuln_img = lazy (Vulnapp.build ~seed:9 R2c_core.Dconfig.full_checked)
let fleet_img = lazy (Fleetapp.build ~seed:4 R2c_core.Dconfig.full_checked)

let noop_observer ~rip:_ ~cycles:_ ~misses:_ ~called:_ = ()

let result_str = function
  | Ok () -> "hit"
  | Error Cpu.Halted -> "halted"
  | Error Cpu.Fuel_exhausted -> "fuel"
  | Error (Cpu.Faulted f) -> "fault:" ^ Fault.to_string f

(* Everything the contract covers: cycles as IEEE bits, counters, the
   architectural state, memory, and the injector's decisions so far. *)
let state cpu =
  let c =
    match cpu.Cpu.inject with
    | Some inj -> (
        let k = Inject.counters inj in
        Printf.sprintf "%d/%d/%d/%d/%Lx" k.Inject.bitflips k.Inject.load_corruptions
          k.Inject.spurious_faults k.Inject.fuel_cuts
          (Rng.int64 (Inject.rng inj)))
    | None -> "-"
  in
  Printf.sprintf
    "rip:%x cycles:%Lx insns:%d calls:%d depth:%d/%d imiss:%d iacc:%d halted:%b exit:%d \
     regs:%s out:%s mem:%s inj:%s"
    cpu.Cpu.rip (Int64.bits_of_float cpu.Cpu.cycles) cpu.Cpu.insns cpu.Cpu.calls cpu.Cpu.depth
    cpu.Cpu.max_depth (Icache.misses cpu.Cpu.icache) (Icache.accesses cpu.Cpu.icache)
    cpu.Cpu.halted cpu.Cpu.exit_code
    (String.concat "," (Array.to_list (Array.map string_of_int cpu.Cpu.regs)))
    (Digest.to_hex (Digest.string (Cpu.output cpu)))
    (mem_digest cpu.Cpu.mem) c

(* [Wild] hijacks rip to a non-executable address (data, or unmapped),
   as a smashed return would: the fetch must fault after the step's
   draws, on both tiers. *)
type leg_op = Until of int * int | Run of int | Step_off | Input of string | Wild of bool

let diff_arb =
  let gen =
    Q.Gen.(
      let op =
        frequency
          [
            (4, map2 (fun f b -> Until (f, b)) (int_range 0 4000) (int_bound 1000));
            (1, map (fun f -> Run f) (int_range 0 3000));
            (2, return Step_off);
            (1, map (fun b -> Wild b) bool);
            (* every fifth input overflows the request buffer *)
            ( 2,
              map
                (fun n ->
                  Input
                    (if n mod 5 = 0 then String.make (40 + n) 'A'
                     else "GET /item/" ^ string_of_int n))
                (int_bound 200) );
          ]
      in
      quad (int_bound 1_000_000) rates_gen bool (list_size (int_range 1 25) op))
  in
  Q.make
    ~print:(fun (seed, (r : Inject.rates), vuln, ops) ->
      Printf.sprintf "seed %d rates %g/%g/%g/%g %s, %d ops" seed r.Inject.bitflip
        r.Inject.load_corrupt r.Inject.spurious_fault r.Inject.fuel_cut
        (if vuln then "vulnapp" else "fleetapp")
        (List.length ops))
    gen

(* Both legs run the same script of ops, one with no observer (the fast
   tier), one under a no-op observer (the reference tier). A break list
   is the serving break alone, or led by an instruction address picked
   from the text. *)
let prop_fast_matches_reference (seed, rates, vuln, ops) =
  let img, sym =
    if vuln then (vuln_img, Vulnapp.break_symbol) else (fleet_img, Fleetapp.break_symbol)
  in
  let img = Lazy.force img in
  let serving = Image.symbol img sym in
  let code = Lazy.force img.Image.code_list in
  let load () =
    Loader.load ~jit:false ~inject:(Inject.create ~rates ~seed ()) ~profile img
  in
  let fast = load () and slow = load () in
  Cpu.set_observer slow (Some noop_observer);
  let dead = ref false in
  let apply cpu op =
    match op with
    | Until (fuel, b) ->
        let brk =
          if b < 500 then [ serving ]
          else
            let a, _, _ = code.(b * 7919 mod Array.length code) in
            [ a; serving ]
        in
        result_str (Cpu.run_until cpu ~fuel ~break:brk)
    | Run fuel -> result_str (Error (Cpu.run cpu ~fuel))
    | Step_off -> (
        match Cpu.step_fast cpu with
        | () -> "stepped"
        | exception Fault.Fault f -> "fault:" ^ Fault.to_string f)
    | Input s ->
        Cpu.push_input cpu s;
        "input"
    | Wild data ->
        cpu.Cpu.rip <- (if data then img.Image.data_base + 8 else 0x666000);
        "wild"
  in
  List.for_all
    (fun op ->
      !dead
      ||
      let a = apply fast op and b = apply slow op in
      if String.length a > 6 && String.sub a 0 6 = "fault:" || fast.Cpu.halted then dead := true;
      if a <> b then Q.Test.fail_reportf "result %s vs reference %s" a b;
      let sa = state fast and sb = state slow in
      if sa <> sb then Q.Test.fail_reportf "state\n %s\nvs reference\n %s" sa sb;
      true)
    ops

(* The whole injected serving path, Process-level: cut fuel included. *)
let test_process_run_until_matches_reference () =
  let img = Lazy.force fleet_img in
  let brk = Image.symbol img Fleetapp.break_symbol in
  let rates =
    { Inject.bitflip = 0.002; load_corrupt = 0.002; spurious_fault = 0.0005; fuel_cut = 0.05 }
  in
  let leg observed =
    let p = Process.start ~inject:(Inject.create ~rates ~seed:77 ()) ~fuel:2_000_000 img in
    let observe () =
      if observed then Cpu.set_observer p.Process.cpu (Some noop_observer)
    in
    observe ();
    let log = Buffer.create 256 in
    for i = 1 to 60 do
      (match Process.run_until ~fuel:20_000 p ~break:[ brk ] with
      | `Hit -> (
          Cpu.push_input p.Process.cpu ("GET /item/" ^ string_of_int i);
          match Cpu.step_fast p.Process.cpu with
          | () -> Buffer.add_string log "h"
          | exception Fault.Fault f ->
              Buffer.add_string log (Fault.to_string f);
              Process.restart p;
              observe ())
      | `Done o ->
          Buffer.add_string log (Process.outcome_to_string o);
          Process.restart p;
          observe ());
      Buffer.add_string log (state p.Process.cpu)
    done;
    (Buffer.contents log, p.Process.restarts)
  in
  let fast, restarts = leg false and slow, _ = leg true in
  Alcotest.(check bool) "the run restarted at least once" true (restarts > 0);
  Alcotest.(check string) "fast tier = reference tier" slow fast

(* --- in-place restart equals a fresh load --- *)

let cpu_fields cpu =
  Printf.sprintf
    "rip:%x cmp:%d/%d cycles:%Lx insns:%d calls:%d depth:%d/%d halted:%b exit:%d imiss:%d \
     iacc:%d out:%S input:%d sens:%d shadow:%d strict:%b brk:%x live:%d regs:%s ymm:%s \
     pages:%d max:%d guards:%s mem:%s"
    cpu.Cpu.rip cpu.Cpu.cmp_l cpu.Cpu.cmp_r (Int64.bits_of_float cpu.Cpu.cycles) cpu.Cpu.insns
    cpu.Cpu.calls cpu.Cpu.depth cpu.Cpu.max_depth cpu.Cpu.halted cpu.Cpu.exit_code
    (Icache.misses cpu.Cpu.icache) (Icache.accesses cpu.Cpu.icache) (Cpu.output cpu)
    (Queue.length cpu.Cpu.input) (List.length cpu.Cpu.sensitive_log)
    (List.length !(cpu.Cpu.shadow)) cpu.Cpu.strict_align (Heap.brk cpu.Cpu.heap)
    (Heap.live_bytes cpu.Cpu.heap)
    (String.concat "," (Array.to_list (Array.map string_of_int cpu.Cpu.regs)))
    (String.concat "," (Array.to_list (Array.map string_of_int cpu.Cpu.ymm)))
    (Mem.mapped_pages cpu.Cpu.mem) (Mem.max_mapped_pages cpu.Cpu.mem)
    (String.concat "," (List.map string_of_int (Mem.guard_page_addrs cpu.Cpu.mem)))
    (mem_digest cpu.Cpu.mem)

let test_restart_equals_fresh_load () =
  List.iter
    (fun (name, img, sym) ->
      let img = Lazy.force img in
      let brk = Image.symbol img sym in
      let p = Process.start ~jit:false ~fuel:5_000_000 img in
      (* Dirty the incarnation: serve some requests (heap, stack, data,
         output), write and flip bits by hand, map extra heap. *)
      for i = 1 to 20 do
        match Process.run_until ~fuel:100_000 p ~break:[ brk ] with
        | `Hit -> (
            Cpu.push_input p.Process.cpu ("GET /item/" ^ string_of_int i);
            try Cpu.step_fast p.Process.cpu with Fault.Fault _ -> ())
        | `Done _ -> ()
      done;
      let mem = p.Process.cpu.Cpu.mem in
      let guard = Heap.malloc_pages p.Process.cpu.Cpu.heap 3 in
      Mem.protect mem guard Addr.page_size Perm.none;
      Mem.tag_guard mem guard Addr.page_size;
      List.iter
        (fun a -> Mem.flip_bit mem ~addr:(a + 17) ~bit:3)
        (Mem.writable_page_addrs mem);
      Alcotest.(check bool) (name ^ ": dirty differs from fresh") false
        (String.equal (cpu_fields p.Process.cpu)
           (cpu_fields (Loader.load ~jit:false ~profile img)));
      Process.restart p;
      let fresh = Loader.load ~jit:false ~profile img in
      Alcotest.(check bool) (name ^ ": memory reused in place") true (p.Process.cpu.Cpu.mem == mem);
      Alcotest.(check string) (name ^ ": restarted = fresh") (cpu_fields fresh)
        (cpu_fields p.Process.cpu);
      (* And they stay equal when run. *)
      let run cpu =
        let r = Cpu.run_until cpu ~fuel:100_000 ~break:[ brk ] in
        Cpu.push_input cpu "GET /item/5";
        Cpu.step_fast cpu;
        let r2 = Cpu.run_until cpu ~fuel:100_000 ~break:[ brk ] in
        result_str r ^ result_str r2 ^ cpu_fields cpu
      in
      Alcotest.(check string) (name ^ ": runs equal after restart") (run fresh)
        (run p.Process.cpu))
    [ ("vulnapp", vuln_img, Vulnapp.break_symbol); ("fleetapp", fleet_img, Fleetapp.break_symbol) ]

let suite =
  [
    ( "inject",
      [
        QCheck_alcotest.to_alcotest
          (Q.Test.make ~count:300 ~name:"skip-ahead draws = one draw per decision" draws_arb
             prop_exact_draws);
        Alcotest.test_case "rate 0 consumes no randomness" `Quick test_rate_zero_draws_nothing;
        QCheck_alcotest.to_alcotest
          (Q.Test.make ~count:40 ~name:"injected run_until/run: fast tier = reference tier"
             diff_arb prop_fast_matches_reference);
        Alcotest.test_case "injected serving loop with restarts: fast = reference" `Quick
          test_process_run_until_matches_reference;
        Alcotest.test_case "in-place restart = fresh load" `Quick test_restart_equals_fresh_load;
      ] );
  ]
