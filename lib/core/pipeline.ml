module Rng = R2c_util.Rng
module Opts = R2c_compiler.Opts
module Insn = R2c_machine.Insn
module Addr = R2c_machine.Addr

let src = Logs.Src.create "r2c.pipeline" ~doc:"R2C instrumentation pipeline"

module Log = (val Logs.src_log src : Logs.LOG)

let hash_string s =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3fffffff) s;
  !h

(* Order-independent per-function (or per-site) generators: callbacks may be
   invoked in any order by the emitter, so each derives its stream from the
   master seed and its own identity. *)
let fn_rng seed tag fname =
  Rng.create (seed lxor (hash_string (tag ^ "/" ^ fname) * 0x9e3779b1))

let site_rng seed tag fname site =
  Rng.create (seed lxor (hash_string (Printf.sprintf "%s/%s/%d" tag fname site) * 0x85ebca6b))

(* Link-level randomization streams. With no [link_seed] they are the
   4th/5th splits of the body-seed master (the legacy single-seed
   streams, byte-for-byte); with one, they derive from the link seed
   alone, so layout coordinates can rotate while every per-function
   decision — and therefore every cached body — stays fixed. *)
let link_rngs ~seed ~link_seed =
  match link_seed with
  | None ->
      let master = Rng.create seed in
      let _ = Rng.split master in
      let _ = Rng.split master in
      let _ = Rng.split master in
      let rng_layout = Rng.split master in
      let rng_aslr = Rng.split master in
      (rng_layout, rng_aslr, seed)
  | Some ls ->
      let lm = Rng.create ls in
      let rng_layout = Rng.split lm in
      let rng_aslr = Rng.split lm in
      (rng_layout, rng_aslr, ls)

(* The six link-level option fields, factored so a rerandomization can
   rebuild exactly these on a memoized instrument output. *)
let link_fields ~(cfg : Dconfig.t) ~pad_seed ~rng_layout ~rng_aslr =
  let func_order names =
    if cfg.shuffle_functions then Rng.shuffle_list (Rng.copy rng_layout) names else names
  in
  let global_order globals =
    let globals =
      if cfg.shuffle_globals then Rng.shuffle_list (Rng.copy rng_layout) globals
      else globals
    in
    let r = Rng.create (pad_seed lxor 0x5bd1e995) in
    List.map
      (fun g ->
        let pad =
          if cfg.global_padding_max > 0 then
            Rng.int r (cfg.global_padding_max + 1) land lnot 7
          else 0
        in
        (g, pad))
      globals
  in
  let func_pad ~fname:_ =
    if cfg.shuffle_functions then Rng.int (Rng.copy rng_layout) 17 land lnot 0 else 0
  in
  let page = Addr.page_size in
  let text_slide, data_slide, heap_slide =
    if cfg.aslr then
      ( Rng.int rng_aslr 4096 * page,
        Rng.int rng_aslr 256 * page,
        Rng.int rng_aslr 4096 * page )
    else (0, 0, 0)
  in
  (func_order, global_order, func_pad, text_slide, data_slide, heap_slide)

let relink_opts ~cfg ~seed ~link_seed (opts : Opts.t) =
  let rng_layout, rng_aslr, pad_seed = link_rngs ~seed ~link_seed in
  let func_order, global_order, func_pad, text_slide, data_slide, heap_slide =
    link_fields ~cfg ~pad_seed ~rng_layout ~rng_aslr
  in
  { opts with Opts.func_order; global_order; func_pad; text_slide; data_slide; heap_slide }

let instrument ?(extra_raw = []) ?(mdesc = R2c_compiler.Mdesc.x86_64) ?link_seed ~seed
    (cfg : Dconfig.t) (p : Ir.program) =
  let master = Rng.create seed in
  let rng_bt = Rng.split master in
  let rng_btra = Rng.split master in
  let rng_btdp = Rng.split master in
  let rng_layout = Rng.split master in
  let rng_aslr = Rng.split master in
  let rng_layout, rng_aslr, pad_seed =
    match link_seed with
    | None -> (rng_layout, rng_aslr, seed)
    | Some _ -> link_rngs ~seed ~link_seed
  in
  (* BTDP: extend the program with the constructor and its data. *)
  let btdp =
    match cfg.btdp with
    | Some bcfg -> Some (Btdp.build ~rng:rng_btdp ~cfg:bcfg ~seed)
    | None -> None
  in
  let p =
    match btdp with
    | Some b ->
        { p with Ir.funcs = p.funcs @ [ b.Btdp.ctor ]; globals = p.globals @ b.Btdp.globals }
    | None -> p
  in
  (* Booby-trap functions and BTRA plans. *)
  let needs_pool = cfg.btra <> None in
  let bt_funcs, pool =
    if needs_pool || cfg.booby_trap_funcs > 0 then begin
      let count = max cfg.booby_trap_funcs (if needs_pool then 16 else 0) in
      let funcs, targets = Boobytrap.generate rng_bt ~count in
      (funcs, Some (Boobytrap.pool_of_targets targets))
    end
    else ([], None)
  in
  let btra =
    match (cfg.btra, pool) with
    | Some bcfg, Some pool -> Some (Btra.build ~rng:rng_btra ~cfg:bcfg ~pool p)
    | Some _, None -> assert false
    | None, _ -> None
  in
  let oia = cfg.oia || cfg.btra <> None in
  Log.debug (fun m ->
      m "instrumenting %d functions (%s), seed %d: %d booby traps, %d BTRA plans"
        (List.length p.Ir.funcs) (Dconfig.describe cfg) seed (List.length bt_funcs)
        (match btra with Some b -> Hashtbl.length b.Btra.plans | None -> 0));
  (* Layout randomizations. *)
  let func_order, global_order, func_pad, text_slide, data_slide, heap_slide =
    link_fields ~cfg ~pad_seed ~rng_layout ~rng_aslr
  in
  let default_pool = mdesc.R2c_compiler.Mdesc.callee_saved in
  let reg_pool ~fname =
    if cfg.randomize_regalloc then
      Rng.shuffle_list (fn_rng seed "regs" fname) default_pool
    else default_pool
  in
  let slot_perm ~fname ~n =
    if cfg.shuffle_stack_slots then begin
      let a = Array.init n (fun i -> i) in
      Rng.shuffle (fn_rng seed "slots" fname) a;
      a
    end
    else Opts.identity_perm n
  in
  let slot_pad_bytes ~fname =
    if cfg.slot_padding_max > 0 then
      Rng.int (fn_rng seed "slotpad" fname) (cfg.slot_padding_max + 1) land lnot 7
    else 0
  in
  let prolog_traps ~fname =
    match cfg.prolog_traps with
    | Some (lo, hi) -> Rng.int_in_range (fn_rng seed "prolog" fname) ~lo ~hi
    | None -> 0
  in
  let nops_before_call ~fname ~site =
    match cfg.nops with
    | Some (lo, hi) ->
        let r = site_rng seed "nops" fname site in
        List.init (Rng.int_in_range r ~lo ~hi) (fun _ -> 1)
    | None -> []
  in
  let post_offset_words ~fname =
    match btra with Some b -> Btra.post_offset b ~fname | None -> 0
  in
  let callsite_btra ~fname ~site ~callee:_ =
    match btra with Some b -> Btra.plan b ~fname ~site | None -> None
  in
  let btdp_indices ~fname ~writes_frame =
    match btdp with
    (* The constructor itself runs before the pointer array exists. *)
    | Some _ when fname = Btdp.ctor_name -> []
    | Some b -> Btdp.indices b ~fname ~writes_frame
    | None -> []
  in
  let opts =
    {
      Opts.default with
      mdesc;
      reg_pool;
      slot_perm;
      slot_pad_bytes;
      prolog_traps;
      post_offset_words;
      nops_before_call;
      callsite_btra;
      btdp_indices;
      btdp_array_sym = (match btdp with Some b -> Some b.Btdp.array_sym | None -> None);
      oia;
      func_order;
      global_order;
      func_pad;
      raw_funcs = extra_raw @ bt_funcs;
      text_perm = (if cfg.xom then R2c_machine.Perm.xo else R2c_machine.Perm.rx);
      constructors = (match btdp with Some _ -> [ Btdp.ctor_name ] | None -> []);
      extra_globals = (match btra with Some b -> b.Btra.arrays | None -> []);
      text_slide;
      data_slide;
      heap_slide;
    }
  in
  (p, opts)

let compile ?(extra_raw = []) ?(seed = 1) cfg p =
  let p, opts = instrument ~extra_raw ~seed cfg p in
  R2c_compiler.Driver.compile ~opts p

let compile_with_meta ?(extra_raw = []) ?(seed = 1) cfg p =
  let p, opts = instrument ~extra_raw ~seed cfg p in
  let img, meta = R2c_compiler.Driver.compile_with_meta ~opts p in
  (img, meta, p)

(* ------------------------------------------------------------------ *)
(* Rerandomization coordinates and the incremental rebuild handle.     *)

module Incremental = R2c_compiler.Incremental
module Mdesc = R2c_compiler.Mdesc

type coords = { cfg : Dconfig.t; body_seed : int; link_seed : int option }

let salt_of_coords c =
  Digest.to_hex (Digest.string (Marshal.to_string (c.cfg, c.body_seed) []))

let compile_cold ?extra_raw ?mdesc (c : coords) p =
  let p, opts =
    instrument ?extra_raw ?mdesc ?link_seed:c.link_seed ~seed:c.body_seed c.cfg p
  in
  R2c_compiler.Driver.compile ~opts p

type memo = {
  m_src : Ir.program;  (** the caller's program, by physical identity *)
  m_cfg : Dconfig.t;
  m_seed : int;
  m_extra : Opts.raw_func list;
  m_mdesc : Mdesc.t;
  m_prog : Ir.program;  (** instrumented program *)
  m_opts : Opts.t;
  m_token : string;
}

type rerand = { cache : Incremental.t; mutable memo : memo option }

let rerand_create () = { cache = Incremental.create (); memo = None }

let rerand_cache r = r.cache

let compile_incremental_with_meta ?(extra_raw = []) ?jobs ?(mdesc = Mdesc.x86_64) r
    (c : coords) p =
  let salt = salt_of_coords c in
  let memo_valid m =
    m.m_src == p && m.m_seed = c.body_seed && m.m_cfg = c.cfg && m.m_extra == extra_raw
    && m.m_mdesc == mdesc
  in
  let m =
    match r.memo with
    | Some m when memo_valid m -> m
    | _ ->
        let prog, opts =
          instrument ~extra_raw ~mdesc ?link_seed:c.link_seed ~seed:c.body_seed c.cfg p
        in
        (* The Incremental key memo may only be reused while the
           emission-level options are unchanged; everything they depend
           on beyond the program itself goes into the token. *)
        let token =
          salt ^ ":" ^ Mdesc.fingerprint mdesc ^ ":"
          ^ Digest.to_hex (Digest.string (Marshal.to_string extra_raw []))
        in
        let m =
          {
            m_src = p;
            m_cfg = c.cfg;
            m_seed = c.body_seed;
            m_extra = extra_raw;
            m_mdesc = mdesc;
            m_prog = prog;
            m_opts = opts;
            m_token = token;
          }
        in
        r.memo <- Some m;
        m
  in
  (* Rotations override exactly the link-level fields; body-level
     decisions — and so the cache keys — are pure functions of the
     memoized options. *)
  let opts = relink_opts ~cfg:c.cfg ~seed:c.body_seed ~link_seed:c.link_seed m.m_opts in
  let img, meta, stats =
    Incremental.build_with_meta ?jobs ~key_token:m.m_token r.cache ~opts ~salt m.m_prog
  in
  (img, meta, stats, m.m_prog)

let compile_incremental ?extra_raw ?jobs ?mdesc r c p =
  let img, _, stats, _ = compile_incremental_with_meta ?extra_raw ?jobs ?mdesc r c p in
  (img, stats)
