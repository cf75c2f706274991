(** The R2C compiler: IR program + diversity configuration + seed -> image.

    [instrument] performs the program-level work (booby-trap functions,
    BTDP constructor and data, call-site BTRA planning) and packages every
    per-function / per-call-site randomized decision into compiler options;
    [compile] runs the full pipeline. Equal seeds give identical binaries;
    different seeds give diversified variants (the paper's per-execution
    recompilation methodology, Section 6.2). *)

(** [instrument ?extra_raw ?mdesc ?link_seed ~seed cfg p] — the (possibly
    extended) program and the codegen options to compile it with.
    [extra_raw] appends raw machine-code functions (e.g. the libc-like
    runtime stubs that give evaluation targets a realistic gadget
    population); they are shuffled with everything else. [mdesc] selects
    the machine description the options are seated on (default
    {!R2c_compiler.Mdesc.x86_64}). [link_seed], when given, drives the
    link-level streams (function/global order, padding, ASLR slides)
    from its own generator instead of the body seed's master — the
    coordinate split that lets a rerandomization change layout without
    invalidating any per-function work. Omitted, the streams are the
    legacy single-seed ones, byte-for-byte. *)
val instrument :
  ?extra_raw:R2c_compiler.Opts.raw_func list ->
  ?mdesc:R2c_compiler.Mdesc.t ->
  ?link_seed:int ->
  seed:int ->
  Dconfig.t ->
  Ir.program ->
  Ir.program * R2c_compiler.Opts.t

(** [compile ?extra_raw ?seed cfg p] — full pipeline. Default seed 1. *)
val compile :
  ?extra_raw:R2c_compiler.Opts.raw_func list ->
  ?seed:int ->
  Dconfig.t ->
  Ir.program ->
  R2c_machine.Image.t

(** [compile_with_meta ?extra_raw ?seed cfg p] — {!compile}, also
    returning per-function lowering metadata and the instrumented program
    actually compiled (the input plus e.g. the BTDP constructor), so the
    translation validator can check every IR function in the image. *)
val compile_with_meta :
  ?extra_raw:R2c_compiler.Opts.raw_func list ->
  ?seed:int ->
  Dconfig.t ->
  Ir.program ->
  R2c_machine.Image.t * (string * R2c_compiler.Emit.tvmeta) list * Ir.program

(** {1 Incremental rerandomization}

    A variant is addressed by its {!coords}: the diversity config, the
    body seed (every per-function and per-call-site decision), and an
    optional link seed (layout order, padding, ASLR slides). Rotating
    only the link seed re-diversifies the image while every compiled
    function body stays valid — the incremental rebuild path recompiles
    nothing and re-links.

    Contract: {!compile_incremental} is byte-identical (per
    {!R2c_machine.Image.fingerprint}) to {!compile_cold} at the same
    coordinates, for every coordinate — the cache can only be faster,
    never different. With [link_seed = None] both equal the legacy
    {!compile} at [~seed:body_seed]. *)

type coords = {
  cfg : Dconfig.t;
  body_seed : int;
  link_seed : int option;
}

(** Digest of the body-level coordinates — the incremental cache salt;
    link-seed independent. *)
val salt_of_coords : coords -> string

(** Full non-cached pipeline at [coords] — the reference the incremental
    path is differentially tested against. *)
val compile_cold :
  ?extra_raw:R2c_compiler.Opts.raw_func list ->
  ?mdesc:R2c_compiler.Mdesc.t ->
  coords ->
  Ir.program ->
  R2c_machine.Image.t

(** A rerandomization handle: the per-function codegen cache plus a memo
    of the last instrumented program, so steady-state rotations skip
    instrumentation and key recomputation entirely. *)
type rerand

val rerand_create : unit -> rerand

(** The underlying cache (counters, poisoning, clearing — the test
    battery's hooks). *)
val rerand_cache : rerand -> R2c_compiler.Incremental.t

(** [compile_incremental ?extra_raw ?jobs ?mdesc r coords p] — the image
    and this rebuild's cache traffic. Recompiles only functions whose
    (IR, diversification slice, machine description) key is absent from
    [r]'s cache, fanned over the Domain pool ([jobs] as in
    [R2c_util.Parallel]). *)
val compile_incremental :
  ?extra_raw:R2c_compiler.Opts.raw_func list ->
  ?jobs:int ->
  ?mdesc:R2c_compiler.Mdesc.t ->
  rerand ->
  coords ->
  Ir.program ->
  R2c_machine.Image.t * R2c_compiler.Incremental.stats

(** [compile_incremental] plus lowering metadata and the instrumented
    program. *)
val compile_incremental_with_meta :
  ?extra_raw:R2c_compiler.Opts.raw_func list ->
  ?jobs:int ->
  ?mdesc:R2c_compiler.Mdesc.t ->
  rerand ->
  coords ->
  Ir.program ->
  R2c_machine.Image.t
  * (string * R2c_compiler.Emit.tvmeta) list
  * R2c_compiler.Incremental.stats
  * Ir.program
