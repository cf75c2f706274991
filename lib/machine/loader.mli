(** Program loading: maps an image into fresh memory and hands back a ready
    CPU.

    Text is materialised as pseudo-encoded bytes and then sealed with the
    image's text permission ([rx] for the legacy baseline, [xo] when the
    execute-only assumption of Section 3 is in force); data is mapped
    read-write with its initialisers applied; the stack is mapped at the
    canonical top of user space. *)

(** [load ?strict_align ?inject ?jit ?jit_cache ?reuse ~profile img].
    [?jit] (default {!Jit.enabled}, i.e. on unless [R2C_JIT=0]) attaches
    the tier-3 JIT to the fresh CPU; [?jit_cache] shares an existing code
    cache (warm restarts — see {!Process.restart}). An injector disables
    the attachment: compiled code calls no injector hooks, so {!Cpu.run}
    keeps an injected CPU on the fast interpreter. [?reuse] is the
    previous incarnation's CPU: when it ran [img] under [profile], its
    memory is recycled ({!Mem.recycle}) and its icache reset, and the new
    CPU takes both over, so [reuse] must not run again. The result is
    observationally equal to a load into fresh memory. *)
val load :
  ?strict_align:bool ->
  ?inject:Inject.t ->
  ?jit:bool ->
  ?jit_cache:Jit.cache ->
  ?reuse:Cpu.t ->
  profile:Cost.profile ->
  Image.t ->
  Cpu.t
