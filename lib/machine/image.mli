(** A linked executable image.

    The linker produces one of these; the loader maps it; the CPU fetches
    decoded instructions from [code]. Text bytes are also materialised into
    memory with a deterministic pseudo-encoding so that read attacks against
    non-execute-only text observe real bytes, while [code_at] is the
    (defender/CPU-side) decoder.

    [func_table] is defender-side metadata (symbols stay out of the
    process's memory, as with a stripped binary plus external debug info);
    attacks may only use it through the oracles that model their actual
    capabilities. *)

type func_info = {
  fname : string;
  entry : int;
  code_len : int;  (** bytes *)
  is_booby_trap : bool;
}

(** A predecoded text slot: what sits at one byte offset into the text
    segment. [P_none] marks bytes that are not an instruction start
    (padding, instruction interiors) — executing one is an invalid
    opcode. *)
type pslot =
  | P_none
  | P_insn of Insn.t * int  (** decoded instruction and byte length *)
  | P_builtin of string  (** intercepted library entry *)

(** The fetch table and the text bytes, derived together from
    [code_list]. *)
type decoded

type t = {
  code : (int, Insn.t * int) Hashtbl.t Lazy.t;
      (** address -> decoded instruction and its layout-assigned byte
          length (the length is fixed at layout time, before symbol
          resolution, and drives the CPU's rip advance). Derived from
          [code_list] on first use: the fast-path interpreter fetches
          through {!predecode}, and the incremental-rerandomization
          rebuild path must not pay for a hash table it never probes. *)
  code_list : (int * Insn.t * int) array Lazy.t;
      (** ascending address order. Materialized on first use: the linker
          records layout and relocation decisions eagerly (cheap, per
          function) and fills the per-instruction table on demand (the
          whole-text cost the steady-state relink never pays unless the
          image is actually loaded, fingerprinted or audited). *)
  text_base : int;
  text_len : int;
  text_perm : Perm.t;
  data_base : int;
  data_len : int;
  data_words : (int * int) list Lazy.t;
      (** initialised 64-bit words. Materialized on first use together
          with [data_bytes] and [code_ptr_slots] — initialiser volume is
          proportional to program size (BTRA decoy arrays), so the
          steady-state incremental relink defers it; undefined symbolic
          initialisers are still an eager link error. *)
  data_bytes : (int * string) list Lazy.t;  (** initialised byte runs *)
  symbols : (string, int) Hashtbl.t;
  funcs : func_info list;
  entry : int;  (** _start *)
  builtin_addrs : (int, string) Hashtbl.t;  (** intercepted library entries *)
  stack_bytes : int;
  heap_base : int;
  unwind_funcs : (int * int * int * int) array;
      (** (entry, code length, frame size, post-offset words) per compiled
          function, ascending by entry — the CIE-like rows of the
          Section 7.2.4 unwind tables *)
  unwind_sites : (int, int) Hashtbl.t;
      (** return address -> words between the RA slot and the caller frame
          base (BTRA pre-offset + stack arguments) — the FDE-like rows *)
  checked_sites : (int, unit) Hashtbl.t;
      (** return addresses whose call site the compiler instrumented with a
          Section 7.3 post-return booby-trap check; the static auditor
          verifies the check bytes are actually present at each *)
  code_ptr_slots : (int, unit) Hashtbl.t Lazy.t;
      (** data addresses whose initialiser legitimately holds a text
          address (function-pointer tables, BTRA decoy arrays) — every
          other readable word resolving into text is a leak *)
  shadow_stack : bool;  (** run under backward-edge CFI (Section 8.2) *)
  decoded : decoded option Atomic.t;
      (** {!predecoded} and {!text_bytes} once built: [Atomic.make None]
          in a new image, and in any copy whose [code_list] differs *)
}

(** Intercepted library functions ("unprotected code" in the paper's
    terms — the glibc analogue). *)
val builtin_names : string list

(** [code_at img addr] — decoded instruction and byte length at [addr]. *)
val code_at : t -> int -> (Insn.t * int) option

(** [is_builtin img addr] *)
val is_builtin : t -> int -> bool

(** [symbol img name] — address of a symbol; raises [Not_found]. *)
val symbol : t -> string -> int

(** [func_of_addr img addr] — the function whose body covers [addr]. *)
val func_of_addr : t -> int -> func_info option

(** [funcs_by_entry img] — the function table as an array sorted by entry
    address; the tier-3 hot-function counters binary-search it to
    attribute calls and loop backedges. *)
val funcs_by_entry : t -> func_info array

(** [encode_byte insn k] — [k]-th byte of the pseudo-encoding of [insn];
    used by the loader to fill text pages. *)
val encode_byte : Insn.t -> int -> int

(** [fingerprint img] — canonical content digest: every observable field
    in a fixed order, hashtables dumped sorted. Equal fingerprints mean
    byte-identical executables; this is the equality oracle the
    incremental-rerandomization pipeline is gated on. *)
val fingerprint : t -> string

(** [predecoded img] — the dense fetch table for the fast-path
    interpreter, indexed by [addr - text_base] over [\[0, text_len)]. One
    O(1) array read replaces the per-step [builtin_addrs] + [code] hash
    probes; the result agrees with [code_at]/[is_builtin] at every
    address. Built on first use (of it or {!text_bytes}) and kept in the
    image, so every CPU running [img] shares one table; safe to call from
    several domains at once. *)
val predecoded : t -> pslot array

(** [text_bytes img] — the text segment's pseudo-encoded bytes
    ({!encode_byte}) from [text_base] on, zero between instructions: what
    the loader copies into text memory. Built and kept like
    {!predecoded}, and shared with every loader of [img]: never modify
    it. *)
val text_bytes : t -> Bytes.t
