(** Paged virtual memory with permissions.

    Provides the primitives the defense depends on: page-granular
    protection ([mprotect]-style {!protect}), guard-page tagging so that a
    BTDP dereference is distinguishable from an ordinary crash in reports,
    and resident-set accounting for the memory-overhead experiment
    (Section 6.2.5).

    Checked accesses are served through a small direct-mapped software TLB
    caching each hot page's bytes and decoded permission bits; [map],
    [unmap], {!protect} and {!tag_guard} all invalidate it, so an in-place
    permission change is visible on the very next access. Pages are
    demand-zero: a mapped page owns a buffer only once it is written.

    All checked accessors raise {!Fault.Fault}. The [peek]/[poke] variants
    ignore permissions — they model the defender/experimenter's view (e.g.
    loaders and ground-truth checks in tests), never the attacker's. *)

type t

val create : unit -> t

(** [map t addr len perm] maps the pages covering [\[addr, addr+len)],
    zero-filled. Remapping an already-mapped page is an error. New pages
    are demand-zero: they share one read-only zero buffer until their
    first write (checked, [poke_u64] or [flip_bit]) gives them their
    own. *)
val map : t -> int -> int -> Perm.t -> unit

(** [unmap t addr len] removes the covered pages. *)
val unmap : t -> int -> int -> unit

(** [recycle t] unmaps every page and resets the high-water mark: [t] is
    then observationally a fresh {!create}. The pages' buffers are kept
    and handed, zero-filled, to later first writes, so reloading an image
    into [t] allocates nothing for the pages it had before. *)
val recycle : t -> unit

(** [protect t addr len perm] changes permissions of covered (mapped)
    pages. *)
val protect : t -> int -> int -> Perm.t -> unit

(** [tag_guard t addr len] marks covered pages as BTDP guard pages:
    permission faults on them raise {!Fault.constructor-Guard_page}. *)
val tag_guard : t -> int -> int -> unit

val is_mapped : t -> int -> bool

(** [perm_at t addr] — permissions of the page holding [addr], if mapped. *)
val perm_at : t -> int -> Perm.t option

(** [check_exec t addr] — the interpreter's per-fetch probe: returns [()]
    when the page holding [addr] is mapped executable, raises
    [Fault.Segv { access = Exec }] otherwise (never [Guard_page], matching
    the historical [perm_at]-based check). Served from the software TLB. *)
val check_exec : t -> int -> unit

(** Checked accessors (raise {!Fault.Fault} on violation). Multi-byte
    accesses may cross page boundaries. *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u64 : t -> int -> int
val write_u64 : t -> int -> int -> unit
val read_bytes : t -> int -> int -> bytes
val write_bytes : t -> int -> bytes -> unit

(** Permission-free accessors for the simulator/defender side. [peek_u64]
    returns [None] when unmapped. *)

val peek_u64 : t -> int -> int option
val peek_u8 : t -> int -> int option
val poke_u64 : t -> int -> int -> unit

(** [poke_bytes t addr b] — permission-free copy of [b] to [addr], a page
    at a time; every covered page must be mapped. The loader's text
    fill. *)
val poke_bytes : t -> int -> bytes -> unit

(** [writable_page_addrs t] — base addresses of writable mapped pages
    (heap, stack, data), sorted; the chaos injector's bit-flip target
    population. *)
val writable_page_addrs : t -> int list

(** [flip_bit t ~addr ~bit] — permission-free xor of bit [bit land 7] of
    the byte at [addr]; the {!Inject} bit-flip primitive. *)
val flip_bit : t -> addr:int -> bit:int -> unit

(** [page_perms t] — [(base, perm, guard)] for every mapped page, sorted by
    base address; the static auditor's page-table walk. *)
val page_perms : t -> (int * Perm.t * bool) list

(** [guard_page_addrs t] — base addresses of pages tagged as guards;
    defender-side ground truth for tests and reports. *)
val guard_page_addrs : t -> int list

(** [mapped_pages t] — currently resident pages; [max_mapped_pages t] — the
    high-water mark (maxrss analogue). *)

val mapped_pages : t -> int
val max_mapped_pages : t -> int
