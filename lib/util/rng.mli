(** Deterministic pseudo-random number generation (SplitMix64).

    Every randomized decision in the toolchain — diversification choices at
    compile time, workload inputs, attack trials — draws from an explicit
    generator so that a compilation or experiment is reproducible from its
    seed alone, mirroring the paper's per-seed recompilation methodology
    (Section 6.2). *)

type t

(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)
val create : int -> t

(** [copy t] duplicates the generator state; the copy evolves
    independently. *)
val copy : t -> t

(** [split t] derives a statistically independent generator and advances
    [t]. Use to hand sub-seeds to compilation passes without coupling their
    consumption patterns. *)
val split : t -> t

(** [int64 t] returns the next raw 64-bit output. *)
val int64 : t -> int64

(** [advance t n] skips the next [n] draws in O(1): afterwards [t] is in
    the state [n] calls of {!int64} would have left it in. [n <= 0] is a
    no-op. *)
val advance : t -> int -> unit

(** [float_run_at_least t p ~cap] — how many of the upcoming draws, in
    order, would each make [float t 1.0 >= p]: the length of that run,
    stopping at the first draw below [p] or at [cap]. Does not advance
    [t] and allocates nothing per draw scanned. *)
val float_run_at_least : t -> float -> cap:int -> int

(** [int t bound] returns a uniform integer in [\[0, bound)]. [bound] must be
    positive. *)
val int : t -> int -> int

(** [int_in_range t ~lo ~hi] returns a uniform integer in [\[lo, hi\]]
    (inclusive). Requires [lo <= hi]. *)
val int_in_range : t -> lo:int -> hi:int -> int

(** [bool t] returns a uniform boolean. *)
val bool : t -> bool

(** [float t bound] returns a uniform float in [\[0, bound)]. *)
val float : t -> float -> float

(** [shuffle t arr] permutes [arr] in place (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit

(** [shuffle_list t l] returns a permutation of [l]. *)
val shuffle_list : t -> 'a list -> 'a list

(** [choose t arr] picks a uniform element. [arr] must be non-empty. *)
val choose : t -> 'a array -> 'a

(** [choose_list t l] picks a uniform element. [l] must be non-empty. *)
val choose_list : t -> 'a list -> 'a

(** [sample_without_replacement t ~k arr] picks [k] distinct positions'
    elements uniformly. Requires [k <= Array.length arr]. *)
val sample_without_replacement : t -> k:int -> 'a array -> 'a list
