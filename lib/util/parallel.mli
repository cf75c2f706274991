(** Fork-join parallel map over Domains for embarrassingly parallel
    experiment fan-out, with deterministic task->result ordering. There
    is no standing pool: each call spawns up to [jobs - 1] fresh domains
    (the calling domain is the other worker) and joins them before it
    returns, so every call pays domain start-up; items should be coarse.

    [map f xs] equals [List.map f xs] observably — same results, same
    order, first (lowest-index) exception re-raised — while claiming
    items dynamically across [jobs] domains. The caller owes the usual
    contract for determinism: one independent seed/state per item, no
    mutable structure shared between items.

    With [jobs = 1] (or [Domain.recommended_domain_count () = 1], or
    fewer than two items) everything runs serially in the calling
    domain, so single-core runners take exactly the historical code
    path. A [map] issued from inside another [map]'s task body also
    degrades to serial instead of spawning domains from domains. *)

(** Effective default worker count: [$R2C_JOBS] when set to a positive
    integer, else [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

(** [map ?jobs f xs] — parallel, order-preserving [List.map]. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [mapi ?jobs f xs] — {!map} with the item index. *)
val mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list

(** [tasks ?jobs thunks] — run independent thunks, results in thunk
    order. *)
val tasks : ?jobs:int -> (unit -> 'a) list -> 'a list
