(* Fork-join parallel map over Domains, with deterministic task->result
   ordering. There is no standing pool: each [map] spawns up to
   [jobs - 1] fresh domains, runs them alongside the calling domain and
   joins them before returning, so a call pays domain start-up and
   suits coarse items.

   Work items are claimed through one atomic counter (dynamic load
   balancing — cheap items do not pin a domain while an expensive one
   runs), but every result lands in its item's slot, so [map] returns
   exactly what [List.map] would, in the same order, whatever the
   schedule. Exceptions are captured per item and re-raised in item
   order once every domain has joined, so the first (lowest-index)
   failure wins deterministically.

   Nested regions run serially: a [map] issued from inside a worker's
   task body degrades to [List.map] instead of spawning domains from
   domains, so callers can parallelise at whatever level they sit at
   without coordinating with their callers.

   Determinism of the *tasks* is the caller's contract: each item must
   carry its own independent seed/state (the harnesses derive one seed
   per item up front) and must not share mutable structures across
   items. *)

let in_region = Domain.DLS.new_key (fun () -> false)

let env_jobs () =
  match Sys.getenv_opt "R2C_JOBS" with
  | None -> None
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | _ -> None)

let default_jobs () =
  match env_jobs () with
  | Some n -> n
  | None -> max 1 (Domain.recommended_domain_count ())

let map ?jobs f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let jobs =
    min n (match jobs with Some j -> max 1 j | None -> default_jobs ())
  in
  if jobs <= 1 || Domain.DLS.get in_region then List.map f xs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      Domain.DLS.set in_region true;
      let rec claim () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <-
            Some
              (try Ok (f arr.(i))
               with e -> Error (e, Printexc.get_raw_backtrace ()));
          claim ()
        end
      in
      claim ()
    in
    let spawned = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    (* The calling domain is the pool's first worker; restore its flag
       afterwards so sibling regions opened later still parallelise. *)
    worker ();
    Domain.DLS.set in_region false;
    List.iter Domain.join spawned;
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
  end

let mapi ?jobs f xs = map ?jobs (fun (i, x) -> f i x) (List.mapi (fun i x -> (i, x)) xs)

let tasks ?jobs thunks = map ?jobs (fun f -> f ()) thunks
