(* In-memory host-time spans, recorded by the benchmark around its own
   calls into each layer's public functions (nothing inside lib/ is
   timed). A span is a name, a start and an end on the monotonic clock,
   and the span that was open around it on the same domain (its parent).
   With tracing off [with_span] is a plain call. *)

let now_ns () = Monotonic_clock.now ()
let secs_between a b = Int64.to_float (Int64.sub b a) *. 1e-9

type t = {
  id : int;
  name : string;
  parent : int;  (* id of the enclosing span on the same domain; -1 = root *)
  domain : int;
  start : int64;
  stop : int64;
}

let enabled = ref false
let next_id = Atomic.make 0
let lock = Mutex.create ()
let recorded : t list ref = ref []

(* Open span ids on this domain, innermost first. Spans opened on a
   worker domain (e.g. a fleet rotation build fanned over the Domain
   pool) are roots of their own domain. *)
let open_spans = Domain.DLS.new_key (fun () -> ref [])

let with_span name f =
  if not !enabled then f ()
  else begin
    let stack = Domain.DLS.get open_spans in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = now_ns () in
    let finish () =
      let stop = now_ns () in
      stack := List.tl !stack;
      let s = { id; name; parent; domain = (Domain.self () :> int); start; stop } in
      Mutex.protect lock (fun () -> recorded := s :: !recorded)
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Spans in start order. *)
let all () = List.sort (fun a b -> Int64.compare a.start b.start) !recorded

let dur s = secs_between s.start s.stop

type agg = { mutable count : int; mutable total : float; mutable self : float }

(* Per-name count, total and self time (duration minus the part covered
   by direct children; children never overlap their siblings on one
   domain, so summing their durations is exact). *)
let aggregate spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let a =
        match Hashtbl.find_opt by_name s.name with
        | Some a -> a
        | None ->
            let a = { count = 0; total = 0.0; self = 0.0 } in
            Hashtbl.add by_name s.name a;
            a
      in
      a.count <- a.count + 1;
      a.total <- a.total +. dur s;
      a.self <-
        a.self +. dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id))
    spans;
  by_name

(* One JSON object per line: id, name, parent, domain, start/end in ns
   relative to [origin]. *)
let write_jsonl ~origin path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"domain\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.id s.name s.parent s.domain (Int64.sub s.start origin) (Int64.sub s.stop origin))
    spans;
  close_out oc
