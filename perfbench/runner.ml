(* The measurement loop shared by every workload.

   A workload is a deterministic round of [round_ops] operations run on
   an instance its [setup] makes. The loop repeats whole rounds until
   the time budget is spent, so every op of a later round replays the op
   at the same index of round 0 and must reproduce its simulated
   counters exactly; a mismatch counts as a wrong output. The digest is
   taken over round 0's counters and every round's closing summary.

   Timing: a monotonic clock, every set-up started from a compacted
   heap, op latencies taken around the op call alone. Reference results
   and correctness checks run outside every timed region. *)

type verdict = {
  ok : bool;  (* the op did its job (served, or the right output) *)
  wrong : bool;  (* the op's output is wrong *)
  insns : int;  (* simulated instructions the op retired *)
  record : string;  (* the op's simulated counters, for the digest *)
}

type 'i workload = {
  round_ops : int;
  fresh_per_round : bool;  (* each round starts from a new instance *)
  setup : unit -> 'i;
  check_setup : 'i -> bool;  (* untimed: the set-up built the right thing *)
  op : 'i -> int -> verdict;
  round_summary : 'i -> string * bool;
      (* untimed: end-of-round state, and whether it is sound *)
}

type state = {
  mutable setup_s : float list;
  mutable reference : string array option;  (* round 0's records *)
  mutable summary : string option;  (* round 0's closing summary *)
  digest : Buffer.t;
  mutable attempted : int;
  mutable wrong : int;
  mutable ok : int;
}

let create () =
  {
    setup_s = [];
    reference = None;
    summary = None;
    digest = Buffer.create 4096;
    attempted = 0;
    wrong = 0;
    ok = 0;
  }

let check st wl inst =
  if not (wl.check_setup inst) then begin
    prerr_endline "perfbench: set-up check failed";
    st.wrong <- st.wrong + 1
  end;
  inst

(* A set-up timed from a compacted heap. *)
let timed_setup st wl =
  Gc.compact ();
  let t0 = Span.now_ns () in
  let inst = Span.with_span "setup" wl.setup in
  st.setup_s <- Span.secs_between t0 (Span.now_ns ()) :: st.setup_s;
  check st wl inst

(* One timed phase: per round, the simulated instructions retired and
   each op's seconds. *)
type round = { insns : int; lat : float array }

(* Set-ups per timed phase. The first round runs on the instance the
   caller set up; later rounds get a new one after each [1/setup_reps]
   of the phase (or every round, on a workload with a fresh instance per
   round), so that the median set-up time does not
   hang on one phase of the host. *)
let setup_reps = 5

let timed st wl inst ~seconds =
  let rounds = ref [] in
  let t_start = Span.now_ns () in
  let next_setup = ref 1 in
  let setup_due () =
    wl.fresh_per_round
    || Span.secs_between t_start (Span.now_ns ())
       >= float_of_int !next_setup *. seconds /. float_of_int setup_reps
       && (incr next_setup; true)
  in
  let rec round inst =
    let inst = if Option.is_some st.reference && setup_due () then timed_setup st wl else inst in
    let records = Array.make wl.round_ops "" and lat = Array.make wl.round_ops 0.0 in
    let insns = ref 0 in
    for i = 0 to wl.round_ops - 1 do
      let t0 = Span.now_ns () in
      let v = Span.with_span "op" (fun () -> wl.op inst i) in
      lat.(i) <- Span.secs_between t0 (Span.now_ns ());
      insns := !insns + v.insns;
      records.(i) <- v.record;
      let replayed =
        match st.reference with Some ref_ -> String.equal ref_.(i) v.record | None -> true
      in
      st.attempted <- st.attempted + 1;
      if v.wrong || not replayed then st.wrong <- st.wrong + 1
      else if v.ok then st.ok <- st.ok + 1
    done;
    let summary, sound = wl.round_summary inst in
    if not sound then begin
      prerr_endline "perfbench: round ended in an unsound state";
      st.wrong <- st.wrong + 1
    end;
    (match (st.reference, st.summary) with
    | None, _ ->
        st.reference <- Some records;
        st.summary <- Some summary;
        Array.iter
          (fun r ->
            Buffer.add_string st.digest r;
            Buffer.add_char st.digest '\n')
          records;
        Buffer.add_string st.digest summary
    | Some _, Some s0 when not (String.equal s0 summary) ->
        prerr_endline "perfbench: round summary differs from round 0";
        st.wrong <- st.wrong + 1
    | Some _, _ -> ());
    rounds := { insns = !insns; lat } :: !rounds;
    if Span.secs_between t_start (Span.now_ns ()) < seconds then round inst else inst
  in
  let inst = round inst in
  (inst, List.rev !rounds)

(* Throughput over the whole timed region: ops (or simulated
   instructions) over the summed op time. *)
let op_time rounds = List.fold_left (fun acc r -> Array.fold_left ( +. ) acc r.lat) 0.0 rounds
let per_op_second n rounds = float_of_int n /. op_time rounds
let ops rounds = List.fold_left (fun acc r -> acc + Array.length r.lat) 0 rounds
let ops_per_s rounds = per_op_second (ops rounds) rounds
let insns_per_s rounds = per_op_second (List.fold_left (fun acc r -> acc + r.insns) 0 rounds) rounds

let all_lat rounds = Array.concat (List.map (fun r -> r.lat) rounds)

let digest st = Digest.to_hex (Digest.string (Buffer.contents st.digest))

(* ---- statistics ---- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array. *)
let pct s p =
  let n = Array.length s in
  if n = 0 then 0.0
  else
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (k - 1)))

let median l = pct (sorted (Array.of_list l)) 50.0

(* Every round replays the same ops, so each op index is timed once per
   round; [typical] keeps its median replay. *)
let typical rounds =
  match rounds with
  | [] -> [||]
  | r :: _ ->
      Array.init (Array.length r.lat) (fun i ->
          pct (sorted (Array.of_list (List.map (fun r -> r.lat.(i)) rounds))) 50.0)


(* The highest percentile of the ladder with at least ten samples
   beyond it: (percentile, samples beyond, value). *)
let tail s =
  let n = Array.length s in
  let ladder = [ 99.99; 99.9; 99.5; 99.0; 98.0; 95.0; 90.0; 80.0; 75.0; 50.0 ] in
  let beyond p = n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  let p = try List.find (fun p -> beyond p >= 10) ladder with Not_found -> 50.0 in
  (p, beyond p, pct s p)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0
