type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* SplitMix64 (Steele et al.), the reference stream generator: one additive
   constant walk plus a finalizing mix. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

(* The state is a counter: the n-th draw from now mixes [state + n*gamma],
   so skipping n draws is one multiply-add (wrapping, like the walk). *)
let advance t n =
  if n > 0 then t.state <- Int64.add t.state (Int64.mul (Int64.of_int n) golden_gamma)

(* [float t 1.0] is [bits / 2^53] with [bits] the top 53 bits of a draw:
   an exact float, so [float t 1.0 < p] holds iff [bits < ceil (p * 2^53)]
   ([p * 2^53] is exact too, a power-of-two scaling). The scan stays in
   int64 locals and never touches [t]: no allocation per draw. *)
let float_run_at_least t p ~cap =
  if p > 1.0 then 0 (* every draw is below [p] *)
  else if not (p > 0.0) then max 0 cap (* none is: 0, negative or nan *)
  else begin
    let threshold = Int64.of_float (Float.ceil (p *. 9007199254740992.0)) in
    let s = ref t.state and n = ref 0 and stop = ref false in
    while (not !stop) && !n < cap do
      s := Int64.add !s golden_gamma;
      if Int64.compare (Int64.shift_right_logical (mix64 !s) 11) threshold < 0 then stop := true
      else incr n
    done;
    !n
  end

let split t =
  let s = int64 t in
  { state = s }

let int t bound =
  assert (bound > 0);
  (* Rejection-free for our purposes: 62 random bits modulo the bound. The
     modulo bias is < bound / 2^62, irrelevant at our bounds. *)
  let bits = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  bits mod bound

let int_in_range t ~lo ~hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (int64 t) 1L = 1L

let float t bound =
  let bits = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int bits /. 9007199254740992.0 *. bound

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let shuffle_list t l =
  let arr = Array.of_list l in
  shuffle t arr;
  Array.to_list arr

let choose t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let choose_list t l =
  match l with
  | [] -> invalid_arg "Rng.choose_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let sample_without_replacement t ~k arr =
  let n = Array.length arr in
  assert (k <= n);
  let idx = Array.init n (fun i -> i) in
  (* Partial Fisher-Yates: only the first k draws are needed. *)
  let picked = ref [] in
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp;
    picked := arr.(idx.(i)) :: !picked
  done;
  List.rev !picked
