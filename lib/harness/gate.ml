module J = R2c_obs.Json

type ('a, 'r) t = {
  name : string;
  doc : string;
  run : 'a -> jobs:int option -> 'r;
  print : 'a -> 'r -> unit;
  to_json : 'r -> J.t;
  volatile : wall_ms:float -> 'r -> (string * J.t) list;
  check : 'a -> 'r -> string list;
}

let exec ?json_out ~jobs g args =
  let t0 = Unix.gettimeofday () in
  let r = g.run args ~jobs in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  g.print args r;
  let fields =
    match g.to_json r with
    | J.Obj fields -> fields
    | _ -> invalid_arg (g.name ^ ": to_json must render an object")
  in
  let jobs = match jobs with Some j -> j | None -> R2c_util.Parallel.default_jobs () in
  let line =
    J.to_string (J.Obj (fields @ (("jobs", J.Int jobs) :: g.volatile ~wall_ms r)))
  in
  print_endline line;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc line;
      output_char oc '\n';
      close_out oc)
    json_out;
  match g.check args r with
  | [] -> 0
  | fails ->
      List.iter (Printf.eprintf "%s: gate failed: %s\n" g.name) fails;
      1
