(* The benchmark's own tests: the simulated-result digest of each
   workload is a function of the seed alone. The same seed gives the same
   digest at 1 and at 2 domains, and another seed gives another digest.
   Each runs one full round with one set-up; every op is checked.

     dune build @perfbench/selftest *)

let digest ~domains wl =
  let st = Runner.create () in
  let inst = Runner.timed_setup st wl in
  (* A zero budget runs exactly one round. *)
  ignore (Runner.timed st wl inst ~seconds:0.0);
  if st.Runner.wrong > 0 then
    failwith (Printf.sprintf "%d wrong results at %d domains" st.Runner.wrong domains);
  Runner.digest st

let check name make =
  let a1 = digest ~domains:1 (make ~seed:1 ~domains:1) in
  let a2 = digest ~domains:2 (make ~seed:1 ~domains:2) in
  let b2 = digest ~domains:2 (make ~seed:2 ~domains:2) in
  let ok = String.equal a1 a2 && not (String.equal a1 b2) in
  Printf.printf "%-5s seed 1 @1 domain %s  @2 domains %s  seed 2 %s  %s\n%!" name a1 a2 b2
    (if ok then "ok" else "FAIL");
  ok

let () =
  let spec_programs = lazy (Spec_wl.prepare ()) in
  let serve = check "serve" (fun ~seed ~domains -> Serve_wl.workload ~seed ~domains) in
  let spec =
    check "spec" (fun ~seed ~domains:_ -> Spec_wl.workload ~seed (Lazy.force spec_programs))
  in
  let wide =
    check "wide" (fun ~seed ~domains -> Wide_wl.workload ~domains (Wide_wl.prepare ~seed))
  in
  if not (serve && spec && wide) then exit 1
