(* The benchmark's own phase-by-phase build: exactly the steps
   [Pipeline.compile] takes (instrument, then [Driver.compile]'s validate ->
   emit -> link), with a span around each layer call. The workloads
   check that it yields the same [Image.fingerprint] as
   [Pipeline.compile] at the same coordinates, so the per-phase times
   describe the real build. *)

module Pipeline = R2c_core.Pipeline
module Driver = R2c_compiler.Driver
module Link = R2c_compiler.Link

let phased ?link_seed ~seed cfg (p : Ir.program) =
  Span.with_span "build" (fun () ->
      let p, opts =
        Span.with_span "instrument" (fun () -> Pipeline.instrument ?link_seed ~seed cfg p)
      in
      (match Span.with_span "validate" (fun () -> Validate.check p) with
      | [] -> ()
      | errors -> raise (Driver.Invalid_program errors));
      let emitted = Span.with_span "emit" (fun () -> Driver.emit_all ~opts p) in
      Span.with_span "link" (fun () -> Link.link ~opts ~main:p.Ir.main emitted p.Ir.globals))
