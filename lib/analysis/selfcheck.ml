open R2c_machine

type mutation = Drop_btra_postcheck | Skip_mprotect | Plant_code_pointer

let all = [ Drop_btra_postcheck; Skip_mprotect; Plant_code_pointer ]

let mutation_to_string = function
  | Drop_btra_postcheck -> "drop BTRA post-check"
  | Skip_mprotect -> "skip mprotect seal"
  | Plant_code_pointer -> "plant readable code pointer"

let expected_rule = function
  | Drop_btra_postcheck -> "btra"
  | Skip_mprotect -> "wx"
  | Plant_code_pointer -> "ptr"

let drop_postcheck (img : Image.t) =
  let ras = Hashtbl.fold (fun a () acc -> a :: acc) img.checked_sites [] in
  match List.sort compare ras with
  | [] ->
      invalid_arg
        "Selfcheck: image has no checked BTRA call sites (build with check_after_return)"
  | ra :: _ -> (
      match Image.code_at img ra with
      | Some (Insn.Mov (Reg R11, Mem _), len) ->
          (* Overwrite the first post-check instruction with a same-size
             NOP in a deep copy of the code tables: the emitted bytes no
             longer match what checked_sites promises. *)
          let code =
            let copy = Hashtbl.copy (Lazy.force img.code) in
            Hashtbl.replace copy ra (Insn.Nop len, len);
            Lazy.from_val copy
          in
          let code_list =
            Lazy.from_val
              (Array.map
                 (fun (a, i, l) -> if a = ra then (a, Insn.Nop len, l) else (a, i, l))
                 (Lazy.force img.code_list))
          in
          { img with code; code_list; decoded = Atomic.make None }
      | _ -> invalid_arg "Selfcheck: no post-return check at the first checked site")

let skip_mprotect (img : Image.t) = { img with text_perm = Perm.rw }

let plant_code_pointer (img : Image.t) =
  let victim =
    match List.find_opt (fun (f : Image.func_info) -> not f.is_booby_trap) img.funcs with
    | Some f -> f
    | None -> invalid_arg "Selfcheck: image has no ordinary function to leak"
  in
  let addr = Addr.align_up (img.data_base + img.data_len) ~align:8 in
  {
    img with
    data_len = addr + 8 - img.data_base;
    data_words = lazy (Lazy.force img.data_words @ [ (addr, victim.entry) ]);
  }

let apply m img =
  match m with
  | Drop_btra_postcheck -> drop_postcheck img
  | Skip_mprotect -> skip_mprotect img
  | Plant_code_pointer -> plant_code_pointer img

type outcome = {
  mutation : mutation;
  expected : string;
  rules_hit : string list;
  n_findings : int;
  ok : bool;
}

let run ~expect img =
  List.map
    (fun m ->
      let findings = Lint.run ~expect (apply m img) in
      let rules_hit =
        List.sort_uniq compare (List.map (fun (f : Lint.finding) -> f.rule) findings)
      in
      let expected = expected_rule m in
      {
        mutation = m;
        expected;
        rules_hit;
        n_findings = List.length findings;
        ok = findings <> [] && rules_hit = [ expected ];
      })
    all

(* === IR rule pack + translation validator wiring ======================== *)

type ir_mutation =
  | Read_uninitialized
  | Orphan_definition
  | Zero_divisor
  | Slot_escape
  | Lowering_mismatch

let ir_all =
  [ Read_uninitialized; Orphan_definition; Zero_divisor; Slot_escape; Lowering_mismatch ]

let ir_mutation_to_string = function
  | Read_uninitialized -> "read an uninitialized var"
  | Orphan_definition -> "define a var nobody reads"
  | Zero_divisor -> "divide by the constant 0"
  | Slot_escape -> "load one word past the slot"
  | Lowering_mismatch -> "lower Sub as Add"

let ir_expected_rule = function
  | Read_uninitialized -> "use-before-def"
  | Orphan_definition -> "dead-store"
  | Zero_divisor -> "const-div-by-zero"
  | Slot_escape -> "oob-const-slot-offset"
  | Lowering_mismatch -> "tval"

(* The carrier: a minimal program on which every mutation below is a
   single-instruction twist, and which is itself clean under the whole
   rule pack and the validator (asserted by the test suite). The loaded
   value is opaque to CCP, so the divisor and the slot offset are the
   only constants in sight. *)
let carrier () =
  let module B = Builder in
  let fb = B.func "main" ~nparams:0 in
  let s = B.slot fb 16 in
  let a = B.slot_addr fb s in
  B.store fb a 0 (Ir.Const 7);
  let l = B.load fb a 0 in
  let add = B.binop fb Ir.Add l (Ir.Const 1) in
  let sub = B.binop fb Ir.Sub add (Ir.Const 2) in
  let d = B.binop fb Ir.Div sub l in
  B.call_void fb (Ir.Builtin "print_int") [ d ];
  B.ret fb (Some (Ir.Const 0));
  B.program ~main:"main" [ B.finish fb ] []

let map_main_body ?(extra_vars = 0) f (p : Ir.program) =
  let funcs =
    List.map
      (fun (fn : Ir.func) ->
        if fn.Ir.name <> p.Ir.main then fn
        else
          {
            fn with
            Ir.nvars = fn.Ir.nvars + extra_vars;
            blocks =
              List.map
                (fun (b : Ir.block) -> { b with Ir.body = f fn b.Ir.body })
                fn.Ir.blocks;
          })
      p.Ir.funcs
  in
  { p with Ir.funcs }

let twist m p =
  match m with
  | Read_uninitialized ->
      (* The Add's left operand becomes a var no instruction defines. *)
      map_main_body ~extra_vars:1
        (fun fn body ->
          List.map
            (function
              | Ir.Binop (v, Ir.Add, _, rhs) -> Ir.Binop (v, Ir.Add, Ir.Var fn.Ir.nvars, rhs)
              | i -> i)
            body)
        p
  | Orphan_definition ->
      map_main_body ~extra_vars:1
        (fun fn body -> Ir.Mov (fn.Ir.nvars, Ir.Const 5) :: body)
        p
  | Zero_divisor ->
      map_main_body
        (fun _ body ->
          List.map
            (function
              | Ir.Binop (v, Ir.Div, a, _) -> Ir.Binop (v, Ir.Div, a, Ir.Const 0)
              | i -> i)
            body)
        p
  | Slot_escape ->
      map_main_body
        (fun _ body ->
          List.map
            (function Ir.Load (v, a, 0) -> Ir.Load (v, a, 16) | i -> i)
            body)
        p
  | Lowering_mismatch ->
      map_main_body
        (fun _ body ->
          List.map
            (function
              | Ir.Binop (v, Ir.Sub, a, b) -> Ir.Binop (v, Ir.Add, a, b)
              | i -> i)
            body)
        p

type ir_outcome = {
  ir_mutation : ir_mutation;
  ir_expected : string;
  ir_rules_hit : string list;
  ir_n_findings : int;
  ir_ok : bool;
}

let run_ir ?(seed = 3) () =
  let p = carrier () in
  List.map
    (fun m ->
      let rules_hit, n =
        match m with
        | Lowering_mismatch ->
            (* Compile the twisted twin and validate its image against the
               true carrier: the exact shape of an emitter miscompile. The
               twin itself is rule-pack-clean, so any signal is Tval's. *)
            let img, meta, p' =
              R2c_core.Pipeline.compile_with_meta ~seed
                (R2c_core.Dconfig.full ()) (twist m p)
            in
            let funcs =
              List.map
                (fun (f : Ir.func) ->
                  match Ir.find_func p f.Ir.name with Some o -> o | None -> f)
                p'.Ir.funcs
            in
            let r = Tval.validate ~img ~meta { p' with Ir.funcs } in
            let ir = Lint.run_ir (twist m p) in
            ( List.sort_uniq compare
                ((if r.Tval.findings <> [] then [ "tval" ] else [])
                @ List.map (fun (f : Lint.ir_finding) -> f.Lint.ir_rule) ir),
              List.length r.Tval.findings + List.length ir )
        | _ ->
            (* The other mutations break the validator's use-before-init
               precondition or only the IR-level contract, so the rule
               pack alone is in scope. *)
            let fs = Lint.run_ir (twist m p) in
            ( List.sort_uniq compare
                (List.map (fun (f : Lint.ir_finding) -> f.Lint.ir_rule) fs),
              List.length fs )
      in
      let ir_expected = ir_expected_rule m in
      {
        ir_mutation = m;
        ir_expected;
        ir_rules_hit = rules_hit;
        ir_n_findings = n;
        ir_ok = n > 0 && rules_hit = [ ir_expected ];
      })
    ir_all
