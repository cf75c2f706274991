open R2c_machine

(* A relocation template: everything layout-independent about one emitted
   function's placement. Instruction byte offsets are fixed at emission
   time ([Asm.esizes]), so only the instructions listed in [t_reloc]
   (those carrying symbolic operands) need any work when the function
   lands at a new entry address — the rest are placed as-is. Computed
   once per cache entry by the incremental rebuild path; the cold linker
   derives the same information on the fly. *)
type template = {
  t_len : int;  (* total encoded length, [Asm.byte_size] precomputed *)
  t_offs : int array;  (* byte offset of each instruction *)
  t_reloc : int array;  (* indices of unresolved instructions, ascending *)
  t_syms : string array;  (* distinct external symbols referenced, for
                             the eager undefined-symbol check; the
                             body's own labels are defined at placement
                             and need no check *)
}

let template (e : Asm.emitted) =
  let n = Array.length e.insns in
  let offs = Array.make n 0 in
  let off = ref 0 in
  let reloc = ref [] in
  let syms = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    offs.(i) <- !off;
    off := !off + e.esizes.(i);
    if not (Insn.is_resolved e.insns.(i)) then begin
      reloc := i :: !reloc;
      ignore
        (Insn.map_syms
           (fun s o ->
             Hashtbl.replace syms s ();
             o)
           e.insns.(i))
    end
  done;
  Hashtbl.remove syms e.ename;
  List.iter (fun (s, _) -> Hashtbl.remove syms s) e.local_syms;
  {
    t_len = !off;
    t_offs = offs;
    t_reloc = Array.of_list (List.rev !reloc);
    t_syms = Array.of_seq (Seq.map fst (Hashtbl.to_seq syms));
  }

let link_gen ~(opts : Opts.t) ~main (pairs : (Asm.emitted * template) list)
    (globals : Ir.global list) =
  let md = opts.mdesc in
  let plt_entry_bytes = md.Mdesc.plt_entry_bytes in
  let insn_size = md.Mdesc.insn_size in
  let npairs = List.length pairs in
  (* Sized for the full symbol population (functions, local labels,
     globals) up front: at fleet scale the default-doubling resizes are a
     measurable slice of the per-rotation relink. *)
  let symbols : (string, int) Hashtbl.t = Hashtbl.create (max 1024 (8 * npairs)) in
  let define name addr =
    if Hashtbl.mem symbols name then invalid_arg ("link: duplicate symbol " ^ name);
    Hashtbl.replace symbols name addr
  in
  let text_base = Addr.text_base + opts.text_slide in
  let builtin_addrs = Hashtbl.create 16 in
  List.iteri
    (fun i name ->
      let a = text_base + (i * plt_entry_bytes) in
      Hashtbl.replace builtin_addrs a name;
      define name a)
    Image.builtin_names;
  (* _start: run constructors, call main, halt with main's result. *)
  let start_insns =
    List.map (fun c -> Insn.Call (TSym (c, 0))) opts.constructors
    @ [ Insn.Call (TSym (main, 0)); Insn.Halt ]
  in
  let start_base = text_base + (List.length Image.builtin_names * plt_entry_bytes) in
  define "_start" start_base;
  let start_len =
    List.fold_left (fun acc i -> acc + insn_size i) 0 start_insns
  in
  (* Function placement. *)
  let by_name = Hashtbl.create (max 256 (2 * npairs)) in
  List.iter
    (fun ((e : Asm.emitted), _) ->
      if Hashtbl.mem by_name e.ename then invalid_arg ("link: duplicate function " ^ e.ename);
      Hashtbl.replace by_name e.ename e)
    pairs;
  let tmpl_of = Hashtbl.create (max 256 (2 * npairs)) in
  List.iter (fun ((e : Asm.emitted), t) -> Hashtbl.replace tmpl_of e.Asm.ename t) pairs;
  let names = List.map (fun ((e : Asm.emitted), _) -> e.Asm.ename) pairs in
  let order = opts.func_order names in
  if List.length order <> List.length names then
    invalid_arg "link: func_order changed the number of functions";
  List.iter
    (fun n -> if not (Hashtbl.mem by_name n) then invalid_arg ("link: func_order invented " ^ n))
    order;
  let cursor = ref (start_base + start_len) in
  let placed =
    List.map
      (fun name ->
        let e : Asm.emitted = Hashtbl.find by_name name in
        let t : template = Hashtbl.find tmpl_of name in
        let entry = !cursor in
        define e.Asm.ename entry;
        List.iter (fun (s, off) -> define s (entry + off)) e.Asm.local_syms;
        let len = t.t_len in
        cursor := !cursor + len + max 0 (opts.func_pad ~fname:name);
        (e, t, entry, len))
      order
  in
  let text_len = !cursor - text_base in
  if text_base + text_len > Addr.text_limit then invalid_arg "link: text region overflow";
  (* Data layout. *)
  let data_base = Addr.data_base + opts.data_slide in
  let ordered_globals = opts.global_order (globals @ opts.extra_globals) in
  let dcursor = ref data_base in
  let global_addr =
    List.map
      (fun ((g : Ir.global), pad) ->
        let addr = Addr.align_up !dcursor ~align:16 in
        define g.gname addr;
        dcursor := addr + g.gsize + max 0 pad;
        (g, addr))
      ordered_globals
  in
  let data_len = max Addr.page_size (!dcursor - data_base) in
  if data_base + data_len > Addr.data_limit then invalid_arg "link: data region overflow";
  (* Resolution. *)
  let resolve s off =
    match Hashtbl.find_opt symbols s with
    | Some a -> a + off
    | None -> invalid_arg ("link: undefined symbol " ^ s)
  in
  (* Undefined references are a link-time error even though the
     per-instruction fill below is deferred: check every distinct symbol
     each body references (plus _start's own) against the now-complete
     table. *)
  List.iter (fun insn -> ignore (Insn.map_syms resolve insn)) start_insns;
  List.iter
    (fun ((_ : Asm.emitted), (t : template), _, _) ->
      Array.iter (fun s -> ignore (resolve s 0)) t.t_syms)
    placed;
  (* Text placement, in ascending address order: _start first, then the
     functions at their assigned entries. Lengths come from the
     emission-time encoder measurement ([Asm.esizes]): layout and
     execution must agree even when resolution changes an immediate's
     width. Only instructions on a template's relocation list touch the
     symbol table; everything else is placed as-is. The whole-text fill
     is deferred until the image is loaded, fingerprinted or audited —
     layout and symbol resolution above are the only eager per-rotation
     work, which is what makes the steady-state incremental relink
     relocation-only. *)
  let code_list =
    lazy
      (let total_insns =
         List.fold_left
           (fun acc ((e : Asm.emitted), _, _, _) -> acc + Array.length e.insns)
           (List.length start_insns) placed
       in
       let arr = Array.make total_insns (0, Insn.Halt, 0) in
       let slot = ref 0 in
       let place addr insn len =
         arr.(!slot) <- (addr, insn, len);
         incr slot
       in
       let (_ : int) =
         List.fold_left
           (fun addr insn ->
             let len = insn_size insn in
             let resolved = Insn.map_syms resolve insn in
             assert (Insn.is_resolved resolved);
             place addr resolved len;
             addr + len)
           start_base start_insns
       in
       let place_emitted (e : Asm.emitted) (t : template) entry =
         let ri = ref 0 in
         let nr = Array.length t.t_reloc in
         Array.iteri
           (fun i insn ->
             let insn =
               if !ri < nr && t.t_reloc.(!ri) = i then begin
                 incr ri;
                 let resolved = Insn.map_syms resolve insn in
                 assert (Insn.is_resolved resolved);
                 resolved
               end
               else insn
             in
             place (entry + t.t_offs.(i)) insn e.esizes.(i))
           e.insns
       in
       List.iter
         (fun ((e : Asm.emitted), t, entry, _len) -> place_emitted e t entry)
         placed;
       assert (!slot = total_insns);
       arr)
  in
  let unwind_sites = Hashtbl.create (max 1024 (4 * npairs)) in
  let checked_sites = Hashtbl.create 64 in
  let unwind_rows = ref [] in
  let funcs =
    List.map
      (fun ((e : Asm.emitted), _, entry, len) ->
        (match e.eframe with
        | Some meta ->
            unwind_rows := (entry, len, meta.Asm.frame_size, meta.Asm.post_words) :: !unwind_rows;
            List.iter
              (fun (ra, words) -> Hashtbl.replace unwind_sites (resolve ra 0) words)
              meta.Asm.ra_sites;
            List.iter
              (fun ra -> Hashtbl.replace checked_sites (resolve ra 0) ())
              meta.Asm.check_sites
        | None -> ());
        { Image.fname = e.ename; entry; code_len = len; is_booby_trap = e.ebooby_trap })
      placed
  in
  let unwind_funcs =
    let arr = Array.of_list !unwind_rows in
    Array.sort
      (fun (e1, _, _, _) (e2, _, _, _) -> Int.compare (e1 : int) e2)
      arr;
    arr
  in
  (* Global initialisers. Function symbols go through the code-pointer
     alias (CPH trampolines for defense models). The per-word
     materialization is deferred like the text fill — BTRA decoy arrays
     make the initialiser volume proportional to program size — but
     undefined references stay an eager link error: check each symbolic
     initialiser against the completed table now (membership only, no
     list building). *)
  let is_func = Hashtbl.mem by_name in
  let alias s = if is_func s then opts.func_alias s else s in
  let check s = if not (Hashtbl.mem symbols s) then invalid_arg ("link: undefined symbol " ^ s) in
  List.iter
    (fun ((g : Ir.global), _) ->
      List.iter
        (function
          | Ir.Sym_addr s -> check (alias s)
          | Ir.Sym_addr_off (s, _) -> check s
          | Ir.Word _ | Ir.Str _ -> ())
        g.ginit)
    global_addr;
  let data_init =
    lazy
      (let data_words = ref [] in
       let data_bytes = ref [] in
       (* Symbolic initialisers resolving into text are the sanctioned
          code-pointer population the static auditor's hygiene rule checks
          readable memory against. *)
       let code_ptr_slots = Hashtbl.create 64 in
       let add_word addr v =
         data_words := (addr, v) :: !data_words;
         if v >= text_base && v < text_base + text_len then
           Hashtbl.replace code_ptr_slots addr ()
       in
       List.iter
         (fun ((g : Ir.global), addr) ->
           let (_ : int) =
             List.fold_left
               (fun off item ->
                 match item with
                 | Ir.Word v ->
                     data_words := (addr + off, v) :: !data_words;
                     off + 8
                 | Ir.Sym_addr s ->
                     add_word (addr + off) (resolve (alias s) 0);
                     off + 8
                 | Ir.Sym_addr_off (s, o) ->
                     add_word (addr + off) (resolve s o);
                     off + 8
                 | Ir.Str s ->
                     data_bytes := (addr + off, s) :: !data_bytes;
                     off + String.length s)
               0 g.ginit
           in
           ())
         global_addr;
       (List.rev !data_words, List.rev !data_bytes, code_ptr_slots))
  in
  let code =
    lazy
      (let arr = Lazy.force code_list in
       let h = Hashtbl.create (max 4096 (2 * Array.length arr)) in
       Array.iter (fun (addr, insn, len) -> Hashtbl.replace h addr (insn, len)) arr;
       h)
  in
  {
    Image.code;
    code_list;
    text_base;
    text_len;
    text_perm = opts.text_perm;
    data_base;
    data_len;
    data_words = lazy (let w, _, _ = Lazy.force data_init in w);
    data_bytes = lazy (let _, b, _ = Lazy.force data_init in b);
    symbols;
    funcs;
    entry = start_base;
    builtin_addrs;
    stack_bytes = opts.stack_bytes;
    heap_base = Addr.heap_base + opts.heap_slide;
    unwind_funcs;
    unwind_sites;
    checked_sites;
    code_ptr_slots = (lazy (let _, _, s = Lazy.force data_init in s));
    shadow_stack = opts.shadow_stack;
    decoded = Atomic.make None;
  }

let link ~opts ~main emitted globals =
  link_gen ~opts ~main (List.map (fun e -> (e, template e)) emitted) globals

let link_templated ~opts ~main pairs globals = link_gen ~opts ~main pairs globals
