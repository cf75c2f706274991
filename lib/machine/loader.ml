let load ?(strict_align = false) ?inject ?jit ?jit_cache ?reuse ~profile (img : Image.t) =
  (* In-place restart: the previous incarnation's memory and icache, when
     it ran this image under this profile, are wiped and refilled rather
     than reallocated. *)
  let mem, icache =
    match reuse with
    | Some (old : Cpu.t) when old.Cpu.image == img && old.Cpu.profile == profile ->
        Mem.recycle old.Cpu.mem;
        (old.Cpu.mem, Some old.Cpu.icache)
    | _ -> (Mem.create (), None)
  in
  (* Text: mapped sealed, its bytes copied in past the permissions. *)
  let text_len = Addr.align_up (max img.Image.text_len Addr.page_size) ~align:Addr.page_size in
  Mem.map mem img.Image.text_base text_len img.Image.text_perm;
  Mem.poke_bytes mem img.Image.text_base (Image.text_bytes img);
  (* Data. *)
  let data_len = Addr.align_up (max img.Image.data_len Addr.page_size) ~align:Addr.page_size in
  Mem.map mem img.Image.data_base data_len Perm.rw;
  List.iter (fun (addr, v) -> Mem.write_u64 mem addr v) (Lazy.force img.Image.data_words);
  List.iter
    (fun (addr, s) -> Mem.write_bytes mem addr (Bytes.of_string s))
    (Lazy.force img.Image.data_bytes);
  (* Stack. *)
  let stack_len = Addr.align_up img.Image.stack_bytes ~align:Addr.page_size in
  Mem.map mem (Addr.stack_top - stack_len) stack_len Perm.rw;
  let rsp = Addr.stack_top - 64 in
  assert (rsp land 15 = 0);
  let heap = Heap.create mem ~base:img.Image.heap_base in
  let cpu =
    Cpu.create ~strict_align ?inject ?icache ~profile ~mem ~heap img ~rip:img.Image.entry ~rsp
  in
  (* Tier-3 JIT: on by default (R2C_JIT=0 disables fleet-wide). Compiled
     code calls no injector hooks, so [Cpu.run] keeps an injected CPU on
     the fast interpreter and attaching a JIT would only waste the
     cache. *)
  let want = match jit with Some b -> b | None -> Jit.enabled () in
  if want && Option.is_none inject then ignore (Jit.attach ?cache:jit_cache cpu);
  cpu
