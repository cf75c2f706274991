type observer = rip:int -> cycles:float -> misses:int -> called:bool -> unit

type run_result = Halted | Fuel_exhausted | Faulted of Fault.t

type t = {
  mem : Mem.t;
  heap : Heap.t;
  image : Image.t;
  regs : int array;
  ymm : int array;
  mutable rip : int;
  mutable cmp_l : int;
  mutable cmp_r : int;
  mutable cycles : float;
  mutable insns : int;
  mutable calls : int;
  mutable depth : int;
  mutable max_depth : int;
  mutable halted : bool;
  mutable exit_code : int;
  profile : Cost.profile;
  icache : Icache.t;
  out : Buffer.t;
  input : string Queue.t;
  mutable sensitive_log : (int * int) list;
  mutable strict_align : bool;
  shadow : int list ref;  (* shadow stack of return addresses (CFI) *)
  inject : Inject.t option;  (* chaos fault injector, if attached *)
  mutable observer : observer option;  (* per-step hook; None = no cost *)
  mutable btap : (t -> string -> unit) option;
      (* builtin-boundary tap; None = no cost *)
  mutable tier3 : (t -> fuel:int -> run_result) option;
      (* the JIT runner (Jit.attach); None = run falls back to the fast
         interpreter tier *)
}

let create ?(strict_align = false) ?inject ?icache ~profile ~mem ~heap image ~rip ~rsp =
  let icache =
    match icache with
    | Some ic ->
        Icache.reset ic;
        ic
    | None ->
        Icache.create ~lines:profile.Cost.icache_lines
          ~line_bytes:profile.Cost.icache_line_bytes
  in
  let t =
    {
      mem;
      heap;
      image;
      regs = Array.make 16 0;
      ymm = Array.make (16 * 8) 0;
      rip;
      cmp_l = 0;
      cmp_r = 0;
      cycles = 0.0;
      insns = 0;
      calls = 0;
      depth = 0;
      max_depth = 0;
      halted = false;
      exit_code = 0;
      profile;
      icache;
      out = Buffer.create 256;
      input = Queue.create ();
      sensitive_log = [];
      strict_align;
      shadow = ref [];
      inject;
      observer = None;
      btap = None;
      tier3 = None;
    }
  in
  t.regs.(Insn.reg_index RSP) <- rsp;
  t

let reg_get t r = t.regs.(Insn.reg_index r)
let reg_set t r v = t.regs.(Insn.reg_index r) <- v

let eval_imm = function
  | Insn.Abs v -> v
  | Insn.Sym (s, _) -> invalid_arg ("Cpu: unresolved symbol " ^ s)

let eval_mem t (m : Insn.mem_operand) =
  let base = match m.base with Some r -> reg_get t r | None -> 0 in
  let index =
    match m.index with
    | Some (r, s) -> reg_get t r * Insn.scale_factor s
    | None -> 0
  in
  base + index + eval_imm m.disp

(* Data loads thread through the injector (when attached): a fraction of
   them return a corrupted value. Control-flow reads (ret, pop of return
   addresses via the shadow stack, builtin dispatch) are left alone so the
   CFI semantics stay honest. *)
let injected_load t v =
  match t.inject with Some inj -> Inject.on_load inj v | None -> v

let eval_op t = function
  | Insn.Imm i -> eval_imm i
  | Insn.Reg r -> reg_get t r
  | Insn.Mem m -> injected_load t (Mem.read_u64 t.mem (eval_mem t m))

let eval_op8 t = function
  | Insn.Imm i -> eval_imm i land 0xff
  | Insn.Reg r -> reg_get t r land 0xff
  | Insn.Mem m -> injected_load t (Mem.read_u8 t.mem (eval_mem t m)) land 0xff

let store_op t op v =
  match op with
  | Insn.Reg r -> reg_set t r v
  | Insn.Mem m -> Mem.write_u64 t.mem (eval_mem t m) v
  | Insn.Imm _ -> invalid_arg "Cpu: immediate destination"

let store_op8 t op v =
  match op with
  | Insn.Reg r -> reg_set t r (v land 0xff)
  | Insn.Mem m -> Mem.write_u8 t.mem (eval_mem t m) v
  | Insn.Imm _ -> invalid_arg "Cpu: immediate destination"

let eval_binop (op : Insn.binop) a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Imul -> a * b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (b land 63)
  | Shr -> a lsr (b land 63)
  | Sar -> a asr (b land 63)

let eval_cond t (c : Insn.cond) =
  let l = t.cmp_l and r = t.cmp_r in
  match c with
  | Eq -> l = r
  | Ne -> l <> r
  | Lt -> l < r
  | Le -> l <= r
  | Gt -> l > r
  | Ge -> l >= r

let eval_target = function
  | Insn.TAbs a -> a
  | Insn.TSym (s, _) -> invalid_arg ("Cpu: unresolved target " ^ s)

let read_cstring t addr =
  let buf = Buffer.create 16 in
  let rec go a =
    if Buffer.length buf > 4096 then Buffer.contents buf
    else
      let c = Mem.read_u8 t.mem a in
      if c = 0 then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.chr c);
        go (a + 1)
      end
  in
  go addr

(* Intercepted library calls. Arguments follow the System V convention:
   rdi, rsi; result in rax. *)
let dispatch_builtin t name =
  let rdi = reg_get t RDI and rsi = reg_get t RSI in
  t.cycles <- t.cycles +. Cost.builtin_cost t.profile name;
  match name with
  | "malloc" ->
      (* Like libc: unserviceable requests yield NULL. *)
      let p = if rdi <= 0 then 0 else (try Heap.malloc t.heap rdi with Out_of_memory -> 0) in
      reg_set t RAX p
  | "malloc_pages" ->
      let p =
        if rdi <= 0 then 0 else (try Heap.malloc_pages t.heap rdi with Out_of_memory -> 0)
      in
      reg_set t RAX p
  | "free" ->
      (* Freeing a non-block is heap corruption: an abort in glibc terms. *)
      (match Heap.free t.heap rdi with
      | () -> reg_set t RAX 0
      | exception Invalid_argument _ ->
          Fault.raise_fault (Segv { addr = rdi; access = Write }))
  | "mprotect_noread" -> (
      let page = Addr.page_base rdi in
      match Mem.protect t.mem page Addr.page_size Perm.none with
      | () ->
          Mem.tag_guard t.mem page Addr.page_size;
          reg_set t RAX 0
      | exception Invalid_argument _ ->
          (* EINVAL on unmapped pages. *)
          reg_set t RAX (-1))
  | "print_int" ->
      Buffer.add_string t.out (string_of_int rdi);
      Buffer.add_char t.out '\n';
      reg_set t RAX 0
  | "print_str" ->
      Buffer.add_string t.out (read_cstring t rdi);
      Buffer.add_char t.out '\n';
      reg_set t RAX 0
  | "read_input" ->
      (* Copy the next queued message into [rdi], at most [rsi] bytes.
         The copy itself goes through checked writes: a message longer
         than the destination buffer really does smash the stack. *)
      let n =
        if Queue.is_empty t.input then 0
        else begin
          let s = Queue.pop t.input in
          let n = min (String.length s) rsi in
          for i = 0 to n - 1 do
            Mem.write_u8 t.mem (rdi + i) (Char.code s.[i])
          done;
          n
        end
      in
      reg_set t RAX n
  | "sensitive" ->
      t.sensitive_log <- (rdi, rsi) :: t.sensitive_log;
      reg_set t RAX 0
  | "backtrace" ->
      (* Unwind from our own return-address slot: the frame count of the
         active call chain, straight through any BTRA camouflage. *)
      let frames = Unwind.backtrace t.mem t.image ~ra_slot:(reg_get t RSP) in
      reg_set t RAX (List.length frames)
  | "exit" ->
      t.halted <- true;
      t.exit_code <- rdi
  | other -> invalid_arg ("Cpu: unknown builtin " ^ other)

let do_call t ~target ~next =
  t.calls <- t.calls + 1;
  t.depth <- t.depth + 1;
  if t.depth > t.max_depth then t.max_depth <- t.depth;
  let rsp = reg_get t RSP in
  (* Real hardware only crashes on misalignment when an aligned vector
     access hits the stack; strict mode makes every call check — the
     compiler test suites run with it on to catch frame-layout bugs. *)
  if t.strict_align && rsp land 15 <> 0 then
    Fault.raise_fault (Misaligned_stack { rip = t.rip; rsp });
  if t.image.Image.shadow_stack then t.shadow := next :: !(t.shadow);
  let rsp' = rsp - 8 in
  Mem.write_u64 t.mem rsp' next;
  reg_set t RSP rsp';
  t.rip <- target

(* Backward-edge CFI (Section 8.2): the return target must match the
   protected shadow copy of the call chain. *)
let shadow_check t ra =
  if t.image.Image.shadow_stack then begin
    match !(t.shadow) with
    | expected :: rest ->
        if ra <> expected then
          Fault.raise_fault (Cfi_violation { rip = t.rip; expected; got = ra });
        t.shadow := rest
    | [] -> Fault.raise_fault (Cfi_violation { rip = t.rip; expected = 0; got = ra })
  end

(* An intercepted library entry behaves like a real function body: perform
   the effect, then return through the address on the stack. Reached
   uniformly via call, indirect call, tail jump, or a ret into the entry
   (ret2libc). *)
let step_builtin t name =
  t.insns <- t.insns + 1;
  dispatch_builtin t name;
  (* The builtin-boundary tap fires after the effect, while the machine
     state still shows the call: args in RDI/RSI, result in RAX, any
     delivered bytes in memory. A dispatch that faulted never reaches the
     tap — the per-step observer is the hook that sees faulting steps. *)
  (match t.btap with None -> () | Some tap -> tap t name);
  if not t.halted then begin
    let rsp = reg_get t RSP in
    let ra = Mem.read_u64 t.mem rsp in
    shadow_check t ra;
    reg_set t RSP (rsp + 8);
    t.cycles <- t.cycles +. t.profile.Cost.ret;
    t.depth <- max 0 (t.depth - 1);
    t.rip <- ra
  end

(* The per-instruction core shared by the reference and fast-path fetchers:
   icache charge, cycle accounting, and the dispatch itself. Both dispatch
   flavours funnel here, so they cannot disagree on execution semantics —
   only the fetch (hash probes vs predecoded array) differs, and the
   differential tests pin that down. *)
let execute t rip insn size =
  let misses = Icache.access t.icache ~addr:rip ~len:size in
  t.cycles <-
    t.cycles
    +. Cost.base_cost t.profile insn
    +. (float_of_int size /. t.profile.Cost.fetch_bytes_per_cycle)
    +. (float_of_int misses *. t.profile.Cost.icache_miss_penalty);
  t.insns <- t.insns + 1;
  let next = rip + size in
  match insn with
  | Mov (dst, src) ->
      store_op t dst (eval_op t src);
      t.rip <- next
  | Mov8 (dst, src) ->
      store_op8 t dst (eval_op8 t src);
      t.rip <- next
  | Lea (r, m) ->
      reg_set t r (eval_mem t m);
      t.rip <- next
  | Push o ->
      let v = eval_op t o in
      let rsp = reg_get t RSP - 8 in
      Mem.write_u64 t.mem rsp v;
      reg_set t RSP rsp;
      t.rip <- next
  | Pop r ->
      let rsp = reg_get t RSP in
      let v = Mem.read_u64 t.mem rsp in
      reg_set t RSP (rsp + 8);
      reg_set t r v;
      t.rip <- next
  | Binop (op, r, o) ->
      reg_set t r (eval_binop op (reg_get t r) (eval_op t o));
      t.rip <- next
  | Div (r, o) ->
      let d = eval_op t o in
      if d = 0 then Fault.raise_fault (Division_by_zero { rip });
      reg_set t r (reg_get t r / d);
      t.rip <- next
  | Rem (r, o) ->
      let d = eval_op t o in
      if d = 0 then Fault.raise_fault (Division_by_zero { rip });
      reg_set t r (reg_get t r mod d);
      t.rip <- next
  | Neg r ->
      reg_set t r (-reg_get t r);
      t.rip <- next
  | Cmp (a, b) ->
      t.cmp_l <- eval_op t a;
      t.cmp_r <- eval_op t b;
      t.rip <- next
  | Setcc (c, r) ->
      reg_set t r (if eval_cond t c then 1 else 0);
      t.rip <- next
  | Jmp tg -> t.rip <- eval_target tg
  | Jmp_ind o -> t.rip <- eval_op t o
  | Jcc (c, tg) ->
      if eval_cond t c then begin
        t.cycles <- t.cycles +. (t.profile.Cost.jcc_taken -. t.profile.Cost.jcc_not_taken);
        t.rip <- eval_target tg
      end
      else t.rip <- next
  | Call tg -> do_call t ~target:(eval_target tg) ~next
  | Call_ind o -> do_call t ~target:(eval_op t o) ~next
  | Ret ->
      let rsp = reg_get t RSP in
      let ra = Mem.read_u64 t.mem rsp in
      shadow_check t ra;
      reg_set t RSP (rsp + 8);
      t.depth <- max 0 (t.depth - 1);
      t.rip <- ra
  | Nop _ -> t.rip <- next
  | Trap -> Fault.raise_fault (Booby_trap { addr = rip })
  | Vload (i, m) ->
      let a = eval_mem t m in
      for k = 0 to 3 do
        t.ymm.((i * 8) + k) <- Mem.read_u64 t.mem (a + (8 * k))
      done;
      t.rip <- next
  | Vstore (m, i) ->
      let a = eval_mem t m in
      for k = 0 to 3 do
        Mem.write_u64 t.mem (a + (8 * k)) t.ymm.((i * 8) + k)
      done;
      t.rip <- next
  | Vload128 (i, m) ->
      let a = eval_mem t m in
      for k = 0 to 1 do
        t.ymm.((i * 8) + k) <- Mem.read_u64 t.mem (a + (8 * k))
      done;
      t.rip <- next
  | Vstore128 (m, i) ->
      let a = eval_mem t m in
      for k = 0 to 1 do
        Mem.write_u64 t.mem (a + (8 * k)) t.ymm.((i * 8) + k)
      done;
      t.rip <- next
  | Vload512 (i, m) ->
      let a = eval_mem t m in
      for k = 0 to 7 do
        t.ymm.((i * 8) + k) <- Mem.read_u64 t.mem (a + (8 * k))
      done;
      t.rip <- next
  | Vstore512 (m, i) ->
      let a = eval_mem t m in
      for k = 0 to 7 do
        Mem.write_u64 t.mem (a + (8 * k)) t.ymm.((i * 8) + k)
      done;
      t.rip <- next
  | Vzeroupper ->
      (* Zero bits 128-511 of every vector register. *)
      for i = 0 to 15 do
        for k = 2 to 7 do
          t.ymm.((i * 8) + k) <- 0
        done
      done;
      t.rip <- next
  | Halt ->
      t.halted <- true;
      t.exit_code <- reg_get t RAX

(* Reference dispatch: permission probe, builtin hash probe, then the
   [code] hash probe. Kept verbatim as the slow tier of the two-version
   contract (OSR-style): the fast path below must be bit-identical to
   this. *)
let step_uninstrumented t =
  if t.halted then invalid_arg "Cpu.step: halted";
  (match t.inject with
  | Some inj -> Inject.on_step inj ~mem:t.mem ~rip:t.rip
  | None -> ());
  let rip = t.rip in
  Mem.check_exec t.mem rip;
  match Hashtbl.find_opt t.image.Image.builtin_addrs rip with
  | Some name -> step_builtin t name
  | None -> (
      match Image.code_at t.image rip with
      | Some (insn, size) -> execute t rip insn size
      | None -> Fault.raise_fault (Invalid_opcode { addr = rip }))

(* The observation wrapper: with no observer attached, [step] is the bare
   interpreter — the cycle totals are bit-identical. With one, the hook
   fires after every retired instruction (and, so post-mortems see the
   detonating instruction, once more on the faulting one before the fault
   propagates) with the pre-step rip and this step's cycle/miss deltas. *)
let step t =
  match t.observer with
  | None -> step_uninstrumented t
  | Some obs ->
      let rip0 = t.rip in
      let cycles0 = t.cycles in
      let misses0 = Icache.misses t.icache in
      let calls0 = t.calls in
      let fire ~called =
        obs ~rip:rip0 ~cycles:(t.cycles -. cycles0)
          ~misses:(Icache.misses t.icache - misses0) ~called
      in
      (match step_uninstrumented t with
      | () -> fire ~called:(t.calls > calls0)
      | exception e ->
          fire ~called:false;
          raise e)

let set_observer t obs = t.observer <- obs

type builtin_tap = t -> string -> unit

let set_builtin_tap t tap = t.btap <- tap

let run_reference t ~fuel =
  let rec go budget =
    if t.halted then Halted
    else if budget <= 0 then Fuel_exhausted
    else begin
      step t;
      go (budget - 1)
    end
  in
  try go fuel with Fault.Fault f -> Faulted f

(* Fast tier: one TLB exec probe plus one array read into the predecoded
   text per fetch. The injector's per-step hook runs inline, in the
   reference order ([on_step], then [check_exec], then the fetch), and
   costs one subtraction while its draws are known misses; with none
   attached the match is the whole cost. [at_break] is consulted after
   the halt and fuel tests, as [run_until] always has, and only when rip
   equals [brk] (a single break address) or, for a break list of several,
   on every step ([multi]). Out-of-text rip falls through to
   Invalid_opcode exactly as the reference fetch reports it: neither hash
   table can match outside the text segment. Returns [true] when stopped
   at a break, [false] on halt or spent fuel (told apart by [t.halted]);
   faults propagate. *)
let fast_loop ~brk ~multi ~at_break t ~fuel =
  let pd = Image.predecoded t.image in
  let base = t.image.Image.text_base in
  let len = Array.length pd in
  let mem = t.mem in
  let inject = t.inject in
  let rec go budget =
    if t.halted || budget <= 0 then false
    else begin
      let rip = t.rip in
      if (rip = brk || multi) && at_break rip then true
      else begin
        (match inject with Some inj -> Inject.on_step inj ~mem ~rip | None -> ());
        Mem.check_exec mem rip;
        let off = rip - base in
        (if off >= 0 && off < len then
           match Array.unsafe_get pd off with
           | Image.P_insn (insn, size) -> execute t rip insn size
           | Image.P_builtin name -> step_builtin t name
           | Image.P_none -> Fault.raise_fault (Invalid_opcode { addr = rip })
         else Fault.raise_fault (Invalid_opcode { addr = rip }));
        go (budget - 1)
      end
    end
  in
  go fuel

let never _ = false

let stopped t = if t.halted then Halted else Fuel_exhausted

let run_fast t ~fuel =
  match fast_loop t ~fuel ~brk:t.rip ~multi:false ~at_break:never with
  | _ -> stopped t
  | exception Fault.Fault f -> Faulted f

(* Tier dispatch. An observer forces the reference tier: it must see
   every step through [step]. Otherwise tier 3 runs when installed and no
   injector is attached (compiled code calls no injector hooks), and the
   fast interpreter runs in every other case. All three produce identical
   counters — [experiments jit] and the differential suites pin that
   contract down. *)
let run t ~fuel =
  match (t.observer, t.inject, t.tier3) with
  | Some _, _, _ -> run_reference t ~fuel
  | None, None, Some jit -> jit t ~fuel
  | None, _, _ -> run_fast t ~fuel

let set_tier3 t f = t.tier3 <- f

(* The observed path: every step through [step], so the observer fires
   on each; breakpoint membership is a hash probe. *)
let run_until_reference t ~fuel ~break =
  let bset = Hashtbl.create (max 8 (List.length break)) in
  List.iter (fun a -> Hashtbl.replace bset a ()) break;
  let rec go budget =
    if t.halted then Error Halted
    else if budget <= 0 then Error Fuel_exhausted
    else if Hashtbl.mem bset t.rip then Ok ()
    else begin
      step t;
      go (budget - 1)
    end
  in
  try go fuel with Fault.Fault f -> Error (Faulted f)

let run_until t ~fuel ~break =
  match t.observer with
  | Some _ -> run_until_reference t ~fuel ~break
  | None -> (
      let loop =
        match break with
        | [] -> fast_loop ~brk:t.rip ~multi:false ~at_break:never
        | [ a ] -> fast_loop ~brk:a ~multi:false ~at_break:(fun rip -> rip = a)
        | a :: _ ->
            let bset = Hashtbl.create (List.length break) in
            List.iter (fun a -> Hashtbl.replace bset a ()) break;
            fast_loop ~brk:a ~multi:true ~at_break:(Hashtbl.mem bset)
      in
      match loop t ~fuel with
      | true -> Ok ()
      | false -> Error (stopped t)
      | exception Fault.Fault f -> Error (Faulted f))

(* One instruction on the predecoded fetch: [step] without the hash
   probes, for stepping off a break address on the serving path. With an
   observer attached it is [step]. *)
let step_fast t =
  match t.observer with
  | Some _ -> step t
  | None ->
      if t.halted then invalid_arg "Cpu.step: halted";
      ignore (fast_loop t ~fuel:1 ~brk:t.rip ~multi:false ~at_break:never)

let output t = Buffer.contents t.out

let push_input t s = Queue.push s t.input

(* Shared internals for the tier-3 compiler (lib/machine/jit.ml): its
   deopt/interpreter path must funnel through the very same [execute] /
   [step_builtin] the two interpreter tiers use, or the three-way
   bit-identicality contract would rest on duplicated semantics. *)
module Internal = struct
  let execute = execute
  let step_builtin = step_builtin
end
