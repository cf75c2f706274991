type func_info = {
  fname : string;
  entry : int;
  code_len : int;
  is_booby_trap : bool;
}

(* Predecoded text: one dense array slot per text byte, so the fast-path
   interpreter's fetch is a single bounds-checked array read instead of a
   [builtin_addrs] probe followed by a [code] probe. Slots between
   instruction starts stay [P_none] — jumping into the middle of an
   instruction is an invalid opcode, exactly as [code_at] reports it. *)
type pslot =
  | P_none
  | P_insn of Insn.t * int
  | P_builtin of string

(* What the machine derives from the text: the fetch table, and the text
   segment's bytes as the loader writes them into memory. *)
type decoded = { slots : pslot array; bytes : Bytes.t }

type t = {
  code : (int, Insn.t * int) Hashtbl.t Lazy.t;
  code_list : (int * Insn.t * int) array Lazy.t;
  text_base : int;
  text_len : int;
  text_perm : Perm.t;
  data_base : int;
  data_len : int;
  data_words : (int * int) list Lazy.t;
  data_bytes : (int * string) list Lazy.t;
  symbols : (string, int) Hashtbl.t;
  funcs : func_info list;
  entry : int;
  builtin_addrs : (int, string) Hashtbl.t;
  stack_bytes : int;
  heap_base : int;
  unwind_funcs : (int * int * int * int) array;
  unwind_sites : (int, int) Hashtbl.t;
  checked_sites : (int, unit) Hashtbl.t;
  code_ptr_slots : (int, unit) Hashtbl.t Lazy.t;
  shadow_stack : bool;
  decoded : decoded option Atomic.t;
}

let builtin_names =
  [
    "malloc"; "malloc_pages"; "free"; "mprotect_noread";
    "print_int"; "print_str"; "read_input"; "sensitive"; "exit"; "backtrace";
  ]

let code_at img addr = Hashtbl.find_opt (Lazy.force img.code) addr

let is_builtin img addr = Hashtbl.mem img.builtin_addrs addr

let symbol img name =
  match Hashtbl.find_opt img.symbols name with
  | Some a -> a
  | None -> raise Not_found

let func_of_addr img addr =
  List.find_opt
    (fun (f : func_info) -> addr >= f.entry && addr < f.entry + f.code_len)
    img.funcs

let funcs_by_entry img =
  let a = Array.of_list img.funcs in
  Array.sort (fun (a : func_info) (b : func_info) -> compare a.entry b.entry) a;
  a

(* Pseudo-encoding: byte 0 is an opcode tag, later bytes mix the tag with
   the position. Deterministic, so a leaked text page is a stable artifact
   a disclosure attack can fingerprint. *)
let opcode_tag : Insn.t -> int = function
  | Mov _ -> 0x48
  | Mov8 _ -> 0x8a
  | Lea _ -> 0x8d
  | Push _ -> 0x68
  | Pop _ -> 0x58
  | Binop _ -> 0x01
  | Div _ | Rem _ -> 0xf7
  | Neg _ -> 0xf6
  | Cmp _ -> 0x39
  | Setcc _ -> 0x0f
  | Jmp _ -> 0xe9
  | Jmp_ind _ -> 0xfe
  | Jcc _ -> 0x0f
  | Call _ -> 0xe8
  | Call_ind _ -> 0xff
  | Ret -> 0xc3
  | Nop _ -> 0x90
  | Trap -> 0xcc
  | Vload _ -> 0xc5
  | Vstore _ -> 0xc4
  | Vload128 _ -> 0x66
  | Vstore128 _ -> 0x67
  | Vload512 _ -> 0x62
  | Vstore512 _ -> 0x63
  | Vzeroupper -> 0xc5
  | Halt -> 0xf4

let encode_byte insn k =
  if k = 0 then opcode_tag insn
  else (opcode_tag insn * 31 + k * 17) land 0xff

(* Canonical digest: every observable field serialized in a fixed order,
   hashtables dumped sorted (their internal layout depends on insertion
   history, which byte-identical images are allowed to differ in). Two
   images are the same executable iff their fingerprints agree — the
   equality oracle of the incremental-rerandomization contract. *)
let fingerprint img =
  let code_list = Lazy.force img.code_list in
  let b = Buffer.create (4096 + (64 * Array.length code_list)) in
  let int i = Buffer.add_string b (string_of_int i); Buffer.add_char b ';' in
  let str s = Buffer.add_string b s; Buffer.add_char b ';' in
  let sorted_of_tbl tbl f =
    let l = Hashtbl.fold (fun k v acc -> f k v :: acc) tbl [] in
    List.sort compare l
  in
  int img.text_base;
  int img.text_len;
  str (Marshal.to_string img.text_perm []);
  int img.data_base;
  int img.data_len;
  int img.entry;
  int img.stack_bytes;
  int img.heap_base;
  int (if img.shadow_stack then 1 else 0);
  Array.iter
    (fun (addr, insn, len) ->
      int addr;
      int len;
      str (Insn.to_string insn))
    code_list;
  List.iter (fun (a, v) -> int a; int v) (Lazy.force img.data_words);
  List.iter (fun (a, s) -> int a; str s) (Lazy.force img.data_bytes);
  List.iter
    (fun (s, a) -> str s; int a)
    (sorted_of_tbl img.symbols (fun k v -> (k, v)));
  List.iter
    (fun f ->
      str f.fname;
      int f.entry;
      int f.code_len;
      int (if f.is_booby_trap then 1 else 0))
    (List.sort compare img.funcs);
  List.iter
    (fun (a, n) -> int a; str n)
    (sorted_of_tbl img.builtin_addrs (fun k v -> (k, v)));
  Array.iter (fun (e, l, fs, pw) -> int e; int l; int fs; int pw) img.unwind_funcs;
  List.iter (fun (a, w) -> int a; int w) (sorted_of_tbl img.unwind_sites (fun k v -> (k, v)));
  List.iter int (sorted_of_tbl img.checked_sites (fun k () -> k));
  List.iter int (sorted_of_tbl (Lazy.force img.code_ptr_slots) (fun k () -> k));
  Digest.to_hex (Digest.string (Buffer.contents b))

let decode img =
  let code_list = Lazy.force img.code_list in
  let extent =
    Array.fold_left
      (fun m (addr, _, len) -> max m (addr - img.text_base + len))
      img.text_len code_list
  in
  let slots = Array.make (max 1 img.text_len) P_none in
  let bytes = Bytes.make extent '\000' in
  Array.iter
    (fun (addr, insn, len) ->
      let off = addr - img.text_base in
      slots.(off) <- P_insn (insn, len);
      for k = 0 to len - 1 do
        Bytes.unsafe_set bytes (off + k) (Char.unsafe_chr (encode_byte insn k))
      done)
    code_list;
  Hashtbl.iter (fun addr name -> slots.(addr - img.text_base) <- P_builtin name) img.builtin_addrs;
  { slots; bytes }

(* Built once per image and shared by every CPU that runs it, across the
   fleet's domains: racing builders compute equal tables and all adopt
   the one published first. *)
let decoded img =
  match Atomic.get img.decoded with
  | Some d -> d
  | None ->
      let d = decode img in
      if Atomic.compare_and_set img.decoded None (Some d) then d
      else Option.get (Atomic.get img.decoded)

let predecoded img = (decoded img).slots

let text_bytes img = (decoded img).bytes
