type page = {
  mutable perm : Perm.t;
  mutable guard : bool;
  mutable data : Bytes.t;  (* [zero_page] until the first write *)
}

(* Demand-zero paging: [map] points every new page at this one shared,
   all-zero buffer, and a page gets a buffer of its own only when it is
   first written. [zero_page] itself is never written, so domains may
   share it. *)
let zero_page = Bytes.make Addr.page_size '\000'

(* Direct-mapped software TLB. Each slot caches one page's data bytes plus
   its *decoded* permission bits, so the hot accessors never chase the
   page record or the [Perm.t] under it. Because the permission bits are
   copied out, every in-place page mutation — [map], [unmap], and crucially
   [protect]/[tag_guard], which change [perm]/[guard] without touching the
   page table — must invalidate the TLB or a read could be served under a
   permission that no longer exists. [e_write] is set only for a page that
   owns its buffer: the first write to a demand-zero page takes the
   not-allowed branch of [checked_entry], which gives it one. *)
type tlb_entry = {
  mutable e_index : int;  (* cached page index; -1 = invalid *)
  mutable e_data : Bytes.t;
  mutable e_read : bool;
  mutable e_write : bool;
  mutable e_exec : bool;
  mutable e_guard : bool;
}

let tlb_slots = 64
let tlb_mask = tlb_slots - 1

type t = {
  pages : (int, page) Hashtbl.t;
  tlb : tlb_entry array;
  mutable max_resident : int;
  mutable spare : Bytes.t list;  (* buffers of a recycled page table *)
}

let no_bytes = Bytes.create 0

let empty_entry () =
  {
    e_index = -1;
    e_data = no_bytes;
    e_read = false;
    e_write = false;
    e_exec = false;
    e_guard = false;
  }

(* What [tlb_lookup] returns for an unmapped page: no access of any kind,
   not a guard, so every checked access faults as a plain Segv. Never
   written. *)
let no_access = empty_entry ()

let create () =
  {
    pages = Hashtbl.create 1024;
    tlb = Array.init tlb_slots (fun _ -> empty_entry ());
    max_resident = 0;
    spare = [];
  }

let tlb_invalidate t =
  for i = 0 to tlb_slots - 1 do
    t.tlb.(i).e_index <- -1
  done

let refill e index p =
  e.e_index <- index;
  e.e_data <- p.data;
  e.e_read <- p.perm.Perm.read;
  e.e_write <- p.perm.Perm.write && p.data != zero_page;
  e.e_exec <- p.perm.Perm.exec;
  e.e_guard <- p.guard

(* Miss path: probe the page table and refill the direct-mapped slot. *)
let tlb_fill t index =
  match Hashtbl.find_opt t.pages index with
  | None -> no_access
  | Some p ->
      let e = t.tlb.(index land tlb_mask) in
      refill e index p;
      e

let tlb_lookup t index =
  let e = t.tlb.(index land tlb_mask) in
  if e.e_index = index then e else tlb_fill t index

(* Give a demand-zero page a buffer of its own (a recycled one, zeroed,
   when there is one) and refresh its TLB slot if it is cached there. *)
let materialize t index p =
  if p.data == zero_page then begin
    (match t.spare with
    | b :: rest ->
        t.spare <- rest;
        Bytes.fill b 0 Addr.page_size '\000';
        p.data <- b
    | [] -> p.data <- Bytes.make Addr.page_size '\000');
    let e = t.tlb.(index land tlb_mask) in
    if e.e_index = index then refill e index p
  end

let find_page t index = Hashtbl.find_opt t.pages index

let page_range addr len =
  assert (len > 0);
  (Addr.page_of addr, Addr.page_of (addr + len - 1))

let map t addr len perm =
  let first, last = page_range addr len in
  for i = first to last do
    if Hashtbl.mem t.pages i then
      invalid_arg (Printf.sprintf "Mem.map: page 0x%x already mapped" (i lsl Addr.page_shift));
    Hashtbl.replace t.pages i { perm; guard = false; data = zero_page }
  done;
  tlb_invalidate t;
  t.max_resident <- max t.max_resident (Hashtbl.length t.pages)

let unmap t addr len =
  let first, last = page_range addr len in
  for i = first to last do
    (match Hashtbl.find_opt t.pages i with
    | Some p when p.data != zero_page -> t.spare <- p.data :: t.spare
    | _ -> ());
    Hashtbl.remove t.pages i
  done;
  tlb_invalidate t

let recycle t =
  Hashtbl.iter (fun _ p -> if p.data != zero_page then t.spare <- p.data :: t.spare) t.pages;
  Hashtbl.clear t.pages;
  tlb_invalidate t;
  t.max_resident <- 0

let protect t addr len perm =
  let first, last = page_range addr len in
  for i = first to last do
    match Hashtbl.find_opt t.pages i with
    | Some p -> p.perm <- perm
    | None ->
        invalid_arg (Printf.sprintf "Mem.protect: page 0x%x unmapped" (i lsl Addr.page_shift))
  done;
  tlb_invalidate t

let tag_guard t addr len =
  let first, last = page_range addr len in
  for i = first to last do
    match Hashtbl.find_opt t.pages i with
    | Some p -> p.guard <- true
    | None ->
        invalid_arg
          (Printf.sprintf "Mem.tag_guard: page 0x%x unmapped" (i lsl Addr.page_shift))
  done;
  tlb_invalidate t

let is_mapped t addr = Hashtbl.mem t.pages (Addr.page_of addr)

let perm_at t addr =
  match find_page t (Addr.page_of addr) with Some p -> Some p.perm | None -> None

let fault_access addr access guard =
  if guard then Fault.raise_fault (Guard_page { addr; access })
  else Fault.raise_fault (Segv { addr; access })

(* The not-allowed branch: a first write to a writable demand-zero page
   materializes it and goes ahead; anything else faults as it always
   has. *)
let denied t index addr (access : Fault.access) e =
  match (access, Hashtbl.find_opt t.pages index) with
  | Write, Some p when p.perm.Perm.write && p.data == zero_page ->
      materialize t index p;
      tlb_lookup t index
  | _ -> fault_access addr access e.e_guard

let checked_entry t addr (access : Fault.access) =
  let index = Addr.page_of addr in
  let e = tlb_lookup t index in
  let allowed =
    match access with
    | Read -> e.e_read
    | Write -> e.e_write
    | Exec -> e.e_exec
  in
  if allowed then e else denied t index addr access e

(* The interpreter's per-fetch exec probe. Matches the historical
   [perm_at]-based check bit for bit: an exec violation is always a plain
   SIGSEGV, never a guard-page detection, even on a tagged page. *)
let check_exec t addr =
  if not (tlb_lookup t (Addr.page_of addr)).e_exec then
    Fault.raise_fault (Segv { addr; access = Exec })

let read_u8 t addr =
  let e = checked_entry t addr Read in
  Char.code (Bytes.unsafe_get e.e_data (Addr.page_offset addr))

let write_u8 t addr v =
  let e = checked_entry t addr Write in
  Bytes.unsafe_set e.e_data (Addr.page_offset addr) (Char.unsafe_chr (v land 0xff))

(* Word accessors: an 8-aligned word can never cross a page, so the
   aligned fast path goes straight to [Bytes.get/set_int64_le] with no
   boundary test; unaligned in-page words take the same single-probe path
   after the boundary test, and only page-straddling words fall back to
   byte-at-a-time. *)
let read_u64 t addr =
  if addr land 7 = 0 then
    let e = checked_entry t addr Read in
    Int64.to_int (Bytes.get_int64_le e.e_data (Addr.page_offset addr))
    (* The int64->int truncation drops bit 63; our address space and
       workload arithmetic never exercise it. *)
  else
    let off = Addr.page_offset addr in
    if off <= Addr.page_size - 8 then
      let e = checked_entry t addr Read in
      Int64.to_int (Bytes.get_int64_le e.e_data off)
    else begin
      let v = ref 0 in
      for i = 7 downto 0 do
        v := (!v lsl 8) lor read_u8 t (addr + i)
      done;
      !v
    end

let write_u64 t addr v =
  if addr land 7 = 0 then
    let e = checked_entry t addr Write in
    Bytes.set_int64_le e.e_data (Addr.page_offset addr) (Int64.of_int v)
  else
    let off = Addr.page_offset addr in
    if off <= Addr.page_size - 8 then
      let e = checked_entry t addr Write in
      Bytes.set_int64_le e.e_data off (Int64.of_int v)
    else
      for i = 0 to 7 do
        write_u8 t (addr + i) ((v lsr (8 * i)) land 0xff)
      done

let read_bytes t addr len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (read_u8 t (addr + i)))
  done;
  b

let write_bytes t addr b =
  for i = 0 to Bytes.length b - 1 do
    write_u8 t (addr + i) (Char.code (Bytes.unsafe_get b i))
  done

let peek_u8 t addr =
  match find_page t (Addr.page_of addr) with
  | None -> None
  | Some p -> Some (Char.code (Bytes.unsafe_get p.data (Addr.page_offset addr)))

let peek_u64 t addr =
  let off = Addr.page_offset addr in
  if off <= Addr.page_size - 8 then
    match find_page t (Addr.page_of addr) with
    | None -> None
    | Some p -> Some (Int64.to_int (Bytes.get_int64_le p.data off))
  else begin
    let rec bytes i acc =
      if i < 0 then Some acc
      else
        match peek_u8 t (addr + i) with
        | None -> None
        | Some b -> bytes (i - 1) ((acc lsl 8) lor b)
    in
    bytes 7 0
  end

let poke_u64 t addr v =
  let index = Addr.page_of addr in
  match find_page t index with
  | None -> invalid_arg (Printf.sprintf "Mem.poke_u64: 0x%x unmapped" addr)
  | Some p ->
      let off = Addr.page_offset addr in
      if off <= Addr.page_size - 8 then begin
        materialize t index p;
        Bytes.set_int64_le p.data off (Int64.of_int v)
      end
      else
        for i = 0 to 7 do
          let b = (v lsr (8 * i)) land 0xff in
          let qi = Addr.page_of (addr + i) in
          match find_page t qi with
          | Some q ->
              materialize t qi q;
              Bytes.unsafe_set q.data (Addr.page_offset (addr + i)) (Char.chr b)
          | None -> invalid_arg "Mem.poke_u64: crosses unmapped page"
        done

let poke_bytes t addr b =
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let index = Addr.page_of a in
    match find_page t index with
    | None -> invalid_arg (Printf.sprintf "Mem.poke_bytes: 0x%x unmapped" a)
    | Some p ->
        materialize t index p;
        let off = Addr.page_offset a in
        let n = min (len - !pos) (Addr.page_size - off) in
        Bytes.blit b !pos p.data off n;
        pos := !pos + n
  done

let writable_page_addrs t =
  Hashtbl.fold
    (fun idx p acc -> if p.perm.Perm.write then (idx lsl Addr.page_shift) :: acc else acc)
    t.pages []
  |> List.sort compare

let flip_bit t ~addr ~bit =
  let index = Addr.page_of addr in
  match find_page t index with
  | None -> invalid_arg (Printf.sprintf "Mem.flip_bit: 0x%x unmapped" addr)
  | Some p ->
      materialize t index p;
      let off = Addr.page_offset addr in
      let c = Char.code (Bytes.unsafe_get p.data off) in
      Bytes.unsafe_set p.data off (Char.unsafe_chr (c lxor (1 lsl (bit land 7))))

let page_perms t =
  Hashtbl.fold (fun idx p acc -> (idx lsl Addr.page_shift, p.perm, p.guard) :: acc) t.pages []
  |> List.sort compare

let guard_page_addrs t =
  Hashtbl.fold
    (fun idx p acc -> if p.guard then (idx lsl Addr.page_shift) :: acc else acc)
    t.pages []
  |> List.sort compare

let mapped_pages t = Hashtbl.length t.pages

let max_mapped_pages t = t.max_resident
