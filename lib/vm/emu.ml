(** The virtual machine: executes registered code blobs with a
    deterministic cycle model (see DESIGN.md). A blob is decoded on the
    first fetch into it, not when it is registered.

    Address space:
    - [0 .. memory size): linear data memory (tables, heap, GOTs, stack)
    - [code_base ..): registered code blobs
    - [runtime_base ..): runtime functions, one slot of 8 bytes each
    - [sentinel]: the initial return address; reaching it ends execution.

    Execution-time measurement is the [cycles] counter; runtime functions
    charge their own work via {!charge}. *)

exception Trap of string

let code_base = 0x100_0000_0000
let runtime_base = 0x7F00_0000_0000
let sentinel = 0x7FFF_0000_0000

(** A module's code as the hot loop reads it. [next_off.(i)] is the byte
    offset just past instruction [i], i.e. a call's return address. *)
type decoded = {
  insts : Minst.t array;
  off2idx : int array;  (** byte offset -> instruction index, -1 inside one *)
  next_off : int array;
}

(** The registered bytes until the first fetch decodes them. *)
type code = Raw of bytes | Decoded of decoded

type code_mod = {
  cm_base : int;
  cm_size : int;
  cm_code : code Atomic.t;  (** [Raw] -> [Decoded] once, by compare-and-set *)
}

(** Code + runtime registries shared by every execution context of one
    virtual machine. All mutation happens under [reg_mu]; the hot read
    paths ([find_mod], runtime dispatch) read the mutable fields without
    the lock — they only ever chase addresses that were published to them
    through a mutex (the caller obtained the module through the code cache
    or compiled it itself), which establishes the happens-before edge.
    [code_gen] bumps on every release so per-context [last_mod] caches
    cannot resurrect a module whose span was recycled by another domain.
    The host-slot table [runtime] only grows: a slot is added, reused or
    released by one store in place, and a full table is copied into one of
    twice the capacity, which is published only after it is filled. *)
type shared = {
  mutable mods : code_mod list;
  mutable next_code_base : int;
  free_spans : (int, int list) Hashtbl.t;  (** span size -> free bases *)
  poisoned : (int, int) Hashtbl.t;  (** freed base -> span, until reused *)
  mutable live_code : int;  (** bytes of code in live regions *)
  mutable peak_code : int;  (** high-water mark of [live_code] *)
  mutable freed_code : int;  (** cumulative bytes released *)
  mutable code_gen : int;  (** bumped by every release (cache invalidation) *)
  mutable runtime : slot array;  (** capacity; [Unused] past [runtime_len] *)
  mutable runtime_len : int;  (** slots ever handed out *)
  mutable free_runtime : int list;  (** recyclable runtime slots *)
  decoded_mods : int Atomic.t;  (** modules decoded (each once) *)
  decoded_bytes : int Atomic.t;  (** code bytes decoded *)
  decode_ns : int Atomic.t;  (** wall nanoseconds spent decoding *)
  reg_mu : Mutex.t;  (** guards every mutation of this record *)
  layout_mu : Mutex.t;  (** see {!with_layout_lock} *)
}

and slot = Unused | Host of (t -> unit) | Freed

and t = {
  target : Target.t;
  mem : Memory.t;
  regs : int64 array;
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable ovf : bool;
  mutable cycles : int;
  mutable icount : int;
  mutable fuel : int;  (** max instructions per [call]; <0 = unlimited *)
  stack_top : int;  (** where [call] plants sp — per context, so domains
                        executing concurrently never share a stack *)
  shared : shared;
  mutable last_mod : code_mod option;
  mutable last_gen : int;  (** [shared.code_gen] when [last_mod] was cached *)
}

let create ?(mem_size = 256 * 1024 * 1024) target =
  let mem = Memory.create mem_size in
  {
    target;
    mem;
    regs = Array.make 33 0L;
    zf = false;
    sf = false;
    cf = false;
    ovf = false;
    cycles = 0;
    icount = 0;
    fuel = -1;
    stack_top = mem_size - 64;
    shared =
      {
        mods = [];
        next_code_base = code_base;
        free_spans = Hashtbl.create 8;
        poisoned = Hashtbl.create 8;
        live_code = 0;
        peak_code = 0;
        freed_code = 0;
        code_gen = 0;
        runtime = [||];
        runtime_len = 0;
        free_runtime = [];
        decoded_mods = Atomic.make 0;
        decoded_bytes = Atomic.make 0;
        decode_ns = Atomic.make 0;
        reg_mu = Mutex.create ();
        layout_mu = Mutex.create ();
      };
    last_mod = None;
    last_gen = 0;
  }

(** A fresh execution context over the same machine: shares the linear
    memory and the code/runtime registries, but owns its registers, flags,
    cycle/instruction counters and fuel. This is what lets one worker
    domain execute a query while another compiles or executes elsewhere —
    the virtual machine becomes one "core" per context over shared memory
    and a shared code segment. *)
(* Stack carved out of linear memory for each additional context; the
   primary context keeps the historical top-of-memory stack. *)
let context_stack_bytes = 256 * 1024

let context t =
  (* the stack outlives any query the context will run, so it must not be
     recorded into (and later freed by) an active allocation scope *)
  let base =
    Memory.unscoped (fun () -> Memory.alloc t.mem ~align:16 context_stack_bytes)
  in
  {
    target = t.target;
    mem = t.mem;
    regs = Array.make 33 0L;
    zf = false;
    sf = false;
    cf = false;
    ovf = false;
    cycles = 0;
    icount = 0;
    fuel = t.fuel;
    stack_top = base + context_stack_bytes - 64;
    shared = t.shared;
    last_mod = None;
    last_gen = 0;
  }

(** Return a {!context}'s stack to the allocator once the context will
    never run again (a worker domain retiring at the end of a run). *)
let release_context t =
  Memory.free t.mem
    ~addr:(t.stack_top + 64 - context_stack_bytes)
    ~size:context_stack_bytes ~align:16

(** [with_layout_lock t f] runs [f] holding the machine's code-layout lock.
    A JIT linker must predict the address a blob will get
    ({!next_code_addr}) before applying relocations and registering it,
    while any other registration or disposal moves that prediction — so
    the predict-link-register window, every bare {!register_code} from a
    position-independent back-end, and every dispose sequence take this
    lock to be mutually atomic. Compilation proper (IR, isel, emission)
    runs outside it, which is what lets worker domains compile
    concurrently. Individual registry operations take the finer [reg_mu]
    internally; the two locks never nest the other way around. *)
let with_layout_lock t f = Mutex.protect t.shared.layout_mu f

let memory t = t.mem
let target_of t = t.target
let cycles t = t.cycles
let instructions_executed t = t.icount
let reset_counters t =
  t.cycles <- 0;
  t.icount <- 0

let charge t c = t.cycles <- t.cycles + c

(** Install the runtime function table (index = slot). *)
let set_runtime t fns =
  let s = t.shared in
  Mutex.protect s.reg_mu (fun () ->
      s.runtime <- Array.map (fun f -> Host f) fns;
      s.runtime_len <- Array.length fns;
      s.free_runtime <- [])

(** Append a host function (e.g. an interpreted query function) and return
    its callable address. Released slots ({!remove_runtime}) are reused
    before the table grows. *)
let add_runtime t fn =
  let s = t.shared in
  Mutex.protect s.reg_mu (fun () ->
      let idx =
        match s.free_runtime with
        | idx :: rest ->
            s.free_runtime <- rest;
            idx
        | [] ->
            let idx = s.runtime_len in
            if idx = Array.length s.runtime then begin
              let grown = Array.make (max 16 (2 * idx)) Unused in
              Array.blit s.runtime 0 grown 0 idx;
              s.runtime <- grown
            end;
            s.runtime_len <- idx + 1;
            idx
      in
      s.runtime.(idx) <- Host fn;
      Int64.of_int (runtime_base + (8 * idx)))

let runtime_addr idx = Int64.of_int (runtime_base + (8 * idx))

let is_runtime_addr (a : int) = a >= runtime_base && a < sentinel

(** Release a host-function slot obtained from {!add_runtime}: the slot is
    poisoned (calls trap) and recycled by the next [add_runtime]. *)
let remove_runtime t (addr : int64) =
  let a = Int64.to_int addr in
  if not (is_runtime_addr a) then
    invalid_arg "Emu.remove_runtime: not a runtime address";
  let idx = (a - runtime_base) / 8 in
  let s = t.shared in
  Mutex.protect s.reg_mu (fun () ->
      match if idx < s.runtime_len then s.runtime.(idx) else Unused with
      | Unused -> invalid_arg "Emu.remove_runtime: slot was never allocated"
      | Freed -> invalid_arg "Emu.remove_runtime: slot already released"
      | Host _ ->
          s.runtime.(idx) <- Freed;
          s.free_runtime <- idx :: s.free_runtime)

(** Host slots handed out so far (the high-water mark of live slots) and
    the table's capacity. *)
let runtime_slots t = t.shared.runtime_len
let runtime_capacity t = Array.length t.shared.runtime

(** Round [n] up to the 4 KiB page granule of the code allocator. Both
    fresh allocation and free-list recycling reserve whole pages, so two
    code blobs never share a page and a released span can be handed out
    again verbatim. *)
let page_size = 0x1000
let page_align n = (n + (page_size - 1)) land lnot (page_size - 1)

(* Pop a free span of exactly [span] bytes, if any. Caller holds [reg_mu]. *)
let take_free_span s span =
  match Hashtbl.find_opt s.free_spans span with
  | Some (base :: rest) ->
      if rest = [] then Hashtbl.remove s.free_spans span
      else Hashtbl.replace s.free_spans span rest;
      Hashtbl.remove s.poisoned base;
      Some base
  | Some [] | None -> None

(** Address the next registered code blob of [size] bytes will get (used by
    JIT linkers that must know final addresses before applying
    relocations). With recycling the answer depends on the blob size: a
    free span of the matching size class is reused before the bump pointer
    advances. Callers that rely on the prediction must hold
    {!with_layout_lock} across predict-link-register. *)
let next_code_addr t ~size =
  let s = t.shared in
  Mutex.protect s.reg_mu (fun () ->
      match Hashtbl.find_opt s.free_spans (page_align size) with
      | Some (base :: _) -> base
      | Some [] | None -> s.next_code_base)

(** Register a code blob; returns a {!Code_region.t} ownership handle whose
    [base] is the blob's first address. The address range comes from the
    size-class free lists when a released span of the same class exists,
    otherwise from the bump pointer. The blob is not decoded here but on
    the first fetch into it, so the emulator keeps [code] until then: the
    caller must not mutate it afterwards. *)
let register_code t (code : bytes) =
  let size = Bytes.length code in
  let span = page_align size in
  let s = t.shared in
  Mutex.protect s.reg_mu (fun () ->
      let base =
        match take_free_span s span with
        | Some base -> base
        | None ->
            let base = s.next_code_base in
            s.next_code_base <- base + span;
            base
      in
      let m = { cm_base = base; cm_size = size; cm_code = Atomic.make (Raw code) } in
      s.mods <- m :: s.mods;
      s.live_code <- s.live_code + size;
      if s.live_code > s.peak_code then s.peak_code <- s.live_code;
      { Code_region.cr_base = base; cr_size = size; cr_span = span; cr_live = true })

(** Release a code region: the module disappears from the address space,
    the span is poisoned (fetches trap with "use-after-free code region")
    and queued for reuse by same-sized registrations. Raises
    [Invalid_argument] on double release. *)
let release_code t (r : Code_region.t) =
  let s = t.shared in
  Mutex.protect s.reg_mu (fun () ->
      if not r.Code_region.cr_live then
        invalid_arg "Emu.release_code: region already released";
      r.Code_region.cr_live <- false;
      let base = r.Code_region.cr_base and span = r.Code_region.cr_span in
      s.mods <- List.filter (fun m -> m.cm_base <> base) s.mods;
      (* every context's [last_mod] cache dies with the generation bump *)
      s.code_gen <- s.code_gen + 1;
      s.live_code <- s.live_code - r.Code_region.cr_size;
      s.freed_code <- s.freed_code + r.Code_region.cr_size;
      if span > 0 then begin
        Hashtbl.replace s.poisoned base span;
        let bases =
          Option.value ~default:[] (Hashtbl.find_opt s.free_spans span)
        in
        Hashtbl.replace s.free_spans span (base :: bases)
      end)

let live_code_bytes t = t.shared.live_code
let peak_code_bytes t = t.shared.peak_code
let freed_code_bytes t = t.shared.freed_code

(** Decode work done so far: modules and code bytes are exact counts (each
    module is decoded once), seconds are wall-clock. *)
type decode_stats = { decoded_modules : int; decoded_bytes : int; decode_s : float }

let decode_stats t =
  let s = t.shared in
  {
    decoded_modules = Atomic.get s.decoded_mods;
    decoded_bytes = Atomic.get s.decoded_bytes;
    decode_s = float_of_int (Atomic.get s.decode_ns) *. 1e-9;
  }

let find_mod t addr =
  let s = t.shared in
  match t.last_mod with
  | Some m
    when t.last_gen = s.code_gen && addr >= m.cm_base
         && addr < m.cm_base + m.cm_size ->
      m
  | _ -> (
      (* snapshot the generation before the walk: a concurrent release
         invalidates the cache entry we are about to write, not keep it *)
      let gen = s.code_gen in
      match
        List.find_opt
          (fun m -> addr >= m.cm_base && addr < m.cm_base + m.cm_size)
          s.mods
      with
      | Some m ->
          t.last_mod <- Some m;
          t.last_gen <- gen;
          m
      | None ->
          Mutex.protect s.reg_mu (fun () ->
              Hashtbl.iter
                (fun base span ->
                  if addr >= base && addr < base + span then
                    raise
                      (Trap
                         (Printf.sprintf "use-after-free code region at 0x%x"
                            addr)))
                s.poisoned);
          raise (Trap (Printf.sprintf "jump to unmapped address 0x%x" addr)))

(* The module's decoded code, decoding it on the first fetch. Two domains
   may both decode a fresh module; the decode is deterministic, so the
   compare-and-set keeps one result and only its decode is counted. A blob
   that does not decode traps, which fails the query that fetched it. *)
let decode t (m : code_mod) =
  match Atomic.get m.cm_code with
  | Decoded d -> d
  | Raw code as raw -> (
      let t0 = Qcomp_support.Timing.now () in
      let insts, off2idx =
        (* a bad opcode, or an instruction cut off by the end of the blob *)
        try Asm.decode_all t.target code
        with Asm.Decode_error msg | Invalid_argument msg ->
          raise (Trap (Printf.sprintf "undecodable code at 0x%x: %s" m.cm_base msg))
      in
      let next_off = Array.make (Array.length insts) m.cm_size in
      Array.iteri (fun off idx -> if idx > 0 then next_off.(idx - 1) <- off) off2idx;
      let d = { insts; off2idx; next_off } in
      if Atomic.compare_and_set m.cm_code raw (Decoded d) then begin
        let s = t.shared in
        Atomic.incr s.decoded_mods;
        ignore (Atomic.fetch_and_add s.decoded_bytes m.cm_size);
        let ns = (Qcomp_support.Timing.now () -. t0) *. 1e9 in
        ignore (Atomic.fetch_and_add s.decode_ns (int_of_float ns));
        d
      end
      else
        match Atomic.get m.cm_code with
        | Decoded d -> d
        | Raw _ -> assert false)

let idx_of (d : decoded) (m : code_mod) addr =
  let i = d.off2idx.(addr - m.cm_base) in
  if i < 0 then raise (Trap (Printf.sprintf "jump into middle of instruction at 0x%x" addr));
  i

(* ---------------- flags ---------------- *)

let set_zs t (r : int64) =
  t.zf <- Int64.equal r 0L;
  t.sf <- Int64.compare r 0L < 0

let flags_add t a b r =
  set_zs t r;
  t.cf <- Int64.unsigned_compare r a < 0;
  t.ovf <-
    Int64.compare (Int64.logand (Int64.logxor a (Int64.lognot b)) (Int64.logxor a r)) 0L < 0

let flags_sub t a b r =
  set_zs t r;
  t.cf <- Int64.unsigned_compare a b < 0;
  t.ovf <- Int64.compare (Int64.logand (Int64.logxor a b) (Int64.logxor a r)) 0L < 0

let flags_logic t r =
  set_zs t r;
  t.cf <- false;
  t.ovf <- false

let cond_true t (c : Minst.cond) =
  match c with
  | Eq -> t.zf
  | Ne -> not t.zf
  | Slt -> t.sf <> t.ovf
  | Sle -> t.zf || t.sf <> t.ovf
  | Sgt -> (not t.zf) && t.sf = t.ovf
  | Sge -> t.sf = t.ovf
  | Ult -> t.cf
  | Ule -> t.cf || t.zf
  | Ugt -> (not t.cf) && not t.zf
  | Uge -> not t.cf
  | Ov -> t.ovf
  | Noov -> not t.ovf

(* ---------------- cost model ---------------- *)

let cost (i : Minst.t) =
  match i with
  | Nop -> 0
  | Mov_rr _ | Mov_ri _ | Movz _ | Movk _ -> 1
  | Alu_rr (a, _, _) | Alu_ri (a, _, _) | Alu_rrr (a, _, _, _) | Alu_rri (a, _, _, _)
    -> (
      match a with Mul -> 3 | _ -> 1)
  | Cmp_rr _ | Cmp_ri _ -> 1
  | Ld _ -> 2
  | St _ -> 2
  | Lea _ -> 1
  | Ext _ -> 1
  | Mul_wide _ | Mul_hi _ -> 4
  | Div _ | Div_rrr _ -> 20
  | Msub _ -> 3
  | Crc32_rr _ | Crc32_rrr _ -> 1
  | Setcc _ | Csel _ -> 1
  | Jmp _ -> 1
  | Jcc _ -> 1
  | Jmp_ind _ -> 2
  | Jmp_mem _ -> 3
  | Call_rel _ -> 2
  | Call_ind _ -> 3
  | Ret -> 2
  | Falu_rr (f, _, _) | Falu_rrr (f, _, _, _) -> (
      match f with Fdiv -> 15 | Fmul -> 4 | _ -> 3)
  | Fcmp_rr _ -> 2
  | Cvt_si2f _ | Cvt_f2si _ -> 4
  | Brk _ -> 0

let runtime_dispatch_cost = 12

(* ---------------- execution ---------------- *)

let alu_eval t (op : Minst.alu) a b =
  match op with
  | Add ->
      let r = Int64.add a b in
      flags_add t a b r;
      r
  | Sub ->
      let r = Int64.sub a b in
      flags_sub t a b r;
      r
  | Adc ->
      let cin = if t.cf then 1L else 0L in
      let r = Int64.add (Int64.add a b) cin in
      let cf1 = Int64.unsigned_compare (Int64.add a b) a < 0 in
      let cf2 = Int64.unsigned_compare r (Int64.add a b) < 0 in
      set_zs t r;
      t.cf <- cf1 || cf2;
      (* signed overflow (valid with carry-in): operands agree, result differs *)
      t.ovf <-
        Int64.compare (Int64.logand (Int64.logxor a r) (Int64.logxor b r)) 0L < 0;
      r
  | Sbb ->
      let cin = if t.cf then 1L else 0L in
      let r = Int64.sub (Int64.sub a b) cin in
      let borrow =
        Int64.unsigned_compare a b < 0
        || (Int64.equal a b && Int64.equal cin 1L)
        || Int64.unsigned_compare (Int64.sub a b) cin < 0
      in
      set_zs t r;
      t.cf <- borrow;
      t.ovf <-
        Int64.compare (Int64.logand (Int64.logxor a b) (Int64.logxor a r)) 0L < 0;
      r
  | And ->
      let r = Int64.logand a b in
      flags_logic t r;
      r
  | Or ->
      let r = Int64.logor a b in
      flags_logic t r;
      r
  | Xor ->
      let r = Int64.logxor a b in
      flags_logic t r;
      r
  | Mul ->
      let r = Int64.mul a b in
      set_zs t r;
      let wide = Qcomp_support.I128.smul64_wide a b in
      let hi = Qcomp_support.I128.to_int64 (Qcomp_support.I128.shift_right wide 64) in
      let ovf = not (Int64.equal hi (Int64.shift_right r 63)) in
      t.cf <- ovf;
      t.ovf <- ovf;
      r
  | Shl ->
      let r = Int64.shift_left a (Int64.to_int b land 63) in
      set_zs t r;
      r
  | Shr ->
      let r = Int64.shift_right_logical a (Int64.to_int b land 63) in
      set_zs t r;
      r
  | Sar ->
      let r = Int64.shift_right a (Int64.to_int b land 63) in
      set_zs t r;
      r
  | Ror ->
      let n = Int64.to_int b land 63 in
      let r =
        if n = 0 then a
        else Int64.logor (Int64.shift_right_logical a n) (Int64.shift_left a (64 - n))
      in
      set_zs t r;
      r

let ext_eval v ~bits ~signed =
  match (bits, signed) with
  | 8, false -> Int64.logand v 0xFFL
  | 8, true -> Int64.shift_right (Int64.shift_left v 56) 56
  | 16, false -> Int64.logand v 0xFFFFL
  | 16, true -> Int64.shift_right (Int64.shift_left v 48) 48
  | 32, false -> Int64.logand v 0xFFFFFFFFL
  | 32, true -> Int64.shift_right (Int64.shift_left v 32) 32
  | 1, false -> Int64.logand v 1L
  | 1, true -> Int64.shift_right (Int64.shift_left v 63) 63
  | _ -> raise (Trap "bad extension width")

let f64 v = Int64.float_of_bits v
let bits f = Int64.bits_of_float f

(** Run starting at [addr] until control returns to the sentinel.
    Reentrant: runtime functions may use {!call_generated}. *)
let rec run_at t addr =
  let is_x64 = t.target.Target.arch = Target.X64 in
  let sp = t.target.Target.sp in
  (* [cur] and its decoded code [code] change together, only on a transfer
     to another module *)
  let cur = ref (find_mod t addr) in
  let code = ref (decode t !cur) in
  let ip = ref (idx_of !code !cur addr) in
  let running = ref true in
  let enter a =
    let m = find_mod t a in
    if m != !cur then begin
      cur := m;
      code := decode t m
    end;
    ip := idx_of !code m a
  in
  (* Transfer control to an arbitrary address: code, runtime or sentinel. *)
  let goto (a : int) =
    if a = sentinel then running := false
    else if is_runtime_addr a then begin
      (* Landing in the runtime via a tail jump (PLT): execute the callee,
         then return to the caller's return address. *)
      let retaddr =
        if is_x64 then begin
          let ra = Memory.load64 t.mem (Int64.to_int t.regs.(sp)) in
          t.regs.(sp) <- Int64.add t.regs.(sp) 8L;
          ra
        end
        else t.regs.(Target.lr)
      in
      dispatch_runtime t a;
      let ra = Int64.to_int retaddr in
      if ra = sentinel then running := false else enter ra
    end
    else enter a
  in
  let push_ret ra =
    let ra = Int64.of_int ra in
    if is_x64 then begin
      t.regs.(sp) <- Int64.sub t.regs.(sp) 8L;
      Memory.store64 t.mem (Int64.to_int t.regs.(sp)) ra
    end
    else t.regs.(Target.lr) <- ra
  in
  while !running do
    let m = !cur and d = !code in
    let i = !ip in
    if i >= Array.length d.insts then raise (Trap "fell off end of code");
    let inst = d.insts.(i) in
    t.cycles <- t.cycles + cost inst;
    t.icount <- t.icount + 1;
    if t.fuel >= 0 && t.icount > t.fuel then raise (Trap "fuel exhausted");
    incr ip;
    (match inst with
    | Nop -> ()
    | Mov_rr (d, s) -> t.regs.(d) <- t.regs.(s)
    | Mov_ri (d, v) -> t.regs.(d) <- v
    | Movz (d, imm, sh) -> t.regs.(d) <- Int64.shift_left (Int64.of_int imm) (16 * sh)
    | Movk (d, imm, sh) ->
        let mask = Int64.shift_left 0xFFFFL (16 * sh) in
        t.regs.(d) <-
          Int64.logor
            (Int64.logand t.regs.(d) (Int64.lognot mask))
            (Int64.shift_left (Int64.of_int imm) (16 * sh))
    | Alu_rr (op, d, s) -> t.regs.(d) <- alu_eval t op t.regs.(d) t.regs.(s)
    | Alu_ri (op, d, v) -> t.regs.(d) <- alu_eval t op t.regs.(d) v
    | Alu_rrr (op, d, a, b) -> t.regs.(d) <- alu_eval t op t.regs.(a) t.regs.(b)
    | Alu_rri (op, d, a, v) -> t.regs.(d) <- alu_eval t op t.regs.(a) v
    | Cmp_rr (a, b) -> ignore (alu_eval t Sub t.regs.(a) t.regs.(b))
    | Cmp_ri (a, v) -> ignore (alu_eval t Sub t.regs.(a) v)
    | Ld { dst; base; off; size; sext } ->
        t.regs.(dst) <-
          Memory.load t.mem ~addr:(Int64.to_int t.regs.(base) + off) ~size ~sext
    | St { src; base; off; size } ->
        Memory.store t.mem ~addr:(Int64.to_int t.regs.(base) + off) ~size t.regs.(src)
    | Lea { dst; base; index; scale; off } ->
        let v = Int64.add t.regs.(base) (Int64.of_int off) in
        let v =
          if index >= 0 then
            Int64.add v (Int64.mul t.regs.(index) (Int64.of_int scale))
          else v
        in
        t.regs.(dst) <- v
    | Ext { dst; src; bits; signed } ->
        t.regs.(dst) <- ext_eval t.regs.(src) ~bits ~signed
    | Mul_wide { signed; src } ->
        let p =
          if signed then Qcomp_support.I128.smul64_wide t.regs.(0) t.regs.(src)
          else Qcomp_support.I128.umul64_wide t.regs.(0) t.regs.(src)
        in
        t.regs.(0) <- Qcomp_support.I128.to_int64 p;
        t.regs.(2) <-
          Qcomp_support.I128.to_int64 (Qcomp_support.I128.shift_right_logical p 64)
    | Mul_hi { signed; dst; a; b } ->
        let p =
          if signed then Qcomp_support.I128.smul64_wide t.regs.(a) t.regs.(b)
          else Qcomp_support.I128.umul64_wide t.regs.(a) t.regs.(b)
        in
        t.regs.(dst) <-
          Qcomp_support.I128.to_int64 (Qcomp_support.I128.shift_right_logical p 64)
    | Div { signed; src } ->
        let d = t.regs.(src) in
        if Int64.equal d 0L then raise (Trap "integer division by zero");
        let a = t.regs.(0) in
        if signed then begin
          if Int64.equal a Int64.min_int && Int64.equal d (-1L) then
            raise (Trap "integer division overflow");
          t.regs.(0) <- Int64.div a d;
          t.regs.(2) <- Int64.rem a d
        end
        else begin
          t.regs.(0) <- Int64.unsigned_div a d;
          t.regs.(2) <- Int64.unsigned_rem a d
        end
    | Div_rrr { signed; dst; a; b } ->
        (* AArch64 semantics: division by zero yields zero. *)
        let bv = t.regs.(b) in
        if Int64.equal bv 0L then t.regs.(dst) <- 0L
        else if signed then
          if Int64.equal t.regs.(a) Int64.min_int && Int64.equal bv (-1L) then
            t.regs.(dst) <- Int64.min_int
          else t.regs.(dst) <- Int64.div t.regs.(a) bv
        else t.regs.(dst) <- Int64.unsigned_div t.regs.(a) bv
    | Msub { dst; a; b; c } ->
        t.regs.(dst) <- Int64.sub t.regs.(c) (Int64.mul t.regs.(a) t.regs.(b))
    | Crc32_rr (d, s) ->
        t.regs.(d) <- Qcomp_support.Hashes.crc32c t.regs.(d) t.regs.(s)
    | Crc32_rrr (d, a, b) ->
        t.regs.(d) <- Qcomp_support.Hashes.crc32c t.regs.(a) t.regs.(b)
    | Setcc (c, d) -> t.regs.(d) <- (if cond_true t c then 1L else 0L)
    | Csel { cond; dst; a; b } ->
        t.regs.(dst) <- (if cond_true t cond then t.regs.(a) else t.regs.(b))
    | Jmp off -> ip := idx_of d m (m.cm_base + off)
    | Jcc (c, off) -> if cond_true t c then ip := idx_of d m (m.cm_base + off)
    | Jmp_ind r -> goto (Int64.to_int t.regs.(r))
    | Jmp_mem slot -> goto (Int64.to_int (Memory.load64 t.mem (Int64.to_int slot)))
    | Call_rel off ->
        push_ret (m.cm_base + d.next_off.(i));
        goto (m.cm_base + off)
    | Call_ind r ->
        push_ret (m.cm_base + d.next_off.(i));
        goto (Int64.to_int t.regs.(r))
    | Ret ->
        let ra =
          if is_x64 then begin
            let ra = Memory.load64 t.mem (Int64.to_int t.regs.(sp)) in
            t.regs.(sp) <- Int64.add t.regs.(sp) 8L;
            ra
          end
          else t.regs.(Target.lr)
        in
        goto (Int64.to_int ra)
    | Falu_rr (op, d, s) ->
        let a = f64 t.regs.(d) and b = f64 t.regs.(s) in
        let r = match op with Fadd -> a +. b | Fsub -> a -. b | Fmul -> a *. b | Fdiv -> a /. b in
        t.regs.(d) <- bits r
    | Falu_rrr (op, d, x, y) ->
        let a = f64 t.regs.(x) and b = f64 t.regs.(y) in
        let r = match op with Fadd -> a +. b | Fsub -> a -. b | Fmul -> a *. b | Fdiv -> a /. b in
        t.regs.(d) <- bits r
    | Fcmp_rr (x, y) ->
        let a = f64 t.regs.(x) and b = f64 t.regs.(y) in
        t.zf <- a = b;
        t.sf <- a < b;
        t.ovf <- false;
        t.cf <- a < b
    | Cvt_si2f (d, s) -> t.regs.(d) <- bits (Int64.to_float t.regs.(s))
    | Cvt_f2si (d, s) -> t.regs.(d) <- Int64.of_float (f64 t.regs.(s))
    | Brk code -> raise (Trap (Printf.sprintf "brk #%d" code)));
    ()
  done

and dispatch_runtime t addr =
  let idx = (addr - runtime_base) / 8 in
  (* read the table afresh on every call: slot stores happen in place, and
     a grown table is published whole before any address in it is *)
  let runtime = t.shared.runtime in
  match if idx < 0 || idx >= Array.length runtime then Unused else runtime.(idx) with
  | Unused -> raise (Trap (Printf.sprintf "call to bad runtime slot %d" idx))
  | Host f ->
      t.cycles <- t.cycles + runtime_dispatch_cost;
      f t
  | Freed ->
      t.cycles <- t.cycles + runtime_dispatch_cost;
      raise (Trap (Printf.sprintf "use-after-free runtime slot %d" idx))

(** Call generated code from the host (or from a runtime function):
    standard calling convention, returns the two return registers. *)
and call_generated t ~addr ~(args : int64 array) =
  let tgt = t.target in
  if Array.length args > Array.length tgt.Target.arg_regs then
    invalid_arg "call_generated: too many register arguments";
  Array.iteri (fun k v -> t.regs.(tgt.Target.arg_regs.(k)) <- v) args;
  if is_runtime_addr addr then dispatch_runtime t addr
  else begin
    if tgt.Target.arch = Target.X64 then begin
      t.regs.(tgt.Target.sp) <- Int64.sub t.regs.(tgt.Target.sp) 8L;
      Memory.store64 t.mem (Int64.to_int t.regs.(tgt.Target.sp)) (Int64.of_int sentinel)
    end
    else t.regs.(Target.lr) <- Int64.of_int sentinel;
    run_at t addr
  end;
  (t.regs.(tgt.Target.ret_regs.(0)), t.regs.(tgt.Target.ret_regs.(1)))

(** Top-level entry: sets up a fresh stack then calls [addr]. *)
let call t ~addr ~args =
  let sp0 = t.stack_top land lnot 15 in
  t.regs.(t.target.Target.sp) <- Int64.of_int sp0;
  call_generated t ~addr ~args

let arg_reg t k = t.target.Target.arg_regs.(k)
let reg t r = t.regs.(r)
let set_reg t r v = t.regs.(r) <- v
