(** Block liveness and live ranges of virtual registers, shared by the
    greedy register allocator (LLVM-like and GCC-like back-ends),
    Cranelift's allocator and the IR-level {!Qcomp_ir.Liveness}.

    {!solve} decodes every instruction once, in one backward scan per
    block, into the block's upward-exposed uses ([gen]) and definitions
    ([kill]); the fixpoint then iterates
    [live_in = gen ∪ (live_out \ kill)] on bitsets alone. The least
    fixpoint is unique, so the sets equal those of a per-instruction
    iteration. *)

(** A function's code as the solver sees it. Registers below [vreg_base]
    are physical and ignored; register [r >= vreg_base] is virtual
    register [r - vreg_base]. *)
type code = {
  nblocks : int;
  nvregs : int;
  vreg_base : int;
  succs : int -> int list;
  length : int -> int;  (** instructions in a block *)
  defs_uses : int -> int -> int list * int list;
      (** [defs_uses b k]: registers instruction [k] of block [b] defines
          and uses *)
}

type t = {
  live_in : Bitset.t array;  (** per block, over virtual registers *)
  live_out : Bitset.t array;
}

(** [exit_uses b] lists registers used on leaving block [b], whatever its
    successors (SSA φ inputs arriving from [b]); they are live out of
    [b]. *)
val solve : ?exit_uses:(int -> int list) -> code -> t

(** [ranges code live ~point] is each virtual register's live range as
    half-open segments of program points, built by one backward scan per
    block. Instruction [k] of block [b] uses at [point b k] and defines at
    [point b k + 1]; a block spans [\[point b 0, point b (length b))].
    Each register's list holds its segments in the order the scan found
    them: blocks in reverse order, each block's segments ascending.
    [on_ref b v], if given, is called once per definition and use of [v]
    in block [b]. *)
val ranges :
  ?on_ref:(int -> int -> unit) ->
  code ->
  t ->
  point:(int -> int -> int) ->
  (int * int) list array
