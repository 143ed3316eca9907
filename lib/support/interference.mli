(** Interference union of one physical register: the half-open segments
    [\[s, e)] of program points that occupy it, in a {!Btree} keyed by
    segment end (LLVM's [LiveIntervalUnion]). Both register allocators —
    the greedy one of the LLVM-like and GCC-like back-ends and Cranelift's
    bundle allocator — keep one union per physical register.

    Invariant: the segments of a union are pairwise disjoint. Fixed
    segments (register reservations, call clobbers) may overlap each other
    when added, so {!add_fixed} merges them; a virtual register's segment
    is added only where {!conflicts} found it free, or after {!evictees}'
    owners were removed. Sorted by end, the segments are then sorted by
    start too, so the first segment ending after [s] is the only one on
    the left that can reach [s], and both queries visit only the segments
    that overlap what they ask about, plus one: O(log n + k), not O(n). *)

type t

val create : unit -> t

(** [add_fixed u s e] reserves [\[s, e)] for good (no owner, never
    evictable). It is merged with the fixed segments it overlaps or
    touches. Raises [Invalid_argument] if it overlaps a virtual register's
    segment: add fixed segments first. *)
val add_fixed : t -> int -> int -> unit

(** [add u v s e] records that virtual register (or bundle) [v >= 0]
    occupies [\[s, e)]. The segment must be free. *)
val add : t -> int -> int -> int -> unit

(** [remove u s e] drops the virtual register segment [\[s, e)]. *)
val remove : t -> int -> int -> unit

(** Does any segment overlap [\[s, e)]? *)
val conflicts : t -> int -> int -> bool

(** [evictees u segs ~evictable] lists, sorted and without duplicates, the
    owners of the segments that overlap any of [segs] — the virtual
    registers that would have to leave the register for [segs] to fit. It
    is [None] as soon as one overlapping segment is fixed or belongs to an
    owner [evictable] rejects; the walk stops there. *)
val evictees :
  t -> (int * int) list -> evictable:(int -> bool) -> int list option
