(** In-memory B-tree with [int] keys.

    Cranelift's register allocator maintains one B-tree per physical register
    to track which live-range fragments occupy it (the paper measures ~6% of
    register-allocation time in these B-trees). This module reproduces that
    data structure; {!Interference} builds the per-register union of both
    register allocators on it. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

(** [insert t k v] adds or replaces the binding of [k]. *)
val insert : 'a t -> int -> 'a -> unit

val find : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool
val remove : 'a t -> int -> unit

(** Greatest binding with key [<= k]. *)
val find_le : 'a t -> int -> (int * 'a) option

(** Least binding with key [>= k]. *)
val find_ge : 'a t -> int -> (int * 'a) option

val min_binding : 'a t -> (int * 'a) option
val max_binding : 'a t -> (int * 'a) option

(** In-order iteration. *)
val iter : (int -> 'a -> unit) -> 'a t -> unit

(** [exists_range t ~lo ~hi p] applies [p] in key order to the bindings
    with [lo <= k < hi] and stops at the first one it holds for; [true]
    when there is one. Costs O(log n + visited). *)
val exists_range : 'a t -> lo:int -> hi:int -> (int -> 'a -> bool) -> bool

val to_list : 'a t -> (int * 'a) list
