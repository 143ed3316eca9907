(** Fixed-capacity mutable bitsets, used for dataflow (liveness) sets. *)

type t

(** [create n] is an empty set over the universe [0..n-1]. *)
val create : int -> t

val capacity : t -> int
val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val clear : t -> unit
val copy : t -> t

(** [union_into ~src dst] adds all of [src] to [dst]; returns [true] when
    [dst] changed (the fixpoint test of dataflow iteration). *)
val union_into : src:t -> t -> bool

(** [union_diff_into ~src ~minus dst] adds [src \ minus] to [dst] in one
    pass over the words; returns [true] when [dst] changed. Block liveness
    iterates [live_in = gen ∪ (live_out \ kill)] with it. *)
val union_diff_into : src:t -> minus:t -> t -> bool

val equal : t -> t -> bool
val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val count : t -> int
val to_list : t -> int list
