(** Set-associative LRU directory over integer keys.

    Building block for the TLB and last-level-cache models: a fixed number
    of sets, each holding [ways] keys in least-recently-used order. *)

type t

val create : sets:int -> ways:int -> t
(** [sets] must be a power of two. *)

val access : t -> int -> bool
(** [access t key] returns [true] on hit.  On miss the key is inserted,
    evicting the set's LRU entry.  Either way the key becomes MRU. *)

val probe : t -> int -> bool
(** Hit test without insertion or LRU update. *)

val invalidate : t -> int -> unit
val clear : t -> unit
