(** Red-black tree maps.

    WineFS (like the Linux kernel it reuses them from) keeps its DRAM
    metadata indexes — per-directory entry indexes, free-inode lists and the
    unaligned free-extent pool — in red-black trees.  This is a faithful
    functional red-black tree (Okasaki insertion, Kahrs deletion) behind a
    small mutable handle so call sites read like the kernel's rbtree API.

    Invariants (checked by {!S.check_invariants} and the property suite):
    no red node has a red child, and every root-leaf path crosses the same
    number of black nodes. *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module type S = sig
  type key
  type 'a t

  val create : unit -> 'a t
  val clear : 'a t -> unit
  val is_empty : 'a t -> bool
  val size : 'a t -> int

  val insert : 'a t -> key -> 'a -> unit
  (** Replaces the value when the key is already bound. *)

  val remove : 'a t -> key -> unit
  (** No-op when the key is unbound. *)

  val find : 'a t -> key -> 'a option
  val mem : 'a t -> key -> bool

  val min_binding : 'a t -> (key * 'a) option
  val max_binding : 'a t -> (key * 'a) option

  val find_first_geq : 'a t -> key -> (key * 'a) option
  (** Smallest binding with key >= the argument (kernel
      [rb_find_first]-style successor search). *)

  val find_last_leq : 'a t -> key -> (key * 'a) option
  (** Largest binding with key <= the argument (predecessor search). *)

  val iter : 'a t -> (key -> 'a -> unit) -> unit
  (** In ascending key order. *)

  val iter_from : 'a t -> key -> (key -> 'a -> bool) -> unit
  (** [iter_from t k f] visits the bindings with key >= [k] in ascending
      order while [f] returns [true]; the binding on which [f] returns
      [false] is the last one visited.  One descent plus the visited
      bindings, where a {!find_first_geq} per binding would pay a
      descent each. *)

  val fold : 'a t -> init:'b -> f:('b -> key -> 'a -> 'b) -> 'b
  val to_list : 'a t -> (key * 'a) list

  val check_invariants : 'a t -> (unit, string) result
  (** Structural red-black + BST invariants; used by tests. *)
end

module Make (Ord : ORDERED) : S with type key = Ord.t

module Int_map : S with type key = int
module String_map : S with type key = string
