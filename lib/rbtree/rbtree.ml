(* Functional red-black tree: Okasaki-style insertion, Kahrs-style deletion
   (the classic "untyped" SML/Haskell formulation), behind a mutable
   handle.  The deletion rebalancing (balleft/balright/app) follows Kahrs,
   "Red-black trees with types", JFP 2001. *)

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
  val remove : 'a t -> key -> unit
  val find : 'a t -> key -> 'a option
  val mem : 'a t -> key -> bool
  val min_binding : 'a t -> (key * 'a) option
  val max_binding : 'a t -> (key * 'a) option
  val find_first_geq : 'a t -> key -> (key * 'a) option
  val find_last_leq : 'a t -> key -> (key * 'a) option
  val iter : 'a t -> (key -> 'a -> unit) -> unit
  val iter_from : 'a t -> key -> (key -> 'a -> bool) -> unit
  val fold : 'a t -> init:'b -> f:('b -> key -> 'a -> 'b) -> 'b
  val to_list : 'a t -> (key * 'a) list
  val check_invariants : 'a t -> (unit, string) result
end

module Make (Ord : ORDERED) : S with type key = Ord.t = struct
  type key = Ord.t

  type color = R | B

  type 'a node = E | T of color * 'a node * key * 'a * 'a node

  type 'a t = { mutable root : 'a node; mutable count : int }

  let create () = { root = E; count = 0 }

  let clear t =
    t.root <- E;
    t.count <- 0

  let is_empty t = match t.root with E -> true | T _ -> false
  let size t = t.count

  (* --- insertion --- *)

  let balance l k v r =
    match (l, k, v, r) with
    | T (R, a, xk, xv, b), yk, yv, T (R, c, zk, zv, d)
    | T (R, T (R, a, xk, xv, b), yk, yv, c), zk, zv, d
    | T (R, a, xk, xv, T (R, b, yk, yv, c)), zk, zv, d
    | a, xk, xv, T (R, b, yk, yv, T (R, c, zk, zv, d))
    | a, xk, xv, T (R, T (R, b, yk, yv, c), zk, zv, d) ->
        T (R, T (B, a, xk, xv, b), yk, yv, T (B, c, zk, zv, d))
    | _ -> T (B, l, k, v, r)

  exception Replaced

  let insert t k v =
    let rec ins = function
      | E -> T (R, E, k, v, E)
      | T (B, a, yk, yv, b) ->
          let c = Ord.compare k yk in
          if c < 0 then balance (ins a) yk yv b
          else if c > 0 then balance a yk yv (ins b)
          else raise_notrace Replaced
      | T (R, a, yk, yv, b) ->
          let c = Ord.compare k yk in
          if c < 0 then T (R, ins a, yk, yv, b)
          else if c > 0 then T (R, a, yk, yv, ins b)
          else raise_notrace Replaced
    in
    (* Replacement must not restructure; handle it with a direct rewrite. *)
    let rec replace = function
      | E -> E
      | T (col, a, yk, yv, b) ->
          let c = Ord.compare k yk in
          if c < 0 then T (col, replace a, yk, yv, b)
          else if c > 0 then T (col, a, yk, yv, replace b)
          else T (col, a, yk, v, b)
    in
    match ins t.root with
    | T (_, a, yk, yv, b) ->
        t.root <- T (B, a, yk, yv, b);
        t.count <- t.count + 1
    | E -> assert false
    | exception Replaced -> t.root <- replace t.root

  (* --- deletion (Kahrs) --- *)

  let sub1 = function
    | T (B, a, k, v, b) -> T (R, a, k, v, b)
    | _ -> assert false (* invariance violation *)

  let balleft l k v r =
    match (l, k, v, r) with
    | T (R, a, xk, xv, b), yk, yv, c -> T (R, T (B, a, xk, xv, b), yk, yv, c)
    | bl, xk, xv, T (B, a, yk, yv, b) -> balance bl xk xv (T (R, a, yk, yv, b))
    | bl, xk, xv, T (R, T (B, a, yk, yv, b), zk, zv, c) ->
        T (R, T (B, bl, xk, xv, a), yk, yv, balance b zk zv (sub1 c))
    | _ -> assert false

  let balright l k v r =
    match (l, k, v, r) with
    | a, xk, xv, T (R, b, yk, yv, c) -> T (R, a, xk, xv, T (B, b, yk, yv, c))
    | T (B, a, xk, xv, b), yk, yv, bl -> balance (T (R, a, xk, xv, b)) yk yv bl
    | T (R, a, xk, xv, T (B, b, yk, yv, c)), zk, zv, bl ->
        T (R, balance (sub1 a) xk xv b, yk, yv, T (B, c, zk, zv, bl))
    | _ -> assert false

  let rec app l r =
    match (l, r) with
    | E, x -> x
    | x, E -> x
    | T (R, a, xk, xv, b), T (R, c, yk, yv, d) -> (
        match app b c with
        | T (R, b', zk, zv, c') ->
            T (R, T (R, a, xk, xv, b'), zk, zv, T (R, c', yk, yv, d))
        | bc -> T (R, a, xk, xv, T (R, bc, yk, yv, d)))
    | T (B, a, xk, xv, b), T (B, c, yk, yv, d) -> (
        match app b c with
        | T (R, b', zk, zv, c') ->
            T (R, T (B, a, xk, xv, b'), zk, zv, T (B, c', yk, yv, d))
        | bc -> balleft a xk xv (T (B, bc, yk, yv, d)))
    | a, T (R, b, xk, xv, c) -> T (R, app a b, xk, xv, c)
    | T (R, a, xk, xv, b), c -> T (R, a, xk, xv, app b c)

  exception Absent

  let remove t k =
    let rec del = function
      | E -> raise_notrace Absent
      | T (_, a, yk, yv, b) ->
          let c = Ord.compare k yk in
          if c < 0 then del_from_left a yk yv b
          else if c > 0 then del_from_right a yk yv b
          else app a b
    and del_from_left a yk yv b =
      match a with
      | T (B, _, _, _, _) -> balleft (del a) yk yv b
      | _ -> T (R, del a, yk, yv, b)
    and del_from_right a yk yv b =
      match b with
      | T (B, _, _, _, _) -> balright a yk yv (del b)
      | _ -> T (R, a, yk, yv, del b)
    in
    match del t.root with
    | T (_, a, yk, yv, b) ->
        t.root <- T (B, a, yk, yv, b);
        t.count <- t.count - 1
    | E ->
        t.root <- E;
        t.count <- t.count - 1
    | exception Absent -> ()

  (* --- queries --- *)

  let find t k =
    let rec go = function
      | E -> None
      | T (_, a, yk, yv, b) ->
          let c = Ord.compare k yk in
          if c < 0 then go a else if c > 0 then go b else Some yv
    in
    go t.root

  let mem t k = Option.is_some (find t k)

  let min_binding t =
    let rec go = function
      | E -> None
      | T (_, E, k, v, _) -> Some (k, v)
      | T (_, a, _, _, _) -> go a
    in
    go t.root

  let max_binding t =
    let rec go = function
      | E -> None
      | T (_, _, k, v, E) -> Some (k, v)
      | T (_, _, _, _, b) -> go b
    in
    go t.root

  let find_first_geq t k =
    let rec go best = function
      | E -> best
      | T (_, a, yk, yv, b) ->
          let c = Ord.compare yk k in
          if c >= 0 then go (Some (yk, yv)) a else go best b
    in
    go None t.root

  let find_last_leq t k =
    let rec go best = function
      | E -> best
      | T (_, a, yk, yv, b) ->
          let c = Ord.compare yk k in
          if c <= 0 then go (Some (yk, yv)) b else go best a
    in
    go None t.root

  let iter t f =
    let rec go = function
      | E -> ()
      | T (_, a, k, v, b) ->
          go a;
          f k v;
          go b
    in
    go t.root

  (* In-order walk of the bindings >= [k]: subtrees wholly below [k] are
     skipped, and a [false] from [f] unwinds without visiting more. *)
  let iter_from t k f =
    let rec go = function
      | E -> true
      | T (_, a, yk, yv, b) -> if Ord.compare yk k < 0 then go b else go a && f yk yv && go b
    in
    ignore (go t.root)

  let fold t ~init ~f =
    let acc = ref init in
    iter t (fun k v -> acc := f !acc k v);
    !acc

  let to_list t = List.rev (fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc))

  let check_invariants t =
    let exception Bad of string in
    (* Returns black height; checks red-red and BST ordering. *)
    let rec go lo hi = function
      | E -> 1
      | T (col, a, k, _, b) ->
          (match lo with
          | Some l when Ord.compare k l <= 0 -> raise (Bad "BST order violated (left)")
          | _ -> ());
          (match hi with
          | Some h when Ord.compare k h >= 0 -> raise (Bad "BST order violated (right)")
          | _ -> ());
          (match (col, a, b) with
          | R, T (R, _, _, _, _), _ | R, _, T (R, _, _, _, _) ->
              raise (Bad "red node with red child")
          | _ -> ());
          let bh_l = go lo (Some k) a in
          let bh_r = go (Some k) hi b in
          if bh_l <> bh_r then raise (Bad "black height mismatch");
          bh_l + (match col with B -> 1 | R -> 0)
    in
    match go None None t.root with
    | _ ->
        let n = fold t ~init:0 ~f:(fun acc _ _ -> acc + 1) in
        if n <> t.count then Error (Printf.sprintf "size mismatch: %d vs %d" n t.count)
        else Ok ()
    | exception Bad msg -> Error msg
end

module Int_map = Make (struct
  type t = int

  let compare = Int.compare
end)

module String_map = Make (struct
  type t = string

  let compare = String.compare
end)
