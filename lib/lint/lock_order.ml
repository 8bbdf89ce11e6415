open Parsetree
module SS = Set.Make (String)

let rule = "lock-order"
let low = String.lowercase_ascii

type graph = {
  nodes : (string, unit) Hashtbl.t;
  adj : (string * string, Location.t) Hashtbl.t;  (* (from, to) -> witness *)
}

let new_graph () = { nodes = Hashtbl.create 32; adj = Hashtbl.create 64 }
let add_node g n = Hashtbl.replace g.nodes n ()

let add_edge g a b loc =
  add_node g a;
  add_node g b;
  if not (Hashtbl.mem g.adj (a, b)) then Hashtbl.add g.adj (a, b) loc

let nodes g = Hashtbl.fold (fun n () acc -> n :: acc) g.nodes [] |> List.sort compare
let edges g = Hashtbl.fold (fun e _ acc -> e :: acc) g.adj [] |> List.sort compare
let succs g a =
  Hashtbl.fold (fun (x, y) _ acc -> if x = a then y :: acc else acc) g.adj []
  |> List.sort compare

let reaches g a b =
  let seen = Hashtbl.create 16 in
  let rec go n =
    if Hashtbl.mem seen n then false
    else begin
      Hashtbl.add seen n ();
      List.exists (fun s -> s = b || go s) (succs g n)
    end
  in
  Hashtbl.mem g.nodes a && go a

(* The sched implementation itself (and this analyzer) sit below the
   locking discipline the rule describes. *)
let out_of_scope (f : Source.file) =
  f.kind = Source.Intf || f.stem = "sched"
  || (String.length f.path >= 9 && String.sub f.path 0 9 = "lib/lint/")

(* ---- syntactic classification of an expression ---------------------- *)

type shape =
  | With_lock of expression * expression option  (* mutex, thunk *)
  | Lock of expression  (* Sched.lock m, or List.iter Sched.lock ms *)
  | Call of string list * (Asttypes.arg_label * expression) list
  | Other

let nolabel args =
  List.filter_map (function Asttypes.Nolabel, e -> Some e | _ -> None) args

let sched_fn env e name =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match List.rev (Resolve.resolve env txt) with
      | last :: m :: _ -> last = name && low m = "sched"
      | _ -> false)
  | _ -> false

let classify env e =
  match Resolve.calls env e with
  | None -> Other
  | Some (comps, args) -> (
      match List.rev comps with
      | "with_lock" :: m :: _ when low m = "sched" -> (
          match nolabel args with
          | mu :: thunk :: _ -> With_lock (mu, Some thunk)
          | [ mu ] -> With_lock (mu, None)
          | [] -> Other)
      | "lock" :: m :: _ when low m = "sched" -> (
          match nolabel args with mu :: _ -> Lock mu | [] -> Other)
      | "iter" :: _ -> (
          (* List.iter Sched.lock locks: bulk ordered acquisition *)
          match nolabel args with
          | f :: ms :: _ when sched_fn env f "lock" -> Lock ms
          | _ -> Call (comps, args))
      | _ -> Call (comps, args))

let label (file : Source.file) mu = file.stem ^ ":" ^ Resolve.label_of_expr mu

(* Functors.  A functor's body is keyed under [stem.functor.], and its
   parameter's values under [module.functor(arg).]: a call [F.persist]
   inside the body resolves to the [persist] of every structure the repo
   applies the functor to, merged into one may-acquire summary. *)
let functor_key comps =
  match List.rev comps with
  | f :: m :: _ -> low m ^ "." ^ low f
  | [ f ] -> low f
  | [] -> ""

let arg_prefix fkey = fkey ^ "(arg)."

let rec unconstrained me =
  match me.pmod_desc with Pmod_constraint (me, _) -> unconstrained me | _ -> me

(* [Some (param, body)] for a one-parameter functor over a structure. *)
let functor_body me =
  match (unconstrained me).pmod_desc with
  | Pmod_functor (Named ({ txt = Some param; _ }, _), body) -> (
      match (unconstrained body).pmod_desc with
      | Pmod_structure sub -> Some (param, sub)
      | _ -> None)
  | _ -> None

(* [Some (functor key, argument structure)] for [include F (struct .. end)]. *)
let applied_structure env me =
  match (unconstrained me).pmod_desc with
  | Pmod_apply ({ pmod_desc = Pmod_ident { txt; _ }; _ }, arg) -> (
      match (unconstrained arg).pmod_desc with
      | Pmod_structure sub -> Some (functor_key (Resolve.resolve env txt), sub)
      | _ -> None)
  | _ -> None

(* Keys a call site might refer to; missing keys resolve to nothing.
   [params] maps the enclosing functors' parameters to their argument
   prefixes. *)
let callee_keys ~stem ~prefix ~params comps =
  match List.rev comps with
  | [ f ] ->
      let local = prefix ^ f and top = stem ^ "." ^ f in
      if local = top then [ top ] else [ local; top ]
  | [ f; m ] when List.mem_assoc m params -> [ List.assoc m params ^ f ]
  | f :: m :: _ -> [ low m ^ "." ^ f ]
  | [] -> []

(* ---- pass A: per-function may-acquire summaries --------------------- *)

type summary = { mutable locks : string list; mutable callees : string list }

let scan_expr env file ~prefix ~params (s : summary) expr0 =
  let open Ast_iterator in
  let expr it e =
    (match classify env e with
    | With_lock (mu, _) | Lock mu -> s.locks <- label file mu :: s.locks
    | Call (comps, _) ->
        s.callees <- callee_keys ~stem:file.Source.stem ~prefix ~params comps @ s.callees
    | Other -> ());
    default_iterator.expr it e
  in
  let it = { default_iterator with expr } in
  it.expr it expr0

(* A key bound twice (the same functor applied to several structures)
   gets the union of its summaries. *)
let rec collect_structure env (file : Source.file) summaries ~params prefix stru =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let name =
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt; _ }
                | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) ->
                    Some txt
                | _ -> None
              in
              match name with
              | Some n ->
                  let s =
                    match Hashtbl.find_opt summaries (prefix ^ n) with
                    | Some s -> s
                    | None -> { locks = []; callees = [] }
                  in
                  scan_expr env file ~prefix ~params s vb.pvb_expr;
                  Hashtbl.replace summaries (prefix ^ n) s
              | None -> ())
            vbs
      | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } -> (
          match (pmb_expr.pmod_desc, functor_body pmb_expr) with
          | Pmod_structure sub, _ ->
              collect_structure env file summaries ~params (low name ^ ".") sub
          | _, Some (param, sub) ->
              let fkey = file.stem ^ "." ^ low name in
              collect_structure env file summaries
                ~params:((param, arg_prefix fkey) :: params)
                (fkey ^ ".") sub
          | _, None -> ())
      | Pstr_include { pincl_mod; _ } -> (
          match applied_structure env pincl_mod with
          | Some (fkey, sub) -> collect_structure env file summaries ~params (arg_prefix fkey) sub
          | None -> ())
      | _ -> ())
    stru

let fixpoint summaries =
  let reach = Hashtbl.create 64 in
  (* The fixpoint's result is iteration-order independent, but walking a
     sorted key list keeps the pass deterministic by construction (and
     appeases its own determinism rule). *)
  let keys =
    Hashtbl.fold (fun k (s : summary) acc -> (k, s) :: acc) summaries []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter (fun (k, (s : summary)) -> Hashtbl.replace reach k (SS.of_list s.locks)) keys;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (k, (s : summary)) ->
        let cur = Hashtbl.find reach k in
        let next =
          List.fold_left
            (fun acc c ->
              match Hashtbl.find_opt reach c with
              | Some r -> SS.union acc r
              | None -> acc)
            cur s.callees
        in
        if not (SS.equal next cur) then begin
          Hashtbl.replace reach k next;
          changed := true
        end)
      keys
  done;
  reach

(* ---- pass B: held-stack walk emitting acquired-before edges --------- *)

let pass_b g reach diags (file : Source.file) =
  let env = Resolve.env_of_file file in
  let held = ref [] in
  let prefix = ref (file.stem ^ ".") and params = ref [] in
  let acquire loc l =
    if List.mem l !held then
      diags :=
        Diag.v ~loc ~rule
          ~hint:"restructure so the inner section runs outside the lock, or split the mutex"
          "mutex %s acquired while already held (self-deadlock on a non-reentrant lock)" l
        :: !diags
    else List.iter (fun h -> add_edge g h l loc) !held;
    add_node g l
  in
  let open Ast_iterator in
  let expr it e =
    match classify env e with
    | With_lock (mu, thunk) ->
        let l = label file mu in
        acquire e.pexp_loc l;
        it.expr it mu;
        let saved = !held in
        if not (List.mem l !held) then held := l :: !held;
        Option.iter (it.expr it) thunk;
        held := saved
    | Lock mu ->
        let l = label file mu in
        acquire e.pexp_loc l;
        if not (List.mem l !held) then held := l :: !held
        (* stays held for the rest of the binding: Sched.unlock is not
           tracked, which only widens the graph (lockdep-conservative) *)
    | Call (comps, args) ->
        if !held <> [] then
          callee_keys ~stem:file.stem ~prefix:!prefix ~params:!params comps
          |> List.iter (fun k ->
                 match Hashtbl.find_opt reach k with
                 | Some r ->
                     SS.iter
                       (fun l ->
                         List.iter
                           (fun h -> if h <> l then add_edge g h l e.pexp_loc)
                           !held)
                       r
                 | None -> ());
        List.iter (fun (_, a) -> it.expr it a) args
    | Other -> default_iterator.expr it e
  in
  let structure_item it item =
    held := [];
    let saved = !prefix in
    (match item.pstr_desc with
    | Pstr_include { pincl_mod; _ } -> (
        match applied_structure env pincl_mod with
        | Some (fkey, _) -> prefix := arg_prefix fkey
        | None -> ())
    | _ -> ());
    default_iterator.structure_item it item;
    prefix := saved
  in
  let module_binding it mb =
    let saved = !prefix and saved_params = !params in
    (match (mb.pmb_name.txt, functor_body mb.pmb_expr) with
    | Some n, Some (param, _) ->
        let fkey = file.stem ^ "." ^ low n in
        prefix := fkey ^ ".";
        params := (param, arg_prefix fkey) :: !params
    | Some n, None -> prefix := low n ^ "."
    | None, _ -> ());
    default_iterator.module_binding it mb;
    prefix := saved;
    params := saved_params
  in
  let it = { default_iterator with expr; structure_item; module_binding } in
  it.structure it file.impl

let build files =
  let files = List.filter (fun f -> not (out_of_scope f)) files in
  let summaries = Hashtbl.create 256 in
  List.iter
    (fun (f : Source.file) ->
      let env = Resolve.env_of_file f in
      collect_structure env f summaries ~params:[] (f.stem ^ ".") f.impl)
    files;
  let reach = fixpoint summaries in
  let g = new_graph () in
  let diags = ref [] in
  List.iter (pass_b g reach diags) files;
  (g, List.rev !diags)

(* ---- cycles (Tarjan SCC) -------------------------------------------- *)

let sccs g =
  let index = Hashtbl.create 32 and lowlink = Hashtbl.create 32 in
  let on_stack = Hashtbl.create 32 in
  let stack = ref [] and counter = ref 0 and out = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succs g v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      out := pop [] :: !out
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) (nodes g);
  !out

let cycle_diags g =
  sccs g
  |> List.filter_map (fun scc ->
         let cyclic =
           match scc with
           | [ v ] -> Hashtbl.mem g.adj (v, v)
           | _ :: _ :: _ -> true
           | [] -> false
         in
         if not cyclic then None
         else
           let members = List.sort compare scc in
           let witness =
             Hashtbl.fold
               (fun (a, b) loc acc ->
                 if List.mem a members && List.mem b members then ((a, b), loc) :: acc
                 else acc)
               g.adj []
             |> List.sort (fun (e1, _) (e2, _) -> compare e1 e2)
             |> function [] -> None | (_, loc) :: _ -> Some loc
           in
           let loc = Option.value witness ~default:Location.none in
           Some
             (Diag.v ~loc ~rule
                ~hint:
                  "pick one global acquisition order for these mutexes and restructure the \
                   out-of-order path"
                "lock-order cycle between {%s}: acquired-before holds in both directions \
                 (potential ABBA deadlock even if no explored schedule hits it)"
                (String.concat ", " members)))
  |> List.sort Diag.compare

let containment_diags g ~observed =
  List.filter_map
    (fun (a, b) ->
      if not (Hashtbl.mem g.nodes a) then
        Some
          (Diag.at ~file:"<runtime>" ~line:0 ~col:0 ~rule
             ~hint:"name the mutex after its dominant static lock site, or extend the analyzer"
             (Printf.sprintf "runtime lock %s observed but not modelled statically" a))
      else if not (Hashtbl.mem g.nodes b) then
        Some
          (Diag.at ~file:"<runtime>" ~line:0 ~col:0 ~rule
             ~hint:"name the mutex after its dominant static lock site, or extend the analyzer"
             (Printf.sprintf "runtime lock %s observed but not modelled statically" b))
      else if a <> b && not (reaches g a b) then
        Some
          (Diag.at ~file:"<runtime>" ~line:0 ~col:0 ~rule
             ~hint:"the static graph must over-approximate every observed nesting; add the \
                    missing call path or fix the mutex name"
             (Printf.sprintf "observed acquisition order %s -> %s is not implied by the static graph"
                a b))
      else None)
    observed
  |> List.sort_uniq Diag.compare

let check files =
  let g, d = build files in
  d @ cycle_diags g
