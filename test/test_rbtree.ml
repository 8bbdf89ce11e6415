(* Red-black tree and extent tree: unit tests plus properties checked
   against the stdlib Map as a model. *)

module RB = Repro_rbtree.Rbtree.Int_map
module ET = Repro_rbtree.Extent_tree
module IM = Map.Make (Int)

let test_basic () =
  let t = RB.create () in
  Alcotest.(check bool) "empty" true (RB.is_empty t);
  RB.insert t 5 "five";
  RB.insert t 1 "one";
  RB.insert t 9 "nine";
  Alcotest.(check int) "size" 3 (RB.size t);
  Alcotest.(check (option string)) "find" (Some "five") (RB.find t 5);
  Alcotest.(check (option string)) "missing" None (RB.find t 7);
  RB.insert t 5 "FIVE";
  Alcotest.(check int) "replace keeps size" 3 (RB.size t);
  Alcotest.(check (option string)) "replaced" (Some "FIVE") (RB.find t 5);
  RB.remove t 5;
  Alcotest.(check int) "removed" 2 (RB.size t);
  RB.remove t 42 (* absent: no-op *);
  Alcotest.(check int) "remove absent" 2 (RB.size t);
  Alcotest.(check (list (pair int string))) "ordered" [ (1, "one"); (9, "nine") ] (RB.to_list t)

let test_neighbours () =
  let t = RB.create () in
  List.iter (fun k -> RB.insert t k k) [ 10; 20; 30; 40 ];
  Alcotest.(check (option (pair int int))) "geq exact" (Some (20, 20)) (RB.find_first_geq t 20);
  Alcotest.(check (option (pair int int))) "geq between" (Some (30, 30)) (RB.find_first_geq t 21);
  Alcotest.(check (option (pair int int))) "geq past end" None (RB.find_first_geq t 41);
  Alcotest.(check (option (pair int int))) "leq exact" (Some (20, 20)) (RB.find_last_leq t 20);
  Alcotest.(check (option (pair int int))) "leq between" (Some (20, 20)) (RB.find_last_leq t 29);
  Alcotest.(check (option (pair int int))) "leq before start" None (RB.find_last_leq t 9);
  Alcotest.(check (option (pair int int))) "min" (Some (10, 10)) (RB.min_binding t);
  Alcotest.(check (option (pair int int))) "max" (Some (40, 40)) (RB.max_binding t)

(* Model-based property: random insert/remove sequences agree with Map and
   preserve red-black invariants. *)
let prop_model =
  QCheck.Test.make ~name:"rbtree agrees with Map and keeps invariants" ~count:200
    QCheck.(list (pair (int_bound 500) bool))
    (fun ops ->
      let t = RB.create () in
      let model = ref IM.empty in
      List.iter
        (fun (k, insert) ->
          if insert then begin
            RB.insert t k (k * 2);
            model := IM.add k (k * 2) !model
          end
          else begin
            RB.remove t k;
            model := IM.remove k !model
          end)
        ops;
      (match RB.check_invariants t with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_reportf "invariant: %s" m);
      RB.to_list t = IM.bindings !model)

let prop_successor =
  QCheck.Test.make ~name:"find_first_geq matches Map.find_first" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 100) (int_bound 1000)) (int_bound 1000))
    (fun (keys, probe) ->
      let t = RB.create () in
      let model = List.fold_left (fun m k -> IM.add k k m) IM.empty keys in
      List.iter (fun k -> RB.insert t k k) keys;
      let expect = IM.find_first_opt (fun k -> k >= probe) model in
      RB.find_first_geq t probe = expect)

(* iter_from against the model: the bindings >= the start key, in order,
   cut after [limit] visits.  Random insert/remove streams (an empty one
   gives the empty tree); start keys reach below the smallest and above
   the largest key. *)
let prop_iter_from =
  QCheck.Test.make ~name:"iter_from matches filtered to_list" ~count:300
    QCheck.(triple (list (pair (int_bound 200) bool)) (int_range (-10) 210) (int_range 1 60))
    (fun (ops, start, limit) ->
      let t = RB.create () in
      List.iter (fun (k, ins) -> if ins then RB.insert t k (k * 3) else RB.remove t k) ops;
      let seen = ref [] in
      RB.iter_from t start (fun k v ->
          seen := (k, v) :: !seen;
          List.length !seen < limit);
      let expect =
        RB.to_list t
        |> List.filter (fun (k, _) -> k >= start)
        |> List.filteri (fun i _ -> i < limit)
      in
      List.rev !seen = expect)

let test_iter_from_edges () =
  let visit t start =
    let seen = ref [] in
    RB.iter_from t start (fun k _ ->
        seen := k :: !seen;
        true);
    List.rev !seen
  in
  let t = RB.create () in
  Alcotest.(check (list int)) "empty tree" [] (visit t 0);
  List.iter (fun k -> RB.insert t k ()) [ 10; 20; 30; 40 ];
  Alcotest.(check (list int)) "below min" [ 10; 20; 30; 40 ] (visit t 5);
  Alcotest.(check (list int)) "exact" [ 30; 40 ] (visit t 30);
  Alcotest.(check (list int)) "between" [ 40 ] (visit t 31);
  Alcotest.(check (list int)) "above max" [] (visit t 41);
  let first = ref [] in
  RB.iter_from t 0 (fun k _ ->
      first := k :: !first;
      false);
  Alcotest.(check (list int)) "stop at once" [ 10 ] !first

(* --- extent tree --- *)

let mib = Repro_util.Units.mib

let test_extent_coalesce () =
  let t = ET.create () in
  ET.insert_free t ~off:0 ~len:4096;
  ET.insert_free t ~off:8192 ~len:4096;
  Alcotest.(check int) "two extents" 2 (ET.extent_count t);
  ET.insert_free t ~off:4096 ~len:4096;
  Alcotest.(check int) "merged into one" 1 (ET.extent_count t);
  Alcotest.(check int) "total" 12288 (ET.total_free t);
  Alcotest.(check (list (pair int int))) "span" [ (0, 12288) ] (ET.to_list t)

let test_extent_double_free () =
  let t = ET.create () in
  ET.insert_free t ~off:0 ~len:8192;
  Alcotest.(check bool) "overlap rejected" true
    (match ET.insert_free t ~off:4096 ~len:4096 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_extent_alloc_modes () =
  let t = ET.create () in
  ET.insert_free t ~off:0 ~len:(1 * mib);
  ET.insert_free t ~off:(4 * mib) ~len:(8 * mib);
  (* first fit takes the low extent *)
  Alcotest.(check (option int)) "first fit" (Some 0) (ET.alloc_first_fit t ~len:4096);
  (* best fit takes the smallest sufficient *)
  Alcotest.(check (option int)) "best fit small" (Some 4096)
    (ET.alloc_best_fit t ~len:(mib - 4096));
  (* exact carve *)
  Alcotest.(check bool) "exact" true (ET.alloc_exact t ~off:(5 * mib) ~len:mib);
  Alcotest.(check bool) "exact taken" false (ET.alloc_exact t ~off:(5 * mib) ~len:mib);
  (* aligned carve *)
  let huge = Repro_util.Units.huge_page in
  (match ET.alloc_aligned t ~len:huge ~align:huge with
  | Some off -> Alcotest.(check bool) "aligned result" true (off mod huge = 0)
  | None -> Alcotest.fail "aligned alloc failed");
  match ET.check_invariants t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invariants: %s" m

let test_aligned_census () =
  let t = ET.create () in
  let huge = Repro_util.Units.huge_page in
  ET.insert_free t ~off:0 ~len:(3 * huge) (* 3 aligned regions *);
  ET.insert_free t ~off:(4 * huge) ~len:(huge + 4096) (* 1 aligned region + slack *);
  ET.insert_free t ~off:(7 * huge) ~len:(huge - 4096) (* too small: 0 *);
  Alcotest.(check int) "census" 4 (ET.aligned_region_count t ~align:huge)

let test_alloc_near () =
  let t = ET.create () in
  ET.insert_free t ~off:0 ~len:mib;
  ET.insert_free t ~off:(4 * mib) ~len:mib;
  Alcotest.(check (option int)) "near goal" (Some (4 * mib))
    (ET.alloc_near t ~goal:(3 * mib) ~len:4096);
  Alcotest.(check (option int)) "wraps when nothing after goal"
    (Some 0)
    (ET.alloc_near t ~goal:(100 * mib) ~len:mib)

(* Property: arbitrary alloc/free churn preserves invariants and accounting. *)
let prop_extent_churn =
  QCheck.Test.make ~name:"extent tree churn preserves invariants" ~count:100
    QCheck.(list (pair (int_bound 3) (int_range 1 32)))
    (fun ops ->
      let t = ET.create () in
      ET.insert_free t ~off:0 ~len:(256 * 4096);
      let held = ref [] in
      List.iter
        (fun (op, blocks) ->
          let len = blocks * 4096 in
          match op with
          | 0 -> (
              match ET.alloc_first_fit t ~len with
              | Some off -> held := (off, len) :: !held
              | None -> ())
          | 1 -> (
              match ET.alloc_best_fit t ~len with
              | Some off -> held := (off, len) :: !held
              | None -> ())
          | _ -> (
              match !held with
              | (off, len) :: rest ->
                  ET.insert_free t ~off ~len;
                  held := rest
              | [] -> ()))
        ops;
      let held_bytes = List.fold_left (fun a (_, l) -> a + l) 0 !held in
      (match ET.check_invariants t with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_reportf "invariant: %s" m);
      ET.total_free t + held_bytes = 256 * 4096)

let suite =
  [
    Alcotest.test_case "rbtree basics" `Quick test_basic;
    Alcotest.test_case "rbtree neighbours" `Quick test_neighbours;
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_successor;
    QCheck_alcotest.to_alcotest prop_iter_from;
    Alcotest.test_case "iter_from edges" `Quick test_iter_from_edges;
    Alcotest.test_case "extent coalescing" `Quick test_extent_coalesce;
    Alcotest.test_case "extent double free" `Quick test_extent_double_free;
    Alcotest.test_case "extent alloc modes" `Quick test_extent_alloc_modes;
    Alcotest.test_case "aligned census" `Quick test_aligned_census;
    Alcotest.test_case "alloc near goal" `Quick test_alloc_near;
    QCheck_alcotest.to_alcotest prop_extent_churn;
  ]
