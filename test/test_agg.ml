(* Tests for bags, aggregate functions, value functions, and AggCQ
   evaluation. *)

module Q = Aggshap_arith.Rational
module Bag = Aggshap_agg.Bag
module Aggregate = Aggshap_agg.Aggregate
module Value_fn = Aggshap_agg.Value_fn
module Agg_query = Aggshap_agg.Agg_query
module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact
module Catalog = Aggshap_workload.Catalog
module Eval = Aggshap_cq.Eval
module Trial = Aggshap_check.Trial

let bag_of_ints ns = Bag.of_list (List.map Q.of_int ns)

let check_q msg expected actual = Alcotest.(check string) msg expected (Q.to_string actual)

let test_bag () =
  let b = bag_of_ints [ 3; 1; 3; 2 ] in
  Alcotest.(check int) "size" 4 (Bag.size b);
  Alcotest.(check int) "distinct" 3 (Bag.distinct b);
  Alcotest.(check int) "multiplicity" 2 (Bag.multiplicity (Q.of_int 3) b);
  Alcotest.(check bool) "has duplicates" true (Bag.has_duplicates b);
  Alcotest.(check bool) "no duplicates" false (Bag.has_duplicates (bag_of_ints [ 1; 2 ]));
  Alcotest.(check (list string)) "elements sorted" [ "1"; "2"; "3"; "3" ]
    (List.map Q.to_string (Bag.elements b));
  let u = Bag.union b (bag_of_ints [ 3; 5 ]) in
  Alcotest.(check int) "union size" 6 (Bag.size u);
  Alcotest.(check int) "union multiplicity" 3 (Bag.multiplicity (Q.of_int 3) u);
  Alcotest.check_raises "negative multiplicity"
    (Invalid_argument "Bag.add: negative multiplicity") (fun () ->
      ignore (Bag.add ~mult:(-1) Q.one Bag.empty))

let test_aggregates_on_empty () =
  List.iter
    (fun alpha ->
      check_q (Aggregate.to_string alpha ^ " on empty") "0"
        (Aggregate.apply alpha Bag.empty))
    Aggregate.all

let test_aggregates () =
  let b = bag_of_ints [ 3; 1; 3; 2 ] in
  check_q "sum" "9" (Aggregate.apply Aggregate.Sum b);
  check_q "count" "4" (Aggregate.apply Aggregate.Count b);
  check_q "count-distinct" "3" (Aggregate.apply Aggregate.Count_distinct b);
  check_q "min" "1" (Aggregate.apply Aggregate.Min b);
  check_q "max" "3" (Aggregate.apply Aggregate.Max b);
  check_q "avg" "9/4" (Aggregate.apply Aggregate.Avg b);
  check_q "median even" "5/2" (Aggregate.apply Aggregate.Median b);
  check_q "median odd" "2" (Aggregate.apply Aggregate.Median (bag_of_ints [ 1; 2; 3 ]));
  check_q "dup" "1" (Aggregate.apply Aggregate.Has_duplicates b);
  check_q "no dup" "0" (Aggregate.apply Aggregate.Has_duplicates (bag_of_ints [ 1; 2 ]))

let test_quantiles () =
  let b = bag_of_ints [ 10; 20; 30; 40 ] in
  check_q "q=1/4" "15" (Aggregate.apply (Aggregate.Quantile (Q.of_ints 1 4)) b);
  check_q "q=1/2" "25" (Aggregate.apply (Aggregate.Quantile Q.half) b);
  check_q "q=3/4" "35" (Aggregate.apply (Aggregate.Quantile (Q.of_ints 3 4)) b);
  (* Median of a single element. *)
  check_q "singleton" "7" (Aggregate.apply Aggregate.Median (bag_of_ints [ 7 ]))

let test_constant_per_singleton () =
  let expected =
    [ (Aggregate.Sum, false); (Aggregate.Count, false);
      (Aggregate.Count_distinct, true); (Aggregate.Min, true);
      (Aggregate.Max, true); (Aggregate.Avg, true); (Aggregate.Median, true);
      (Aggregate.Has_duplicates, false) ]
  in
  List.iter
    (fun (alpha, want) ->
      Alcotest.(check bool) (Aggregate.to_string alpha) want
        (Aggregate.is_constant_per_singleton alpha))
    expected

let test_aggregate_strings () =
  List.iter
    (fun alpha ->
      match Aggregate.of_string (Aggregate.to_string alpha) with
      | Ok alpha' ->
        Alcotest.(check string) "roundtrip" (Aggregate.to_string alpha)
          (Aggregate.to_string alpha')
      | Error msg -> Alcotest.fail msg)
    (Aggregate.Quantile (Q.of_ints 1 3) :: Aggregate.all);
  (match Aggregate.of_string "quantile:7/2" with
   | Ok _ -> Alcotest.fail "quantile out of range accepted"
   | Error _ -> ())

let test_value_fns () =
  let args = [| Aggshap_relational.Value.Int (-5); Aggshap_relational.Value.Int 3 |] in
  check_q "id" "-5" (Value_fn.apply (Value_fn.id ~rel:"R" ~pos:0) args);
  check_q "gt true" "1" (Value_fn.apply (Value_fn.gt ~rel:"R" ~pos:1 Q.zero) args);
  check_q "gt false" "0" (Value_fn.apply (Value_fn.gt ~rel:"R" ~pos:0 Q.zero) args);
  check_q "relu clamps" "0" (Value_fn.apply (Value_fn.relu ~rel:"R" ~pos:0) args);
  check_q "relu passes" "3" (Value_fn.apply (Value_fn.relu ~rel:"R" ~pos:1) args);
  check_q "const" "9" (Value_fn.apply (Value_fn.const ~rel:"R" (Q.of_int 9)) args)

(* AggCQ evaluation on the running example: average over a query with a
   projection (a person taking two courses counts once). *)
let course_db =
  Database.of_facts ~provenance:Database.Exogenous
    [ Fact.of_ints "Earns" [ 1; 100 ];
      Fact.of_ints "Earns" [ 2; 200 ];
      Fact.of_ints "Took" [ 1; 7 ];
      Fact.of_ints "Took" [ 1; 8 ];
      Fact.of_ints "Took" [ 2; 7 ];
      Fact.of_ints "Course" [ 70; 7 ];
      Fact.of_ints "Course" [ 80; 8 ];
    ]

let avg_salary =
  Agg_query.make Aggregate.Avg (Value_fn.id ~rel:"Earns" ~pos:1) Catalog.q_course

let test_agg_query_eval () =
  check_q "average salary" "150" (Agg_query.eval avg_salary course_db);
  let bag = Agg_query.answer_bag avg_salary course_db in
  Alcotest.(check int) "one value per person" 2 (Bag.size bag);
  (* Empty database evaluates to α(∅) = 0. *)
  check_q "empty" "0" (Agg_query.eval avg_salary Database.empty)

let test_agg_query_validation () =
  Alcotest.check_raises "τ must be localized on an atom of Q"
    (Invalid_argument
       "Agg_query.make: τ is localized on Nope, not an atom of Q(p, s) <- Earns(p, s), \
        Took(p, c), Course(n, c)") (fun () ->
      ignore (Agg_query.make Aggregate.Avg (Value_fn.id ~rel:"Nope" ~pos:0) Catalog.q_course))

let test_localization_violation () =
  (* Q(x) <- R(x,y), S(y) with τ = id on R's second column: the answer
     x=1 is produced by two homomorphisms with different τ-values. *)
  let q = Catalog.q_xyy in
  let a = Agg_query.make Aggregate.Max (Value_fn.id ~rel:"R" ~pos:1) q in
  let db =
    Database.of_facts
      [ Fact.of_ints "R" [ 1; 10 ]; Fact.of_ints "R" [ 1; 20 ];
        Fact.of_ints "S" [ 10 ]; Fact.of_ints "S" [ 20 ] ]
  in
  (try
     ignore (Agg_query.answer_bag a db);
     Alcotest.fail "expected a localization error"
   with Invalid_argument _ -> ());
  (* With τ on S instead, the same database is fine. *)
  let a2 = Agg_query.make Aggregate.Max (Value_fn.id ~rel:"S" ~pos:0) q in
  (* Hmm: S-localized τ on q_xyy is still answer-ambiguous for x=1. *)
  (try ignore (Agg_query.answer_bag a2 db); Alcotest.fail "expected a localization error"
   with Invalid_argument _ -> ());
  (* A genuinely localized τ: constant. *)
  let a3 = Agg_query.make Aggregate.Max (Value_fn.const ~rel:"R" Q.one) q in
  check_q "constant τ" "1" (Agg_query.eval a3 db)

(* [eval_via] with the planned visitor is [eval]; with the scan visitor
   it agrees on every random trial and never touches an index (the
   differential oracle relies on both). *)
let test_eval_via () =
  let check_trial seed =
    let t = Trial.generate ~max_endo:6 ~seed () in
    let a = Trial.agg_query t in
    let expected = Agg_query.eval a t.Trial.db in
    check_q "planned visitor" (Q.to_string expected)
      (Agg_query.eval_via Eval.visit_homomorphisms a t.Trial.db);
    let fresh =
      Database.of_list (Database.fold (fun f p acc -> (f, p) :: acc) t.Trial.db [])
    in
    Database.reset_stats ();
    let via_scan = Agg_query.eval_via Eval.Legacy.visit_homomorphisms a fresh in
    let s = Database.stats () in
    check_q (Printf.sprintf "seed %d: scan visitor" seed) (Q.to_string expected) via_scan;
    Alcotest.(check int) "scan builds no index" 0 s.Database.index_builds;
    Alcotest.(check int) "scan probes no index" 0 s.Database.index_probes
  in
  for seed = 0 to 59 do
    check_trial seed
  done;
  Database.reset_stats ()

(* The scan visitor reports a non-localized τ like the planned one. *)
let test_eval_via_localization () =
  let a = Agg_query.make Aggregate.Max (Value_fn.id ~rel:"R" ~pos:1) Catalog.q_xyy in
  let db =
    Database.of_facts
      [ Fact.of_ints "R" [ 1; 10 ]; Fact.of_ints "R" [ 1; 20 ];
        Fact.of_ints "S" [ 10 ]; Fact.of_ints "S" [ 20 ] ]
  in
  match Agg_query.eval_via Eval.Legacy.visit_homomorphisms a db with
  | _ -> Alcotest.fail "expected a localization error"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "agg"
    [ ( "bags",
        [ Alcotest.test_case "bag operations" `Quick test_bag ] );
      ( "aggregates",
        [ Alcotest.test_case "empty bag" `Quick test_aggregates_on_empty;
          Alcotest.test_case "values" `Quick test_aggregates;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "constant per singleton" `Quick test_constant_per_singleton;
          Alcotest.test_case "string roundtrip" `Quick test_aggregate_strings;
        ] );
      ( "value functions",
        [ Alcotest.test_case "builtins" `Quick test_value_fns ] );
      ( "agg queries",
        [ Alcotest.test_case "evaluation" `Quick test_agg_query_eval;
          Alcotest.test_case "validation" `Quick test_agg_query_validation;
          Alcotest.test_case "localization check" `Quick test_localization_violation;
          Alcotest.test_case "eval_via: planned and scan visitors" `Quick test_eval_via;
          Alcotest.test_case "eval_via: scan visitor checks localization" `Quick
            test_eval_via_localization;
        ] );
    ]
