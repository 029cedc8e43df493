(* Property tests (qcheck) for the core data structures, corner-case
   scenario tests for the solvers (empty databases, fully exogenous
   databases, irrelevant facts, tiny instances), and the Shapley-axiom
   invariants (efficiency, null player, symmetry) for all six frontier
   DP families on the fixed-seed fuzz corpus. *)

module B = Aggshap_arith.Bigint
module Q = Aggshap_arith.Rational
module C = Aggshap_arith.Combinat
module Bag = Aggshap_agg.Bag
module Tables = Aggshap_core.Tables
module Cq = Aggshap_cq.Cq
module Parser = Aggshap_cq.Parser
module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact
module Aggregate = Aggshap_agg.Aggregate
module Value_fn = Aggshap_agg.Value_fn
module Agg_query = Aggshap_agg.Agg_query
module Core = Aggshap_core
module Catalog = Aggshap_workload.Catalog

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* ------------------------------------------------------------------ *)
(* Bags                                                                *)
(* ------------------------------------------------------------------ *)

let arb_int_list = QCheck.(list_of_size (Gen.int_range 0 20) (int_range (-10) 10))

let bag_of ns = Bag.of_list (List.map Q.of_int ns)

let bag_props =
  [ prop "bag size = list length" 300 arb_int_list (fun ns ->
        Bag.size (bag_of ns) = List.length ns);
    prop "union sizes add" 300 QCheck.(pair arb_int_list arb_int_list) (fun (a, b) ->
        Bag.size (Bag.union (bag_of a) (bag_of b)) = List.length a + List.length b);
    prop "multiplicity counts occurrences" 300 QCheck.(pair arb_int_list (int_range (-10) 10))
      (fun (ns, x) ->
        Bag.multiplicity (Q.of_int x) (bag_of ns)
        = List.length (List.filter (Int.equal x) ns));
    prop "elements sorted and complete" 300 arb_int_list (fun ns ->
        let es = Bag.elements (bag_of ns) in
        List.length es = List.length ns
        && List.sort Q.compare es = es);
    prop "sum matches fold" 300 arb_int_list (fun ns ->
        Q.equal (Bag.sum (bag_of ns)) (Q.of_int (List.fold_left ( + ) 0 ns)));
    prop "has_duplicates iff some repeat" 300 arb_int_list (fun ns ->
        Bag.has_duplicates (bag_of ns)
        = List.exists
            (fun x -> List.length (List.filter (Int.equal x) ns) >= 2)
            (List.sort_uniq Stdlib.compare ns));
    prop "aggregate on bag = aggregate on sorted list" 200 arb_int_list (fun ns ->
        QCheck.assume (ns <> []);
        let b = bag_of ns in
        let sorted = List.sort Stdlib.compare ns in
        Q.equal (Aggregate.apply Aggregate.Min b) (Q.of_int (List.hd sorted))
        && Q.equal (Aggregate.apply Aggregate.Max b) (Q.of_int (List.nth sorted (List.length ns - 1)))
        && Q.equal (Aggregate.apply Aggregate.Count b) (Q.of_int (List.length ns)));
    prop "quantile between min and max" 200
      QCheck.(pair arb_int_list (int_range 1 9))
      (fun (ns, tenths) ->
        QCheck.assume (ns <> []);
        let b = bag_of ns in
        let q = Aggregate.apply (Aggregate.Quantile (Q.of_ints tenths 10)) b in
        Q.compare (Aggregate.apply Aggregate.Min b) q <= 0
        && Q.compare q (Aggregate.apply Aggregate.Max b) <= 0);
  ]

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

let arb_counts =
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 6 in
      let* entries = list_size (return (n + 1)) (int_range 0 50) in
      return (Array.of_list (List.map B.of_int entries)))
  in
  QCheck.make gen ~print:(fun c ->
      String.concat ";" (Array.to_list (Array.map B.to_string c)))

let tables_props =
  [ prop "full sums to 2^n" 50 (QCheck.int_range 0 20) (fun n ->
        B.equal (Tables.total (Tables.full n)) (B.pow B.two n));
    prop "convolve total multiplies" 200 QCheck.(pair arb_counts arb_counts)
      (fun (a, b) ->
        B.equal
          (Tables.total (Tables.convolve a b))
          (B.mul (Tables.total a) (Tables.total b)));
    prop "convolve with delta shifts" 200 arb_counts (fun a ->
        let shifted = Tables.convolve a (Tables.delta 1 1) in
        Array.length shifted = Array.length a + 1
        && B.is_zero shifted.(0)
        && Array.for_all2 B.equal a (Array.sub shifted 1 (Array.length a)));
    prop "pad preserves full" 100 QCheck.(pair (int_range 0 8) (int_range 0 8))
      (fun (n, p) ->
        let padded = Tables.pad p (Tables.full n) in
        Array.for_all2 B.equal padded (Tables.full (n + p)));
    prop "complement is involutive" 200 arb_counts (fun a ->
        let n = Array.length a - 1 in
        QCheck.assume (n >= 0);
        Array.for_all2 B.equal a (Tables.complement n (Tables.complement n a)));
    (* The balanced-tree reduction must be bit-identical to the plain
       left fold it replaced in the DP block combiners. *)
    prop "convolve_many = left fold of convolve" 200
      QCheck.(list_of_size (Gen.int_range 0 8) arb_counts)
      (fun ts ->
        let tree = Tables.convolve_many ts in
        let fold =
          match ts with
          | [] -> [| B.one |]
          | t :: rest -> List.fold_left Tables.convolve t rest
        in
        Array.length tree = Array.length fold && Array.for_all2 B.equal tree fold);
    (* Same for the common-denominator weighted sum vs the naive
       scale-and-add loop it replaced. *)
    prop "weighted_sum = fold of scale_to/add_rat" 200
      QCheck.(pair (int_range 0 6)
                (list_of_size (Gen.int_range 0 6)
                   (pair (pair (int_range (-20) 20) (int_range 1 20))
                      (list_of_size (Gen.return 7) (int_range 0 50)))))
      (fun (_, raw) ->
        let n = 6 in
        let pairs =
          List.map
            (fun ((num, den), entries) ->
              (Q.of_ints num den, Array.of_list (List.map B.of_int entries)))
            raw
        in
        let fast = Tables.weighted_sum n pairs in
        let reference =
          List.fold_left
            (fun acc (w, c) -> Tables.add_rat acc (Tables.scale_to w c))
            (Tables.zeros_rat n) pairs
        in
        Array.for_all2 Q.equal fast reference);
  ]

(* ------------------------------------------------------------------ *)
(* Corner cases for the solvers                                        *)
(* ------------------------------------------------------------------ *)

let vid rel pos = Value_fn.id ~rel ~pos

let a_max = Agg_query.make Aggregate.Max (vid "R" 0) Catalog.q_xyy
let a_avg = Agg_query.make Aggregate.Avg (vid "R" 0) Catalog.q_xyy_full
let a_dup =
  Agg_query.make Aggregate.Has_duplicates
    (Value_fn.custom ~rel:"R" ~descr:"mod2" (fun args ->
         match Aggshap_relational.Value.as_int args.(0) with
         | Some n -> Q.of_int (n mod 2)
         | None -> Q.zero))
    Catalog.q1_sq

let test_empty_database () =
  (* sum_k on an empty database is the single entry [A(∅)] = 0. *)
  let empty = Database.empty in
  List.iter
    (fun sum_k ->
      let v = sum_k empty in
      Alcotest.(check int) "length" 1 (Array.length v);
      Alcotest.(check string) "value" "0" (Q.to_string v.(0)))
    [ Core.Minmax.sum_k a_max; Core.Avg_quantile.sum_k a_avg; Core.Dup.sum_k a_dup ]

let test_single_fact () =
  (* One endogenous fact and nothing else: it can never produce an
     answer (the S-side is missing), so its Shapley value is 0. *)
  let f = Fact.of_ints "R" [ 1; 2 ] in
  let db = Database.of_facts [ f ] in
  Alcotest.(check string) "max" "0" (Q.to_string (Core.Minmax.shapley a_max db f));
  (* With the matching S fact exogenous, the single fact carries the
     whole value. *)
  let db2 = Database.add ~provenance:Database.Exogenous (Fact.of_ints "S" [ 2 ]) db in
  Alcotest.(check string) "max with support" "1"
    (Q.to_string (Core.Minmax.shapley a_max db2 f))

let test_all_exogenous_but_one () =
  (* Everything exogenous except one fact: Shapley = marginal change. *)
  let f = Fact.of_ints "R" [ 5; 2 ] in
  let db =
    Database.of_facts ~provenance:Database.Exogenous
      [ Fact.of_ints "R" [ 1; 2 ]; Fact.of_ints "S" [ 2 ] ]
    |> Database.add f
  in
  (* A({f} ∪ Dx) = max{1,5} = 5; A(Dx) = 1; marginal = 4. *)
  Alcotest.(check string) "marginal" "4" (Q.to_string (Core.Minmax.shapley a_max db f))

let test_irrelevant_relations () =
  (* Facts of relations absent from the query are null players and do
     not perturb the others. *)
  let f = Fact.of_ints "R" [ 3; 2 ] in
  let base =
    Database.of_facts [ f; Fact.of_ints "S" [ 2 ] ]
  in
  let noisy =
    base
    |> Database.add (Fact.of_ints "Noise" [ 1 ])
    |> Database.add (Fact.of_ints "Noise" [ 2 ])
    |> Database.add (Fact.of_ints "R" [ 9 ]) (* wrong arity: can't match *)
  in
  let v_base = Core.Minmax.shapley a_max base f in
  let v_noisy = Core.Minmax.shapley a_max noisy f in
  Alcotest.(check string) "null players don't change the value" (Q.to_string v_base)
    (Q.to_string v_noisy);
  List.iter
    (fun g ->
      if not (Fact.equal g f) && not (String.equal g.Fact.rel "S") then
        Alcotest.(check string)
          ("null player " ^ Fact.to_string g)
          "0"
          (Q.to_string (Core.Minmax.shapley a_max noisy g)))
    (Database.endogenous noisy)

let test_exogenous_only_game () =
  (* No endogenous facts: there is no game; sum_k has a single entry
     A(Dˣ). *)
  let db =
    Database.of_facts ~provenance:Database.Exogenous
      [ Fact.of_ints "R" [ 7; 2 ]; Fact.of_ints "S" [ 2 ] ]
  in
  let v = Core.Minmax.sum_k a_max db in
  Alcotest.(check int) "length" 1 (Array.length v);
  Alcotest.(check string) "value" "7" (Q.to_string v.(0))

let test_solver_rejects_non_endogenous () =
  let f = Fact.of_ints "R" [ 1; 2 ] in
  let db = Database.of_facts ~provenance:Database.Exogenous [ f ] in
  Alcotest.(check bool) "raises" true
    (try ignore (Core.Minmax.shapley a_max db f); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "raises on absent fact" true
    (try ignore (Core.Minmax.shapley a_max db (Fact.of_ints "R" [ 9; 9 ])); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Shapley-axiom invariants per frontier DP family, on the corpus      *)
(* ------------------------------------------------------------------ *)

module CheckTrial = Aggshap_check.Trial
module CheckOracle = Aggshap_check.Oracle
module CheckFuzz = Aggshap_check.Fuzz
module Generate = Aggshap_workload.Generate

let corpus_seeds =
  lazy
    (let ic = open_in "fuzz.corpus" in
     let n = in_channel_length ic in
     let contents = really_input_string ic n in
     close_in ic;
     CheckFuzz.parse_corpus contents)

(* One representative query per frontier class, each within the family's
   frontier, with a τ localized at a free-variable position. The oracle
   checks efficiency (Σφ = v(N) − v(∅)), null player, and symmetry —
   plus full agreement with naive enumeration — per corpus seed. *)
let invariant_families =
  [ ("sum on q_exists", Aggregate.Sum, Catalog.q_exists, CheckTrial.Id ("R", 0));
    ("count on q_exists", Aggregate.Count, Catalog.q_exists, CheckTrial.Const ("R", Q.one));
    ("count-distinct on q_xyy", Aggregate.Count_distinct, Catalog.q_xyy, CheckTrial.Id ("R", 0));
    ("min on q_xyy", Aggregate.Min, Catalog.q_xyy, CheckTrial.Id ("R", 0));
    ("max on q_xyy", Aggregate.Max, Catalog.q_xyy, CheckTrial.Relu ("R", 0));
    ("avg on q_xyy_full", Aggregate.Avg, Catalog.q_xyy_full, CheckTrial.Id ("R", 0));
    ("median on q_xyy_full", Aggregate.Median, Catalog.q_xyy_full, CheckTrial.Id ("R", 1));
    ( "quantile on q_xyy_full",
      Aggregate.Quantile (Q.of_ints 1 4),
      Catalog.q_xyy_full,
      CheckTrial.Id ("R", 0) );
    ( "has-duplicates on q1_sq",
      Aggregate.Has_duplicates,
      Catalog.q1_sq,
      CheckTrial.Gt ("R", 0, Q.zero) );
  ]

let invariant_db_config = { Generate.tuples_per_relation = 3; domain = 3; exo_fraction = 0.25 }

let invariant_case (name, alpha, query, tau) =
  Alcotest.test_case name `Slow (fun () ->
      Alcotest.(check bool) "family query is within its frontier" true
        (Core.Solver.within_frontier alpha query);
      let seeds = List.filteri (fun i _ -> i < 25) (Lazy.force corpus_seeds) in
      List.iter
        (fun seed ->
          let db = Generate.random_database ~seed ~config:invariant_db_config query in
          let trial = { CheckTrial.seed; query; db; alpha; tau } in
          match CheckOracle.run trial with
          | None -> ()
          | Some f ->
            Alcotest.failf "%s, corpus seed %d: %s" name seed
              (CheckOracle.failure_to_string f))
        seeds)

let invariant_tests = List.map invariant_case invariant_families

let () =
  Alcotest.run "props"
    [ ("bag properties", bag_props);
      ("table properties", tables_props);
      ("frontier DP invariants (fuzz corpus)", invariant_tests);
      ( "solver corner cases",
        [ Alcotest.test_case "empty database" `Quick test_empty_database;
          Alcotest.test_case "single fact" `Quick test_single_fact;
          Alcotest.test_case "all exogenous but one" `Quick test_all_exogenous_but_one;
          Alcotest.test_case "irrelevant relations" `Quick test_irrelevant_relations;
          Alcotest.test_case "exogenous-only database" `Quick test_exogenous_only_game;
          Alcotest.test_case "non-endogenous facts rejected" `Quick
            test_solver_rejects_non_endogenous;
        ] );
    ]
