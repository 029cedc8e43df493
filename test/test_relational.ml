(* Tests for values, facts and databases with provenance. *)

module Value = Aggshap_relational.Value
module Fact = Aggshap_relational.Fact
module Database = Aggshap_relational.Database
module Fault = Aggshap_arith.Fault

let f_r12 = Fact.of_ints "R" [ 1; 2 ]
let f_r13 = Fact.of_ints "R" [ 1; 3 ]
let f_s1 = Fact.of_ints "S" [ 1 ]
let f_mixed = Fact.make "T" [ Value.Int 1; Value.Str "alice" ]

let test_values () =
  Alcotest.(check bool) "int equal" true (Value.equal (Value.Int 3) (Value.Int 3));
  Alcotest.(check bool) "int/str differ" false (Value.equal (Value.Int 3) (Value.Str "3"));
  Alcotest.(check string) "to_string int" "-7" (Value.to_string (Value.Int (-7)));
  Alcotest.(check string) "to_string str" "bob" (Value.to_string (Value.Str "bob"));
  Alcotest.(check bool) "of_string int" true (Value.of_string "42" = Value.Int 42);
  Alcotest.(check bool) "of_string str" true (Value.of_string "x42" = Value.Str "x42");
  Alcotest.(check (option int)) "as_int" (Some 5) (Value.as_int (Value.Int 5));
  Alcotest.(check (option int)) "as_int str" None (Value.as_int (Value.Str "5"))

let test_facts () =
  Alcotest.(check string) "to_string" "R(1, 2)" (Fact.to_string f_r12);
  Alcotest.(check string) "mixed" "T(1, alice)" (Fact.to_string f_mixed);
  Alcotest.(check int) "arity" 2 (Fact.arity f_r12);
  Alcotest.(check bool) "equal" true (Fact.equal f_r12 (Fact.of_ints "R" [ 1; 2 ]));
  Alcotest.(check bool) "differ by args" false (Fact.equal f_r12 f_r13);
  Alcotest.(check bool) "compare orders by relation first" true
    (Fact.compare f_r12 f_s1 < 0)

let sample_db () =
  Database.empty
  |> Database.add f_r12
  |> Database.add ~provenance:Database.Exogenous f_r13
  |> Database.add f_s1

let test_database_basic () =
  let db = sample_db () in
  Alcotest.(check int) "size" 3 (Database.size db);
  Alcotest.(check int) "endo size" 2 (Database.endo_size db);
  Alcotest.(check int) "endogenous" 2 (List.length (Database.endogenous db));
  Alcotest.(check int) "exogenous" 1 (List.length (Database.exogenous db));
  Alcotest.(check bool) "mem" true (Database.mem f_r13 db);
  Alcotest.(check bool) "provenance" true
    (Database.provenance db f_r13 = Some Database.Exogenous);
  Alcotest.(check (list string)) "relations" [ "R"; "S" ] (Database.relations db);
  Alcotest.(check int) "relation R" 2 (List.length (Database.relation db "R"))

let test_database_updates () =
  let db = sample_db () in
  let db2 = Database.set_provenance Database.Exogenous f_r12 db in
  Alcotest.(check int) "endo after set_provenance" 1 (Database.endo_size db2);
  Alcotest.(check int) "original untouched (persistence)" 2 (Database.endo_size db);
  let db3 = Database.remove f_s1 db in
  Alcotest.(check int) "remove" 2 (Database.size db3);
  Alcotest.check_raises "set_provenance on absent fact" Not_found (fun () ->
      ignore (Database.set_provenance Database.Endogenous (Fact.of_ints "Z" [ 0 ]) db));
  (* Re-adding overwrites provenance. *)
  let db4 = Database.add ~provenance:Database.Exogenous f_s1 db in
  Alcotest.(check int) "overwrite provenance" 1 (Database.endo_size db4);
  Alcotest.(check int) "overwrite keeps size" 3 (Database.size db4)

let test_database_split () =
  let db = sample_db () in
  let rs, rest = Database.restrict_relations [ "R" ] db in
  Alcotest.(check int) "restrict R" 2 (Database.size rs);
  Alcotest.(check int) "rest" 1 (Database.size rest);
  let endo_only = Database.filter (fun _ p -> p = Database.Endogenous) db in
  Alcotest.(check int) "filter endo" 2 (Database.size endo_only);
  let u = Database.union rs rest in
  Alcotest.(check bool) "union restores" true (Database.equal u db)

(* Both accumulator views are segment reads, not whole-database
   rebuilds; they must stay sorted, duplicate-free, and cheap on a
   database with many relations. *)
let test_relations_accumulators () =
  let names = List.init 26 (fun i -> String.make 1 (Char.chr (Char.code 'A' + i))) in
  let db =
    List.fold_left
      (fun acc name ->
        List.fold_left
          (fun acc k -> Database.add (Fact.of_ints name [ k ]) acc)
          acc [ 1; 2; 3 ])
      Database.empty names
  in
  let rels = Database.relations db in
  Alcotest.(check (list string)) "relations sorted, no duplicates" names rels;
  Alcotest.(check int) "size" 78 (Database.size db);
  let picked, rest = Database.restrict_relations [ "C"; "A"; "Z" ] db in
  Alcotest.(check (list string)) "restricted segments" [ "A"; "C"; "Z" ]
    (Database.relations picked);
  Alcotest.(check int) "restricted size" 9 (Database.size picked);
  Alcotest.(check int) "rest size" 69 (Database.size rest);
  Alcotest.(check bool) "union restores" true
    (Database.equal (Database.union picked rest) db)

(* ------------------------------------------------------------------ *)
(* Secondary indexes                                                   *)
(* ------------------------------------------------------------------ *)

let indexed_db () =
  Database.empty
  |> Database.add f_r12
  |> Database.add f_r13
  |> Database.add ~provenance:Database.Exogenous (Fact.of_ints "R" [ 2; 2 ])
  |> Database.add f_s1
  |> Database.add (Fact.of_ints "R" [ 7 ]) (* arity 1: invisible at pos 1 *)

let probe_strings db ~rel ~pos v =
  List.map Fact.to_string (Database.probe db ~rel ~pos (Value.Int v))

let test_index_probe () =
  let db = indexed_db () in
  Alcotest.(check (list string)) "R by pos 0 = 1" [ "R(1, 2)"; "R(1, 3)" ]
    (probe_strings db ~rel:"R" ~pos:0 1);
  Alcotest.(check (list string)) "R by pos 1 = 2" [ "R(1, 2)"; "R(2, 2)" ]
    (probe_strings db ~rel:"R" ~pos:1 2);
  Alcotest.(check (list string)) "miss" [] (probe_strings db ~rel:"R" ~pos:0 9);
  Alcotest.(check (list string)) "unknown relation" []
    (probe_strings db ~rel:"Z" ~pos:0 1);
  (* The full index groups every value, keeps provenance, and skips
     facts too short for the position. *)
  let idx = Database.indexed db ~rel:"R" ~pos:1 in
  Alcotest.(check int) "groups at pos 1" 2 (Database.ValueMap.cardinal idx);
  let group = Database.ValueMap.find (Value.Int 2) idx in
  Alcotest.(check (option bool)) "provenance survives" (Some true)
    (Option.map
       (fun p -> p = Database.Exogenous)
       (Database.FactMap.find_opt (Fact.of_ints "R" [ 2; 2 ]) group))

let test_index_maintenance () =
  let db = indexed_db () in
  (* Build the index, then update: the derivative must see the change,
     the parent must not. *)
  ignore (Database.probe db ~rel:"R" ~pos:0 (Value.Int 1));
  let db2 = Database.remove f_r13 db in
  Alcotest.(check (list string)) "removed from derived index" [ "R(1, 2)" ]
    (probe_strings db2 ~rel:"R" ~pos:0 1);
  Alcotest.(check (list string)) "parent index untouched" [ "R(1, 2)"; "R(1, 3)" ]
    (probe_strings db ~rel:"R" ~pos:0 1);
  let db3 = Database.add (Fact.of_ints "R" [ 1; 9 ]) db2 in
  Alcotest.(check (list string)) "added to derived index" [ "R(1, 2)"; "R(1, 9)" ]
    (probe_strings db3 ~rel:"R" ~pos:0 1);
  let db4 = Database.set_provenance Database.Exogenous f_r12 db3 in
  let group =
    Database.ValueMap.find (Value.Int 1) (Database.indexed db4 ~rel:"R" ~pos:0)
  in
  Alcotest.(check (option bool)) "set_provenance updates the index" (Some true)
    (Option.map
       (fun p -> p = Database.Exogenous)
       (Database.FactMap.find_opt f_r12 group))

let test_index_counters () =
  Database.reset_stats ();
  let db = indexed_db () in
  ignore (Database.probe db ~rel:"R" ~pos:0 (Value.Int 1));
  ignore (Database.probe db ~rel:"R" ~pos:0 (Value.Int 2));
  ignore (Database.relation db "S");
  let s = Database.stats () in
  Alcotest.(check int) "one build serves both probes" 1 s.Database.index_builds;
  Alcotest.(check int) "probes counted" 2 s.Database.index_probes;
  Alcotest.(check int) "scans counted" 1 s.Database.rel_scans;
  Database.reset_stats ()

(* The `Stale_index fault: updates keep the parent's built indexes
   verbatim. The directed reproducer pins the observable symptom — the
   segments are correct while a probe still returns the removed fact. *)
let test_stale_index_fault () =
  assert (!Fault.current = `None);
  let db = indexed_db () in
  ignore (Database.probe db ~rel:"R" ~pos:0 (Value.Int 1));
  Fault.current := `Stale_index;
  Fun.protect
    ~finally:(fun () -> Fault.current := `None)
    (fun () ->
      let db2 = Database.remove f_r13 db in
      Alcotest.(check bool) "segments are correct" false (Database.mem f_r13 db2);
      Alcotest.(check (list string)) "probe serves the stale group"
        [ "R(1, 2)"; "R(1, 3)" ]
        (probe_strings db2 ~rel:"R" ~pos:0 1));
  (* With the fault cleared the same update maintains the index. *)
  let db3 = Database.remove f_r13 db in
  Alcotest.(check (list string)) "clean update is correct" [ "R(1, 2)" ]
    (probe_strings db3 ~rel:"R" ~pos:0 1)

let test_cached_digest () =
  let db = indexed_db () in
  let computations = ref 0 in
  let compute db =
    incr computations;
    String.concat ";" (List.map Fact.to_string (Database.facts db))
  in
  let d1 = Database.cached_digest db compute in
  let d2 = Database.cached_digest db compute in
  Alcotest.(check string) "stable" d1 d2;
  Alcotest.(check int) "computed once" 1 !computations;
  Alcotest.(check bool) "derived database digests fresh" true
    (Database.cached_digest (Database.remove f_r13 db) compute <> d1)

module Schema = Aggshap_relational.Schema

let test_schema () =
  let s = Schema.of_list [ ("R", 2); ("S", 1) ] in
  Alcotest.(check (option int)) "arity R" (Some 2) (Schema.arity s "R");
  Alcotest.(check (option int)) "arity missing" None (Schema.arity s "T");
  Alcotest.(check bool) "mem" true (Schema.mem s "S");
  Alcotest.(check int) "relations" 2 (List.length (Schema.relations s));
  Alcotest.(check bool) "conflicting declare raises" true
    (try ignore (Schema.declare "R" 3 s); false with Invalid_argument _ -> true);
  (* Idempotent re-declaration. *)
  Alcotest.(check int) "re-declare" 2 (List.length (Schema.relations (Schema.declare "R" 2 s)));
  let merged = Schema.merge s (Schema.of_list [ ("T", 3) ]) in
  Alcotest.(check int) "merge" 3 (List.length (Schema.relations merged))

let test_schema_validation () =
  let s = Schema.of_list [ ("R", 2); ("S", 1) ] in
  Alcotest.(check bool) "good fact" true (Schema.check_fact s f_r12 = Ok ());
  (match Schema.check_fact s (Fact.of_ints "R" [ 1 ]) with
   | Ok () -> Alcotest.fail "wrong arity accepted"
   | Error _ -> ());
  (match Schema.check_fact s (Fact.of_ints "Z" [ 1 ]) with
   | Ok () -> Alcotest.fail "unknown relation accepted"
   | Error _ -> ());
  let bad_db = Database.of_facts [ f_r12; Fact.of_ints "R" [ 9 ]; Fact.of_ints "Z" [ 0 ] ] in
  (match Schema.check_database s bad_db with
   | Ok () -> Alcotest.fail "violations not reported"
   | Error msgs -> Alcotest.(check int) "two violations" 2 (List.length msgs));
  Alcotest.(check bool) "clean database" true
    (Schema.check_database s (sample_db ()) = Ok ())

let test_induced_schema () =
  let q = Aggshap_cq.Parser.parse_query_exn "Q(x) <- R(x, y), S(y)" in
  let s = Aggshap_cq.Cq.induced_schema q in
  Alcotest.(check (option int)) "R/2" (Some 2) (Schema.arity s "R");
  Alcotest.(check (option int)) "S/1" (Some 1) (Schema.arity s "S")

let () =
  Alcotest.run "relational"
    [ ( "relational",
        [ Alcotest.test_case "values" `Quick test_values;
          Alcotest.test_case "facts" `Quick test_facts;
          Alcotest.test_case "database basics" `Quick test_database_basic;
          Alcotest.test_case "database updates" `Quick test_database_updates;
          Alcotest.test_case "database split" `Quick test_database_split;
          Alcotest.test_case "accumulator views" `Quick test_relations_accumulators;
        ] );
      ( "secondary indexes",
        [ Alcotest.test_case "probe and grouping" `Quick test_index_probe;
          Alcotest.test_case "incremental maintenance" `Quick test_index_maintenance;
          Alcotest.test_case "kernel counters" `Quick test_index_counters;
          Alcotest.test_case "stale-index fault reproducer" `Quick test_stale_index_fault;
          Alcotest.test_case "cached digest" `Quick test_cached_digest;
        ] );
      ( "schema",
        [ Alcotest.test_case "declarations" `Quick test_schema;
          Alcotest.test_case "validation" `Quick test_schema_validation;
          Alcotest.test_case "induced by a query" `Quick test_induced_schema;
        ] );
    ]
