(* The generic Fig. 2 decomposition engine: algebraic laws (qcheck) for
   the table algebra behind each engine instance, the static
   decomposition planner, per-fact jobs bit-identity on a multi-block
   instance, per-node statistics, and the engine-level
   `Block_drop fault caught by the differential oracle in all six
   aggregate families. *)

module B = Aggshap_arith.Bigint
module Q = Aggshap_arith.Rational
module Tables = Aggshap_core.Tables
module Fault = Aggshap_arith.Fault
module Engine = Aggshap_core.Engine
module Count_dp = Aggshap_core.Count_dp
module Minmax = Aggshap_core.Minmax
module Avg_quantile = Aggshap_core.Avg_quantile
module Cq = Aggshap_cq.Cq
module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact
module Aggregate = Aggshap_agg.Aggregate
module Value_fn = Aggshap_agg.Value_fn
module Agg_query = Aggshap_agg.Agg_query
module Catalog = Aggshap_workload.Catalog
module Trial = Aggshap_check.Trial
module Oracle = Aggshap_check.Oracle
module Shrink = Aggshap_check.Shrink

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_counts n = QCheck.Gen.(list_size (return (n + 1)) (int_range 0 9))
let counts_of cs = Array.of_list (List.map B.of_int cs)

let counts_equal a b = Array.length a = Array.length b && Array.for_all2 B.equal a b

(* Boolean/CDist algebra: plain per-k counts, combined by [convolve]. *)
let arb_counts =
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 4 in
      let* cs = gen_counts n in
      return (counts_of cs))
  in
  QCheck.make gen ~print:(fun c ->
      String.concat ";" (Array.to_list (Array.map B.to_string c)))

(* Count/Dup algebra: answer-count tables. All rows share length n+1 so
   that [combine] convolves consistently. *)
let arb_count_table =
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 3 in
      let* entries = list_size (int_range 1 3) (pair (int_range 0 4) (gen_counts n)) in
      return
        { Count_dp.n;
          entries =
            List.fold_left
              (fun acc (l, cs) ->
                let c = counts_of cs in
                Count_dp.IntMap.update l
                  (function None -> Some c | Some c' -> Some (Tables.add c' c))
                  acc)
              Count_dp.IntMap.empty entries })
  in
  QCheck.make gen ~print:(fun t ->
      Printf.sprintf "{n=%d; %s}" t.Count_dp.n
        (String.concat ","
           (List.map
              (fun (l, c) ->
                Printf.sprintf "%d->%s" l
                  (String.concat ";" (Array.to_list (Array.map B.to_string c))))
              (Count_dp.IntMap.bindings t.Count_dp.entries))))

(* Min/Max algebra: (a,k)-tables. *)
let arb_minmax_table =
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 3 in
      let* empty = gen_counts n in
      let* values =
        list_size (int_range 0 3) (pair (int_range (-3) 3) (gen_counts n))
      in
      return
        (Minmax.table_of_values ~n ~empty:(counts_of empty)
           (List.map (fun (v, cs) -> (Q.of_int v, counts_of cs)) values)))
  in
  QCheck.make gen

(* Avg/Quantile algebra: (a,k,ℓ)-tables. *)
let arb_vtable =
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 3 in
      let* entries =
        list_size (int_range 1 3)
          (pair (triple (int_range 0 2) (int_range 0 2) (int_range 0 2)) (gen_counts n))
      in
      return
        (Avg_quantile.vtable_of ~n
           (List.map (fun (l, cs) -> (l, counts_of cs)) entries)))
  in
  QCheck.make gen

(* ------------------------------------------------------------------ *)
(* Algebraic laws, per TABLE_ALGEBRA instance                          *)
(* ------------------------------------------------------------------ *)

let boolean_laws =
  [ prop "convolve is associative" 300 QCheck.(triple arb_counts arb_counts arb_counts)
      (fun (a, b, c) ->
        counts_equal
          (Tables.convolve (Tables.convolve a b) c)
          (Tables.convolve a (Tables.convolve b c)));
    prop "convolve is commutative" 300 QCheck.(pair arb_counts arb_counts) (fun (a, b) ->
        counts_equal (Tables.convolve a b) (Tables.convolve b a));
    prop "full 0 is the unit" 300 arb_counts (fun a ->
        counts_equal (Tables.convolve a (Tables.full 0)) a);
    prop "complement is involutive" 300 arb_counts (fun a ->
        let n = Array.length a - 1 in
        counts_equal a (Tables.complement n (Tables.complement n a)));
  ]

let count_laws =
  let module C = Count_dp in
  [ prop "union combine is associative" 200
      QCheck.(triple arb_count_table arb_count_table arb_count_table)
      (fun (a, b, c) ->
        C.equal (C.combine ( + ) (C.combine ( + ) a b) c)
          (C.combine ( + ) a (C.combine ( + ) b c)));
    prop "union combine is commutative" 200 QCheck.(pair arb_count_table arb_count_table)
      (fun (a, b) -> C.equal (C.combine ( + ) a b) (C.combine ( + ) b a));
    prop "neutral_union is the unit of union" 200 arb_count_table (fun a ->
        C.equal (C.combine ( + ) a C.neutral_union) a);
    prop "cross combine is associative" 200
      QCheck.(triple arb_count_table arb_count_table arb_count_table)
      (fun (a, b, c) ->
        C.equal (C.combine ( * ) (C.combine ( * ) a b) c)
          (C.combine ( * ) a (C.combine ( * ) b c)));
    prop "cross combine is commutative" 200 QCheck.(pair arb_count_table arb_count_table)
      (fun (a, b) -> C.equal (C.combine ( * ) a b) (C.combine ( * ) b a));
    prop "neutral_cross is the unit of cross" 200 arb_count_table (fun a ->
        C.equal (C.combine ( * ) a C.neutral_cross) a);
    prop "pad 0 is the identity" 200 arb_count_table (fun a ->
        C.equal (C.pad_table 0 a) a);
  ]

let minmax_laws =
  [ prop "combine_union is associative" 200
      QCheck.(triple arb_minmax_table arb_minmax_table arb_minmax_table)
      (fun (a, b, c) ->
        Minmax.table_equal
          (Minmax.combine_union (Minmax.combine_union a b) c)
          (Minmax.combine_union a (Minmax.combine_union b c)));
    prop "combine_union is commutative" 200
      QCheck.(pair arb_minmax_table arb_minmax_table)
      (fun (a, b) ->
        Minmax.table_equal (Minmax.combine_union a b) (Minmax.combine_union b a));
    prop "neutral is the unit" 200 arb_minmax_table (fun a ->
        Minmax.table_equal (Minmax.combine_union a Minmax.neutral) a);
    prop "pad 0 is the identity" 200 arb_minmax_table (fun a ->
        Minmax.table_equal (Minmax.pad_table 0 a) a);
  ]

let avg_laws =
  let module A = Avg_quantile in
  [ prop "combine_vtables vec_add is associative" 200
      QCheck.(triple arb_vtable arb_vtable arb_vtable)
      (fun (a, b, c) ->
        A.vtable_equal
          (A.combine_vtables A.vec_add (A.combine_vtables A.vec_add a b) c)
          (A.combine_vtables A.vec_add a (A.combine_vtables A.vec_add b c)));
    prop "combine_vtables vec_add is commutative" 200 QCheck.(pair arb_vtable arb_vtable)
      (fun (a, b) ->
        A.vtable_equal (A.combine_vtables A.vec_add a b)
          (A.combine_vtables A.vec_add b a));
    prop "neutral_union is the unit" 200 arb_vtable (fun a ->
        A.vtable_equal (A.combine_vtables A.vec_add a A.neutral_union) a);
    prop "pad 0 is the identity" 200 arb_vtable (fun a ->
        A.vtable_equal (A.pad_vtable 0 a) a);
  ]

(* ------------------------------------------------------------------ *)
(* The static decomposition planner                                    *)
(* ------------------------------------------------------------------ *)

let test_shape_of_catalog () =
  (match Engine.shape Catalog.q_xyy with
   | Engine.Partition { root = "y"; free = false; sub = Engine.Cross comps } ->
     Alcotest.(check int) "two components under the root" 2 (List.length comps)
   | _ -> Alcotest.fail "q_xyy: expected an existential root partition over a conjunction");
  (match Engine.shape Catalog.q_xyy_full with
   | Engine.Partition { root = "y"; free = true; _ } -> ()
   | _ -> Alcotest.fail "q_xyy_full: expected a free root partition on y");
  (match Engine.shape Catalog.q3_sq with
   | Engine.Cross _ -> ()
   | _ -> Alcotest.fail "q3_sq: expected a top-level conjunction (disconnected)");
  (match Engine.shape Catalog.q_nonhier with
   | Engine.Stuck _ -> ()
   | _ -> Alcotest.fail "q_nonhier: expected a stuck decomposition (no root variable)");
  (* The renderer never raises and mentions the root it found. *)
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    go 0
  in
  let rendered = Format.asprintf "%a" Engine.pp_shape (Engine.shape Catalog.q_xyy) in
  Alcotest.(check bool) "rendering mentions the root" true
    (String.length rendered > 0 && contains rendered "partition on root y")

let test_connected_root () =
  Alcotest.(check (option string)) "q_xyy roots at y" (Some "y")
    (Engine.connected_root Catalog.q_xyy);
  Alcotest.(check (option string)) "disconnected query has no single root" None
    (Engine.connected_root Catalog.q3_sq);
  Alcotest.(check (option string)) "non-hierarchical query has no root" None
    (Engine.connected_root Catalog.q_nonhier)

let test_root_partition_conserves_facts () =
  let db =
    Database.of_facts
      [ Fact.of_ints "R" [ 1; 2 ]; Fact.of_ints "R" [ 3; 4 ]; Fact.of_ints "S" [ 2 ];
        Fact.of_ints "S" [ 4 ]; Fact.of_ints "S" [ 99 ] ]
  in
  let blocks, dropped = Engine.root_partition Catalog.q_xyy ~root:"y" db in
  let in_blocks = List.fold_left (fun acc (_, b) -> acc + Database.endo_size b) 0 blocks in
  (* S(99) has no matching R fact, so its root value forms no block: the
     fact is dropped into null-player padding instead. *)
  Alcotest.(check int) "two supported root values" 2 (List.length blocks);
  Alcotest.(check int) "every endogenous fact lands in a block or is dropped"
    (Database.endo_size db)
    (in_blocks + Database.endo_size dropped)

(* ------------------------------------------------------------------ *)
(* Per-node statistics                                                 *)
(* ------------------------------------------------------------------ *)

let wide_db =
  Database.of_facts
    [ Fact.of_ints "R" [ 1; 2 ]; Fact.of_ints "R" [ 3; 4 ]; Fact.of_ints "R" [ 5; 6 ];
      Fact.of_ints "S" [ 2 ]; Fact.of_ints "S" [ 4 ]; Fact.of_ints "S" [ 6 ] ]

(* Per-fact [--jobs] is the parallelism that remains: on the
   three-block instance, Max values are bit-identical across job
   counts and equal to the one-fact-at-a-time solver. *)
let test_per_fact_jobs_bit_identical () =
  let a = Agg_query.make Aggregate.Max (Value_fn.id ~rel:"R" ~pos:0) Catalog.q_xyy in
  let seq, _ = Aggshap_core.Batch.shapley_all ~jobs:1 ~cache:false a wide_db in
  let par, _ = Aggshap_core.Batch.shapley_all ~jobs:3 ~cache:false a wide_db in
  Alcotest.(check int) "every endogenous fact" (Database.endo_size wide_db) (List.length par);
  List.iter2
    (fun (f, v) (f', v') ->
      Alcotest.(check bool) "same fact order" true (Fact.equal f f');
      let exact = Aggshap_core.Solver.shapley_exact a wide_db f in
      Alcotest.(check string) (Fact.to_string f ^ " jobs=3") (Q.to_string v) (Q.to_string v');
      Alcotest.(check string) (Fact.to_string f ^ " per fact") (Q.to_string exact)
        (Q.to_string v))
    seq par

let test_stats_counters () =
  Engine.reset_stats ();
  ignore (Count_dp.answer_counts Catalog.q_xyy_full wide_db);
  let s = Engine.stats () in
  Alcotest.(check bool) "nodes counted" true (s.Engine.nodes > 0);
  Alcotest.(check bool) "leaves counted" true (s.Engine.leaves > 0);
  Alcotest.(check bool) "merges counted" true (s.Engine.merges > 0);
  Engine.reset_stats ();
  Alcotest.(check int) "reset clears nodes" 0 (Engine.stats ()).Engine.nodes

(* The process-wide partition cache serves repeated solves of one
   block, except while a fault is armed: then it is neither read nor
   written, so a corrupted partition is never served later. The
   [`Stale_block] fault does not touch the engine's values, so only the
   probe counts move. The facts are private to this test, so no other
   test has warmed the cache for them. *)
let test_partition_cache_bypassed_under_fault () =
  let db =
    Database.of_facts
      [ Fact.of_ints "R" [ 701; 702 ]; Fact.of_ints "R" [ 703; 702 ];
        Fact.of_ints "R" [ 705; 706 ]; Fact.of_ints "S" [ 702 ]; Fact.of_ints "S" [ 706 ] ]
  in
  let probes () =
    Database.reset_stats ();
    let t = Count_dp.answer_counts Catalog.q_xyy_full db in
    ((Database.stats ()).Database.index_probes, List.map (Count_dp.get t) [ 0; 1; 2; 3 ])
  in
  assert (!Fault.current = `None);
  Fault.current := `Stale_block;
  let (armed1, t1), (armed2, t2) =
    Fun.protect ~finally:(fun () -> Fault.current := `None) (fun () ->
        let first = probes () in
        (first, probes ()))
  in
  let cold, t3 = probes () in
  let warm, t4 = probes () in
  Alcotest.(check bool) "partitions probe the indexes" true (armed1 > 0);
  Alcotest.(check int) "armed: no cache read" armed1 armed2;
  Alcotest.(check int) "armed: no cache write" armed1 cold;
  Alcotest.(check bool) "cleared: the cache serves the partitions" true (warm < cold);
  List.iter
    (fun t -> Alcotest.(check bool) "same table" true (List.for_all2 counts_equal t1 t))
    [ t2; t3; t4 ];
  Database.reset_stats ()

(* Saturated answer-count tables: every row below the cap is
   bit-identical to the uncapped table, and the cap row absorbs exactly
   the tail mass ([at_least]). This is the contract Dup's fast path
   rests on — it reads rows 0 and 1 of [~cap:2] tables. *)
let test_capped_answer_counts () =
  let module C = Count_dp in
  let module Generate = Aggshap_workload.Generate in
  let config = { Generate.tuples_per_relation = 10; domain = 4; exo_fraction = 0.25 } in
  List.iter
    (fun q ->
      List.iter
        (fun seed ->
          let db = Generate.random_database ~seed ~config q in
          let exact = C.answer_counts q db in
          List.iter
            (fun cap ->
              let capped = C.answer_counts ~cap q db in
              let name = Printf.sprintf "%s seed %d cap %d" (Cq.to_string q) seed cap in
              for l = 0 to cap - 1 do
                Alcotest.(check bool)
                  (Printf.sprintf "%s: row %d exact" name l)
                  true
                  (counts_equal (C.get capped l) (C.get exact l))
              done;
              Alcotest.(check bool) (name ^ ": cap row is the tail") true
                (counts_equal (C.get capped cap) (C.at_least exact cap)))
            [ 1; 2; 3 ])
        [ 11; 12; 13 ])
    [ Catalog.q1_sq; Catalog.q3_sq; Catalog.q_xyy_full ]

(* ------------------------------------------------------------------ *)
(* `Block_drop caught in every aggregate family                        *)
(* ------------------------------------------------------------------ *)

(* One directed trial per frontier family, each with at least two blocks
   in some root partition the family's engine instance evaluates, so the
   engine-level fault has a block to drop. The trial must be clean
   without the fault, fail the oracle with it, and shrink to a
   still-failing reproducer. *)
let directed_block_drop (name, alpha, query, tau, facts) =
  Alcotest.test_case name `Quick (fun () ->
      let db = Database.of_facts facts in
      let trial = { Trial.seed = 0; query; db; alpha; tau } in
      Alcotest.(check bool) "clean without the fault" true
        (Oracle.run ~par_jobs:1 trial = None);
      assert (!Fault.current = `None);
      Fault.current := `Block_drop;
      Fun.protect
        ~finally:(fun () -> Fault.current := `None)
        (fun () ->
          match Oracle.run ~par_jobs:1 trial with
          | None -> Alcotest.failf "%s: `Block_drop was not caught" name
          | Some failure ->
            let shrunk, _ = Shrink.minimize (Oracle.run ~par_jobs:1) trial failure in
            Alcotest.(check bool) "shrunk still fails" true
              (Oracle.run ~par_jobs:1 shrunk <> None);
            Alcotest.(check bool) "shrunk is no bigger" true
              (Database.size shrunk.Trial.db <= Database.size db)))

let r1 = Fact.of_ints "R" [ 1 ]
let block_drop_families =
  [ ( "sum (Boolean DP)", Aggregate.Sum, Catalog.q_exists, Trial.Id ("R", 0),
      [ r1; Fact.of_ints "S" [ 1; 3 ]; Fact.of_ints "S" [ 1; 4 ]; Fact.of_ints "T" [ 3 ];
        Fact.of_ints "T" [ 4 ] ] );
    ( "count (Boolean DP)", Aggregate.Count, Catalog.q_exists, Trial.Const ("R", Q.one),
      [ r1; Fact.of_ints "S" [ 1; 3 ]; Fact.of_ints "S" [ 1; 4 ]; Fact.of_ints "T" [ 3 ];
        Fact.of_ints "T" [ 4 ] ] );
    (* Both root blocks must survive the per-value restriction, so the
       two R facts share one τ-value but differ on the root y. *)
    ( "count-distinct (per-value Boolean DP)", Aggregate.Count_distinct, Catalog.q_xyy,
      Trial.Id ("R", 0),
      [ Fact.of_ints "R" [ 1; 2 ]; Fact.of_ints "R" [ 1; 4 ]; Fact.of_ints "S" [ 2 ];
        Fact.of_ints "S" [ 4 ] ] );
    ( "min ((a,k)-table DP)", Aggregate.Min, Catalog.q_xyy, Trial.Id ("R", 0),
      [ Fact.of_ints "R" [ 1; 2 ]; Fact.of_ints "R" [ 3; 4 ]; Fact.of_ints "S" [ 2 ];
        Fact.of_ints "S" [ 4 ] ] );
    ( "avg ((a,k,l)-table DP)", Aggregate.Avg, Catalog.q_xyy_full, Trial.Id ("R", 0),
      [ Fact.of_ints "R" [ 1; 2 ]; Fact.of_ints "R" [ 3; 4 ]; Fact.of_ints "S" [ 2 ];
        Fact.of_ints "S" [ 4 ] ] );
    ( "has-duplicates (P0/P1 DP)", Aggregate.Has_duplicates, Catalog.q1_sq,
      Trial.Const ("R", Q.one),
      [ Fact.of_ints "R" [ 1; 2 ]; Fact.of_ints "S" [ 1 ]; Fact.of_ints "R" [ 4; 5 ];
        Fact.of_ints "S" [ 4 ] ] );
  ]

let () =
  Alcotest.run "engine"
    [ ("Boolean/CDist table algebra (counts)", boolean_laws);
      ("Count/Dup table algebra (answer counts)", count_laws);
      ("Min/Max table algebra ((a,k)-tables)", minmax_laws);
      ("Avg/Quantile table algebra ((a,k,l)-tables)", avg_laws);
      ( "decomposition planner",
        [ Alcotest.test_case "shapes of the catalog queries" `Quick test_shape_of_catalog;
          Alcotest.test_case "connected_root" `Quick test_connected_root;
          Alcotest.test_case "root_partition conserves facts" `Quick
            test_root_partition_conserves_facts;
        ] );
      ( "stats and capped counts",
        [ Alcotest.test_case "per-fact jobs bit-identical" `Quick
            test_per_fact_jobs_bit_identical;
          Alcotest.test_case "per-node counters" `Quick test_stats_counters;
          Alcotest.test_case "capped answer counts" `Quick test_capped_answer_counts;
          Alcotest.test_case "partition cache bypassed under a fault" `Quick
            test_partition_cache_bypassed_under_fault;
        ] );
      ("block-drop fault per family", List.map directed_block_drop block_drop_families);
    ]
