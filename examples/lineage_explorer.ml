(* Lineage explorer: knowledge compilation for membership games
   (Remark 4.5).

   The Boolean lineage of a CQ is a positive DNF over the endogenous
   facts: one minterm per homomorphism. This example extracts the
   lineage of the minimal interesting query on a small database, prints
   it, compiles it to a d-DNNF circuit by Shannon expansion, and shows
   that Shapley values and satisfying-subset counts fall out of
   weighted model counting over the compiled circuit. *)

module Q = Aggshap_arith.Rational
module Cq = Aggshap_cq.Cq
module Parser = Aggshap_cq.Parser
module Database = Aggshap_relational.Database
module Fact = Aggshap_relational.Fact
module Aggregate = Aggshap_agg.Aggregate
module Value_fn = Aggshap_agg.Value_fn
module Agg_query = Aggshap_agg.Agg_query
module Lineage = Aggshap_lineage.Lineage
module Formula = Aggshap_lineage.Formula
module Ddnnf = Aggshap_lineage.Ddnnf

let query = Parser.parse_query_exn "Q() <- R(x, y), S(y)"

(* Count over a Boolean query is 1 when the query holds and 0
   otherwise: the membership game. *)
let membership = Agg_query.make Aggregate.Count (Value_fn.const ~rel:"R" Q.one) query

let database =
  Database.of_list
    [ (Fact.of_ints "R" [ 1; 10 ], Database.Endogenous);
      (Fact.of_ints "R" [ 2; 10 ], Database.Endogenous);
      (Fact.of_ints "R" [ 3; 20 ], Database.Endogenous);
      (Fact.of_ints "R" [ 4; 99 ], Database.Endogenous) (* joins with nothing *);
      (Fact.of_ints "S" [ 10 ], Database.Endogenous);
      (Fact.of_ints "S" [ 20 ], Database.Exogenous);
    ]

let () =
  Printf.printf "Query (as Boolean): %s\n" (Cq.to_string query);
  Printf.printf "Database: %d facts (%d endogenous)\n\n" (Database.size database)
    (Database.endo_size database);

  (* One answer (the empty tuple), whose lineage is a DNF over the
     endogenous facts; exogenous facts are always present and drop out. *)
  let x = Lineage.extract membership database in
  let players = x.Lineage.players in
  let lineage =
    match x.Lineage.answers with
    | [ (_, phi) ] -> phi
    | _ -> failwith "a satisfiable Boolean query has exactly one answer"
  in
  Printf.printf "Boolean lineage:\n  %s\n  where " (Formula.to_string lineage);
  Array.iteri
    (fun i f -> Printf.printf "%sx%d = %s" (if i > 0 then ", " else "") i (Fact.to_string f))
    players;
  print_newline ();

  let mgr = Ddnnf.create x.Lineage.store in
  let circuit = Ddnnf.compile mgr lineage in
  Printf.printf "\nd-DNNF: %d nodes over %d of %d facts\n\n" (Ddnnf.node_count mgr)
    (Ddnnf.size circuit) (Array.length players);

  (* The fact R(4,99) joins with nothing: it does not even appear in the
     lineage, and its Shapley value is 0 (null player). *)
  Printf.printf "Shapley values of the membership game, from the compiled circuit:\n";
  List.iter
    (fun (f, v) ->
      let cross = Aggshap_core.Boolean_dp.shapley query database f in
      assert (Q.equal v cross);
      Printf.printf "  %-12s %8s (~ %.4f)\n" (Fact.to_string f) (Q.to_string v)
        (Q.to_float v))
    (Lineage.shapley_all membership database);

  (* Satisfying-subset counts by coalition size — the sum_k view. *)
  let counts = Ddnnf.model_counts mgr ~n:(Array.length players) circuit in
  Printf.printf "\nsatisfying k-subsets: ";
  Array.iteri
    (fun k c -> Printf.printf "%s%d:%s" (if k > 0 then ", " else "") k
        (Aggshap_arith.Bigint.to_string c))
    counts;
  print_newline ()
